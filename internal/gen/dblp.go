package gen

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"cexplorer/internal/graph"
)

// DBLPConfig parameterizes the synthetic DBLP-like co-authorship network.
// The defaults follow the structural profile of the paper's dataset
// (977,288 authors, 3,432,273 edges, ≈7 average degree, ≤20 keywords per
// author) at a laptop-friendly scale, but run denser than it: the generator
// measures 531,719 edges at 100k authors (average degree 10.6).
// PaperScaleConfig reproduces the full author count for the latency
// experiment E7.
type DBLPConfig struct {
	Authors           int     // number of author vertices
	Communities       int     // number of research communities (ground truth)
	EdgeFactor        float64 // intra-community edge attempts per membership (≈ avg degree / 4: 2.6 gives 10.5–10.9)
	CrossFrac         float64 // extra cross-community edges, as a fraction of intra edges
	KeywordsPerAuthor int     // cap on keywords per author (paper: 20)
	SecondaryProb     float64 // probability an author joins a second community
	Seed              int64
}

// DefaultDBLPConfig is the configuration used by tests, examples, and the
// default benchmark tables.
func DefaultDBLPConfig() DBLPConfig {
	return DBLPConfig{
		Authors:           20000,
		Communities:       64,
		EdgeFactor:        2.6,
		CrossFrac:         0.06,
		KeywordsPerAuthor: 20,
		SecondaryProb:     0.3,
		Seed:              1,
	}
}

// SmallDBLPConfig is a fast variant for unit tests.
func SmallDBLPConfig() DBLPConfig {
	cfg := DefaultDBLPConfig()
	cfg.Authors = 2000
	cfg.Communities = 16
	return cfg
}

// PaperScaleConfig matches the demo paper's vertex count, 977,288. It
// generates 5,347,279 edges (average degree 10.9), more than the paper's
// 3,432,273.
func PaperScaleConfig() DBLPConfig {
	cfg := DefaultDBLPConfig()
	cfg.Authors = 977288
	cfg.Communities = 1200
	return cfg
}

// Profile is the per-author record shown in the profile window (Figure 2 of
// the paper: name, areas, institutes, research interests).
type Profile struct {
	Name       string   `json:"name"`
	Areas      []string `json:"areas"`
	Institutes []string `json:"institutes"`
	Interests  []string `json:"interests"`
}

// DBLP bundles the generated attributed graph with its ground truth and
// profile store.
type DBLP struct {
	Graph *graph.Graph
	// Truth holds the ground-truth communities (per community, sorted member
	// IDs). Authors may belong to more than one.
	Truth [][]int32
	// Profiles keys author vertex IDs to their profile records.
	Profiles map[int32]Profile
	// Topics names each ground-truth community's research area.
	Topics []string
}

var topicNames = []string{
	"transaction", "spatial", "mining", "learning", "stream", "index",
	"storage", "privacy", "security", "cloud", "parallel", "semantic",
	"optimization", "clustering", "retrieval", "visualization",
	"crowdsourcing", "probabilistic", "temporal", "social",
	"recommendation", "integration", "provenance", "hardware",
	"compression", "benchmark", "workflow", "graph", "text", "multimedia",
}

var genericWords = []string{
	"data", "system", "research", "management", "analysis", "model",
	"query", "web", "server", "digital", "information", "network",
	"design", "approach", "framework", "method", "processing",
	"distributed", "efficient", "large",
}

var lexicon = []string{
	"algorithm", "architecture", "cache", "concurrency", "consistency",
	"cost", "coverage", "decomposition", "dependency", "dimension",
	"discovery", "dynamic", "encoding", "engine", "estimation", "evaluation",
	"execution", "extraction", "feature", "filter", "formal", "fusion",
	"generation", "heterogeneous", "hierarchy", "incremental", "inference",
	"interactive", "join", "kernel", "knowledge", "language", "latency",
	"lineage", "locality", "logic", "maintenance", "mapping", "matching",
	"materialized", "memory", "metadata", "migration", "mobile", "monitor",
	"multidimensional", "nearest", "nested", "online", "ontology",
	"operator", "order", "partition", "pattern", "performance", "pipeline",
	"planning", "prediction", "preference", "pruning", "quality", "ranking",
	"recovery", "regression", "relational", "replication", "resilient",
	"sampling", "scalable", "schema", "search", "selection", "sensor",
	"sequence", "similarity", "sketch", "skyline", "snapshot", "sparse",
	"statistics", "structure", "summarization", "synthesis", "throughput",
	"topology", "tracking", "transfer", "traversal", "tuning", "uncertain",
	"update", "validation", "vector", "verification", "view", "warehouse",
	"wavelet", "window", "workload", "adaptive",
}

var institutes = []string{
	"university of california, berkeley", "university of hong kong",
	"stanford university", "mit", "carnegie mellon university",
	"university of wisconsin-madison", "eth zurich", "tsinghua university",
	"national university of singapore", "university of michigan",
	"max planck institute", "university of toronto", "epfl",
	"university of washington", "cornell university", "ibm research",
	"microsoft research", "bell labs", "university of edinburgh",
	"technical university of munich",
}

// topicPool returns the keyword pool of topic t: its own label plus a
// deterministic slice of the technical lexicon. Pools overlap across topics,
// as real research vocabularies do.
func topicPool(t int) []string {
	pool := make([]string, 0, 15)
	pool = append(pool, topicNames[t%len(topicNames)])
	for i := 0; i < 14; i++ {
		pool = append(pool, lexicon[(t*7+i*3)%len(lexicon)])
	}
	return pool
}

// GenerateDBLP builds the synthetic attributed co-authorship network.
// Everything is deterministic in cfg.Seed.
//
// Construction:
//   - Community sizes follow a Zipf law; each author joins a primary
//     community (Zipf-ranked) and, with SecondaryProb, a secondary one.
//   - The first NumFamousAuthors() authors ("jim gray", ...) join several
//     communities each and head their member lists, so the intra-community
//     preferential attachment below turns them into the high-degree,
//     multi-community hubs the paper's walkthrough queries.
//   - Intra-community edges use preferential attachment toward early list
//     members, producing heavy-tailed degrees and dense nested cores (what
//     k-core search exploits). Cross-community noise edges are added on top.
//   - Keywords are sampled Zipf-wise from the author's communities' topic
//     pools plus a generic pool, capped at KeywordsPerAuthor — mirroring
//     "the 20 most frequent keywords in the titles of her publications".
func GenerateDBLP(cfg DBLPConfig) *DBLP {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nc := cfg.Communities
	if nc < 4 {
		nc = 4
	}
	nFamous := len(famousAuthors)
	if cfg.Authors < nFamous+10 {
		nFamous = cfg.Authors / 2
	}

	// --- community memberships ---
	members := make([][]int32, nc) // per community, in join order
	communityZipf := rand.NewZipf(rng, 1.4, 3, uint64(nc-1))
	memberOf := make([][]int32, cfg.Authors)

	join := func(a int32, c int) {
		members[c] = append(members[c], a)
		memberOf[a] = append(memberOf[a], int32(c))
	}
	// Famous authors first: 3–5 communities each, biased to the big ones.
	for a := 0; a < nFamous; a++ {
		want := 3 + rng.Intn(3)
		if want > nc {
			want = nc // tiny configs: can't join more communities than exist
		}
		seen := map[int]bool{}
		for len(seen) < want {
			c := int(communityZipf.Uint64())
			if !seen[c] {
				seen[c] = true
				join(int32(a), c)
			}
		}
	}
	for a := nFamous; a < cfg.Authors; a++ {
		c := int(communityZipf.Uint64())
		join(int32(a), c)
		if rng.Float64() < cfg.SecondaryProb {
			c2 := int(communityZipf.Uint64())
			if c2 != c {
				join(int32(a), c2)
			}
		}
	}

	// --- edges ---
	b := graph.NewBuilder(cfg.Authors, int(float64(cfg.Authors)*cfg.EdgeFactor*1.4))
	for a := 0; a < cfg.Authors; a++ {
		b.AddVertex(authorName(a))
	}
	intra := 0
	degZipf := rand.NewZipf(rng, 1.6, 2, 16)
	for _, ms := range members {
		for i := 1; i < len(ms); i++ {
			attempts := 1 + int(degZipf.Uint64())
			if attempts > i {
				attempts = i
			}
			for t := 0; t < attempts; t++ {
				// Preferential attachment: bias toward early (hub) members.
				j := int(float64(i) * math.Pow(rng.Float64(), 2.2))
				b.AddEdge(ms[i], ms[j])
				intra++
			}
		}
	}
	cross := int(cfg.CrossFrac * float64(intra))
	for t := 0; t < cross; t++ {
		u := int32(rng.Intn(cfg.Authors))
		v := int32(rng.Intn(cfg.Authors))
		b.AddEdge(u, v)
	}

	// --- keywords ---
	pools := make([][]string, nc)
	for c := 0; c < nc; c++ {
		pools[c] = topicPool(c)
	}
	poolZipf := rand.NewZipf(rng, 1.4, 2, uint64(len(pools[0])-1))
	genericZipf := rand.NewZipf(rng, 1.3, 2, uint64(len(genericWords)-1))
	kwset := map[string]bool{}
	for a := 0; a < cfg.Authors; a++ {
		for k := range kwset {
			delete(kwset, k)
		}
		target := 8 + rng.Intn(cfg.KeywordsPerAuthor-7)
		comms := memberOf[a]
		// A few generic words first ("data", "system", ...), like any DBLP
		// author's title vocabulary.
		nGeneric := 2 + rng.Intn(3)
		for i := 0; i < nGeneric; i++ {
			kwset[genericWords[genericZipf.Uint64()]] = true
		}
		for guard := 0; len(kwset) < target && guard < 6*target; guard++ {
			var pool []string
			if len(comms) > 0 {
				pool = pools[comms[rng.Intn(len(comms))]]
			} else {
				pool = genericWords
			}
			kwset[pool[poolZipf.Uint64()]] = true
		}
		kws := make([]string, 0, len(kwset))
		for k := range kwset {
			kws = append(kws, k)
		}
		// Map iteration order is random; sort so vocabulary interning (and
		// therefore the whole dataset) is deterministic in the seed.
		sort.Strings(kws)
		b.SetKeywords(int32(a), kws...)
	}

	g := b.MustBuild()

	// --- ground truth, topics, profiles ---
	// Member lists are already ascending (join is called in author-ID order),
	// so copying preserves sortedness; assert cheaply via sort.
	truth := make([][]int32, nc)
	for c := range members {
		truth[c] = append([]int32(nil), members[c]...)
		slices.Sort(truth[c])
	}
	topics := make([]string, nc)
	for c := 0; c < nc; c++ {
		topics[c] = topicNames[c%len(topicNames)]
	}
	profiles := make(map[int32]Profile, nFamous+cfg.Authors/100)
	addProfile := func(a int32) {
		areas := make([]string, 0, len(memberOf[a]))
		for _, c := range memberOf[a] {
			areas = append(areas, topics[c])
		}
		insts := []string{institutes[int(a)%len(institutes)]}
		if int(a)%3 == 0 {
			insts = append(insts, institutes[(int(a)+7)%len(institutes)])
		}
		interests := g.KeywordStrings(a)
		if len(interests) > 6 {
			interests = interests[:6]
		}
		profiles[a] = Profile{
			Name:       g.Name(a),
			Areas:      areas,
			Institutes: insts,
			Interests:  interests,
		}
	}
	for a := 0; a < nFamous; a++ {
		addProfile(int32(a))
	}
	// "Several hundreds of renowned researchers": profile every 100th author.
	for a := nFamous; a < cfg.Authors; a += 100 {
		addProfile(int32(a))
	}

	return &DBLP{Graph: g, Truth: truth, Profiles: profiles, Topics: topics}
}
