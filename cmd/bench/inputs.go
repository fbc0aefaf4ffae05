package main

// Input generation. Everything the fleet receives during a run — the
// dataset, the query panels, the request schedules and the mutation streams
// — is a pure function of (scale, seed), built here before load starts.
// Nothing in a generated input names the workload that will send it.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
)

// scale fixes the dataset and panel sizes. "default" is the contract scale;
// "smoke" keeps `go test` fast; "paper" is the source paper's E7 graph.
type scale struct {
	Name        string
	Authors     int
	Communities int
	ColdPanel   int // distinct items in browse_cold's panel
}

var scales = map[string]scale{
	"smoke":   {Name: "smoke", Authors: 4000, Communities: 24, ColdPanel: 4000},
	"default": {Name: "default", Authors: 100000, Communities: 320, ColdPanel: 20000},
	"paper":   {Name: "paper", Authors: 977288, Communities: 1200, ColdPanel: 20000},
}

const (
	datasetName = "dblp"
	// hotPanel is the number of distinct queries in the hot panel. Its answers
	// (about 30 MB) fit the result cache (4096 entries, 64 MiB) twice over. A
	// 64-query panel fits too, but which 64 were drawn decided the median:
	// answers run from 30 to 88,000 vertices.
	hotPanel = 256
	// displayCap bounds the community slice sent to analyze and display:
	// CPJ is quadratic in the community and a 30k-vertex answer takes tens of
	// seconds, so the client sends what a browser canvas can draw.
	displayCap = 256
)

// ks are the minimum-degree values queries carry.
var ks = []int{3, 4, 6}

// datasetSeed generates the dataset of every run. The graph stands for the
// paper's DBLP network, one fixed graph that many users query, so the run's
// seed decides what is asked of it and not what it is. It is also what makes
// runs comparable: graphs from different seeds look alike (same core
// histogram to within 1%) yet cost up to 30% more or less to mutate, which
// would drown any change to the write path.
const datasetSeed = 1

func datasetConfig(sc scale) gen.DBLPConfig {
	cfg := gen.DefaultDBLPConfig()
	cfg.Authors = sc.Authors
	cfg.Communities = sc.Communities
	cfg.Seed = datasetSeed
	return cfg
}

// query is one community search as it goes over the wire.
type query struct {
	Algorithm string   `json:"algorithm"`
	Vertices  []int32  `json:"vertices"`
	K         int      `json:"k"`
	Keywords  []string `json:"keywords,omitempty"`

	body []byte // the JSON encoding of the fields above
}

func (q *query) apiQuery() api.Query {
	return api.Query{Vertices: q.Vertices, K: q.K, Keywords: q.Keywords}
}

// coldItem is one entry of browse_cold's panel: a search (optionally followed
// by analyze + display of its first community) or an exploration session
// anchored like a search.
type coldItem struct {
	Query   query
	Session bool // explore open → expand → expand → contract → close
	Analyze bool // follow the answer with analyze + display
}

// Request mixes, as repeating patterns and not as probabilities: every seed's
// panel then has exactly the same composition, and only the query vertices
// differ. "session" is an exploration session anchored like an ACQ search.
var (
	// 60% ACQ, 15% Global, 15% Local, 10% KTruss.
	hotMix = []string{
		"ACQ", "Global", "ACQ", "Local", "ACQ", "ACQ", "KTruss", "ACQ", "Global", "ACQ",
		"ACQ", "Local", "ACQ", "ACQ", "KTruss", "ACQ", "Global", "ACQ", "Local", "ACQ",
	}
	// 50% ACQ, 10% Global, 10% Local, 10% KTruss, 20% sessions.
	coldMix = []string{"ACQ", "session", "ACQ", "Global", "ACQ", "Local", "ACQ", "session", "KTruss", "ACQ"}
)

// panelGen draws distinct queries. A query vertex qualifies by an input
// property only: its core number is at least k.
type panelGen struct {
	g    *graph.Graph
	core []int32
	r    *rand.Rand
	seen map[string]bool
}

func newPanelGen(g *graph.Graph, core []int32, seed int64) *panelGen {
	return &panelGen{g: g, core: core, r: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// next returns a query for algo at minimum degree k that the panel has not
// produced yet. Every ACQ query carries exactly three keywords, the first
// three of the vertex's sorted keyword list: with the full 20-keyword set
// ACQ has multi-second outliers that would turn every percentile into noise.
func (p *panelGen) next(algo string, k int) query {
	for tries := 0; ; tries++ {
		if tries == 1<<22 {
			panic("bench: the graph has too few qualifying vertices for a panel this large")
		}
		v := int32(p.r.Intn(p.g.N()))
		if int(p.core[v]) < k {
			continue
		}
		key := fmt.Sprintf("%s/%d/%d", algo, v, k)
		if p.seen[key] {
			continue
		}
		p.seen[key] = true
		q := query{Algorithm: algo, Vertices: []int32{v}, K: k}
		if algo == "ACQ" {
			q.Keywords = firstKeywords(p.g, v, 3)
		}
		q.body = mustJSON(q)
		return q
	}
}

func firstKeywords(g *graph.Graph, v int32, n int) []string {
	words := slices.Clone(g.KeywordStrings(v))
	slices.Sort(words)
	if len(words) > n {
		words = words[:n]
	}
	return words
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only bench-owned structs are encoded
	}
	return b
}

// inputs is everything one run sends, fixed before load starts.
type inputs struct {
	Hot  []query    // hotPanel distinct queries
	Cold []coldItem // ColdPanel distinct items, consumed in order, never reused
}

func buildInputs(sc scale, g *graph.Graph, core []int32, seed int64) *inputs {
	in := &inputs{}
	p := newPanelGen(g, core, seed^0x5eed0001)
	for i := range hotPanel {
		in.Hot = append(in.Hot, p.next(hotMix[i%len(hotMix)], ks[i%len(ks)]))
	}
	acq := 0
	for i := range sc.ColdPanel {
		algo := coldMix[i%len(coldMix)]
		it := coldItem{}
		if algo == "session" {
			it.Session = true
			algo = "ACQ"
		}
		it.Query = p.next(algo, ks[i%len(ks)])
		if !it.Session && algo == "ACQ" {
			acq++
			it.Analyze = acq%10 == 0
		}
		in.Cold = append(in.Cold, it)
	}
	return in
}

// hotSchedule is the open-loop read schedule: slot i sends Hot[s[i]], drawn
// uniformly. A popularity skew was tried and dropped: the whole panel is
// cached either way, so Zipf(1.1) changed nothing but which three queries'
// answer sizes decided the median (1.3 ms to 6.2 ms across five seeds).
func hotSchedule(seed int64, n int) []int {
	r := rand.New(rand.NewSource(seed ^ 0x5eed0002))
	s := make([]int, n)
	for i := range s {
		s[i] = r.Intn(hotPanel)
	}
	return s
}

// writeEvery is the mixed workload's cadence: every writeEvery-th slot is a
// single-op mutation, 5% of the requests. A fixed cadence, not a coin per
// slot, so every seed sends the same number of writes.
const writeEvery = 20

func isWriteSlot(i int) bool { return i%writeEvery == writeEvery-1 }

// mutationStream generates valid mutations without asking the program
// anything: it keeps its own model of the edges it has touched. Streams
// partition the vertex pairs between them (stream s owns the pairs whose
// smaller endpoint is ≡ s mod streams), so several writers can run
// concurrently and every op stays valid whatever order the server applies
// them in. An edge a stream removed is never added again.
type mutationStream struct {
	g       *graph.Graph
	truth   [][]int32
	r       *rand.Rand
	id, of  int
	added   map[[2]int32]bool // present now, added by this stream
	dead    map[[2]int32]bool // removed by this stream
	pool    [][2]int32        // removable: sampled original edges plus added ones
	vertexN int               // addVertex ops generated

	// Net effect on the graph, for the final edge- and vertex-count check.
	Edges, Vertices int
}

func newMutationStream(d *gen.DBLP, seed int64, id, of int) *mutationStream {
	m := &mutationStream{
		g: d.Graph, truth: d.Truth, id: id, of: of,
		r:     rand.New(rand.NewSource(seed ^ 0x5eed0004 ^ int64(id)<<32)),
		added: map[[2]int32]bool{}, dead: map[[2]int32]bool{},
	}
	// Seed the removal pool with original edges this stream owns, so removals
	// reach the generated graph and not only the stream's own additions.
	for len(m.pool) < 1024 {
		u := int32(m.r.Intn(m.g.N()))
		ns := m.g.Neighbors(u)
		if len(ns) == 0 {
			continue
		}
		e := m.own(u, ns[m.r.Intn(len(ns))])
		if e[0] >= 0 && !slices.Contains(m.pool, e) {
			m.pool = append(m.pool, e)
		}
	}
	return m
}

// own normalizes (u,v) and reports {-1,-1} unless this stream owns the pair.
func (m *mutationStream) own(u, v int32) [2]int32 {
	if u > v {
		u, v = v, u
	}
	if u == v || int(u)%m.of != m.id {
		return [2]int32{-1, -1}
	}
	return [2]int32{u, v}
}

// next returns the stream's next op: 50% addEdge between two members of one
// ground-truth community, 45% removeEdge, 5% addVertex (only when
// allowVertex: new vertices are never referenced again, so their ids may be
// assigned in any order).
func (m *mutationStream) next(allowVertex bool) api.Mutation {
	p := m.r.Intn(100)
	switch {
	case allowVertex && p < 5:
		m.vertexN++
		m.Vertices++
		src := int32(m.r.Intn(m.g.N()))
		return api.Mutation{
			Op:       api.OpAddVertex,
			Name:     fmt.Sprintf("bench author %d/%d", m.id, m.vertexN),
			Keywords: firstKeywords(m.g, src, 3),
		}
	case p < 50 && len(m.pool) > 0:
		i := m.r.Intn(len(m.pool))
		e := m.pool[i]
		m.pool[i] = m.pool[len(m.pool)-1]
		m.pool = m.pool[:len(m.pool)-1]
		delete(m.added, e)
		m.dead[e] = true
		m.Edges--
		return api.Mutation{Op: api.OpRemoveEdge, U: e[0], V: e[1]}
	}
	for {
		c := m.truth[m.r.Intn(len(m.truth))]
		if len(c) < 2 {
			continue
		}
		e := m.own(c[m.r.Intn(len(c))], c[m.r.Intn(len(c))])
		if e[0] < 0 || m.added[e] || m.dead[e] || m.g.HasEdge(e[0], e[1]) {
			continue
		}
		m.added[e] = true
		m.pool = append(m.pool, e)
		m.Edges++
		return api.Mutation{Op: api.OpAddEdge, U: e[0], V: e[1]}
	}
}

// batch returns the stream's next n edge ops.
func (m *mutationStream) batch(n int) []api.Mutation {
	ops := make([]api.Mutation, n)
	for i := range ops {
		ops[i] = m.next(false)
	}
	return ops
}

// inverse returns the op that undoes an edge op and retires the edge, so the
// traced replay of a write leaves graph and model where they were.
func (m *mutationStream) inverse(op api.Mutation) api.Mutation {
	e := [2]int32{op.U, op.V}
	if op.Op == api.OpAddEdge {
		delete(m.added, e)
		if i := slices.Index(m.pool, e); i >= 0 {
			m.pool = slices.Delete(m.pool, i, i+1)
		}
		m.dead[e] = true
		m.Edges--
		return api.Mutation{Op: api.OpRemoveEdge, U: op.U, V: op.V}
	}
	m.Edges++
	return api.Mutation{Op: api.OpAddEdge, U: op.U, V: op.V}
}
