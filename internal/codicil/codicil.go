// Package codicil implements CODICIL (Ruan, Fuhry, Parthasarathy, WWW'13):
// community detection that fuses content and link structure. The pipeline,
// following the original:
//
//  1. Content edges: connect every vertex to its top-c most content-similar
//     vertices (TF-IDF cosine over keyword sets, candidates via an inverted
//     index).
//  2. Union: combine content edges with the topology edges.
//  3. Local sparsification: every vertex ranks its union-graph neighbors by
//     a blend of content similarity and structural (Jaccard) similarity and
//     keeps its top ⌈d^e⌉; an edge survives if either endpoint keeps it.
//  4. Cluster the sparsified weighted graph. The original delegates to
//     METIS/MLR-MCL; here Louvain (default) or label propagation plays that
//     role.
//
// CODICIL is a community-*detection* method: it partitions the whole graph
// offline, and the community of a query vertex is looked up from the
// partition — which is why the paper contrasts it with the online CS
// algorithms.
package codicil

import (
	"cmp"
	"context"
	"math"
	"slices"

	"cexplorer/internal/cluster"
	"cexplorer/internal/ds"
	"cexplorer/internal/graph"
)

// cancelCheckStride is how many vertices the context-aware pipeline stages
// process between ctx.Err() polls.
const cancelCheckStride = 512

// Options configures the pipeline.
type Options struct {
	ContentK    int     // content kNN per vertex; default 10
	SparsifyExp float64 // e in ⌈d^e⌉; default 0.5
	Alpha       float64 // similarity blend: α·content + (1-α)·structural; default 0.5
	NoSparsify  bool    // ablation switch: skip step 3
	UseLabelLP  bool    // use label propagation instead of Louvain
	Seed        int64
	// MaxDF caps the document frequency of keywords used for content-edge
	// candidate generation (hub words like "data" pair everyone with
	// everyone); 0 means n/8.
	MaxDF int
}

func (o *Options) fill(n int) {
	if o.ContentK <= 0 {
		o.ContentK = 10
	}
	if o.SparsifyExp <= 0 {
		o.SparsifyExp = 0.5
	}
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.5
	}
	if o.MaxDF <= 0 {
		o.MaxDF = n / 8
		if o.MaxDF < 32 {
			o.MaxDF = 32 // tiny graphs: never filter everything away
		}
	}
}

// Result is a finished CODICIL run.
type Result struct {
	Partition *cluster.Partition
	// Pipeline statistics for the ablation bench.
	ContentEdges    int
	UnionEdges      int
	SparsifiedEdges int
}

// CommunityOf returns the detected community containing q.
func (r *Result) CommunityOf(q int32) []int32 { return r.Partition.CommunityOf(q) }

// Detect runs the full pipeline on g.
func Detect(g *graph.Graph, opts Options) *Result {
	r, _ := DetectContext(context.Background(), g, opts)
	return r
}

// DetectContext is Detect with cooperative cancellation: the content-edge
// scan and the sparsification ranking — the two per-vertex passes that
// dominate the pipeline — poll ctx every few hundred vertices and return
// ctx.Err() when the request is canceled or past its deadline. (The final
// clustering step is not interruptible; it runs on an already-sparsified
// graph and is the cheapest stage.)
func DetectContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	opts.fill(g.N())
	content, err := contentEdges(ctx, g, opts)
	if err != nil {
		return nil, err
	}

	// Union adjacency with content-similarity weights (topology edges get
	// weight from their endpoints' similarity too, so the blend is uniform).
	type nbr struct {
		to  int32
		sim float64
	}
	adj := make(map[int32][]nbr, g.N())
	addEdge := func(u, v int32, sim float64) {
		adj[u] = append(adj[u], nbr{v, sim})
		adj[v] = append(adj[v], nbr{u, sim})
	}
	seen := make(map[int64]bool, g.M()+len(content))
	key := func(u, v int32) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	tfidf := newTFIDF(g, opts.MaxDF)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	edgeCount := 0
	g.Edges(func(u, v int32) bool {
		edgeCount++
		if edgeCount%cancelCheckStride == 0 && ctx.Err() != nil {
			return false
		}
		seen[key(u, v)] = true
		addEdge(u, v, tfidf.cosine(u, v))
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	unionEdges := g.M()
	for _, e := range content {
		if !seen[key(e.u, e.v)] {
			seen[key(e.u, e.v)] = true
			addEdge(e.u, e.v, e.sim)
			unionEdges++
		}
	}

	// Structural Jaccard on the union graph + blending.
	nbrSet := make([][]int32, g.N())
	for v := int32(0); v < int32(g.N()); v++ {
		if v%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		lst := make([]int32, 0, len(adj[v]))
		for _, e := range adj[v] {
			lst = append(lst, e.to)
		}
		nbrSet[v] = ds.SortInt32s(lst)
	}

	kept := make(map[int64]float64)
	if opts.NoSparsify {
		for v := int32(0); v < int32(g.N()); v++ {
			if v%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for _, e := range adj[v] {
				if v < e.to {
					w := opts.Alpha*e.sim + (1-opts.Alpha)*ds.JaccardSorted(nbrSet[v], nbrSet[e.to])
					kept[key(v, e.to)] = w + 1e-6
				}
			}
		}
	} else {
		type scored struct {
			to int32
			w  float64
		}
		for v := int32(0); v < int32(g.N()); v++ {
			if v%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			es := adj[v]
			if len(es) == 0 {
				continue
			}
			ss := make([]scored, 0, len(es))
			for _, e := range es {
				w := opts.Alpha*e.sim + (1-opts.Alpha)*ds.JaccardSorted(nbrSet[v], nbrSet[e.to])
				ss = append(ss, scored{e.to, w})
			}
			slices.SortFunc(ss, func(a, b scored) int {
				if a.w != b.w {
					return cmp.Compare(b.w, a.w)
				}
				return int(a.to) - int(b.to)
			})
			keep := int(math.Ceil(math.Pow(float64(len(ss)), opts.SparsifyExp)))
			if keep > len(ss) {
				keep = len(ss)
			}
			for _, s := range ss[:keep] {
				k := key(v, s.to)
				if s.w+1e-6 > kept[k] {
					kept[k] = s.w + 1e-6
				}
			}
		}
	}

	wedges := make([]cluster.WEdge, 0, len(kept))
	for k, w := range kept {
		wedges = append(wedges, cluster.WEdge{U: int32(k >> 32), V: int32(k & 0xffffffff), W: w})
	}
	slices.SortFunc(wedges, func(a, b cluster.WEdge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	})
	wg := cluster.NewWeighted(g.N(), wedges)

	// Last bail-out point before the (uninterruptible) clustering stage.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var p *cluster.Partition
	if opts.UseLabelLP {
		p = cluster.LabelPropagation(newWeightedView(g.N(), wedges), 0, opts.Seed)
	} else {
		p = cluster.LouvainWeighted(wg, opts.Seed)
	}
	return &Result{
		Partition:       p,
		ContentEdges:    len(content),
		UnionEdges:      unionEdges,
		SparsifiedEdges: len(kept),
	}, nil
}

// weightedView adapts the sparsified edge list to the unweighted interface
// LabelPropagation expects.
type weightedView struct {
	n   int
	adj [][]int32
}

func newWeightedView(n int, edges []cluster.WEdge) weightedView {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return weightedView{n: n, adj: adj}
}

func (w weightedView) N() int { return w.n }

func (w weightedView) Neighbors(v int32) []int32 { return w.adj[v] }

type contentEdge struct {
	u, v int32
	sim  float64
}

// tfidf holds per-vertex TF-IDF norms and per-keyword document frequencies.
type tfidf struct {
	g     *graph.Graph
	idf   []float64
	norm  []float64
	maxDF int
}

func newTFIDF(g *graph.Graph, maxDF int) *tfidf {
	nWords := g.Vocab().Len()
	df := make([]int, nWords)
	for v := int32(0); v < int32(g.N()); v++ {
		for _, w := range g.Keywords(v) {
			df[w]++
		}
	}
	t := &tfidf{g: g, idf: make([]float64, nWords), norm: make([]float64, g.N()), maxDF: maxDF}
	n := float64(g.N())
	for w, d := range df {
		if d > 0 {
			t.idf[w] = math.Log(1 + n/float64(d))
		}
	}
	for v := int32(0); v < int32(g.N()); v++ {
		s := 0.0
		for _, w := range g.Keywords(v) {
			s += t.idf[w] * t.idf[w]
		}
		t.norm[v] = math.Sqrt(s)
	}
	return t
}

// cosine returns the TF-IDF cosine similarity of u and v's keyword sets.
func (t *tfidf) cosine(u, v int32) float64 {
	if t.norm[u] == 0 || t.norm[v] == 0 {
		return 0
	}
	dot := 0.0
	a, b := t.g.Keywords(u), t.g.Keywords(v)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dot += t.idf[a[i]] * t.idf[a[i]]
			i++
			j++
		}
	}
	return dot / (t.norm[u] * t.norm[v])
}

// contentEdges computes each vertex's top-c content neighbors via the
// keyword inverted index, skipping keywords with document frequency above
// MaxDF for candidate generation (their IDF contribution is negligible and
// they would pair everyone with everyone).
func contentEdges(ctx context.Context, g *graph.Graph, opts Options) ([]contentEdge, error) {
	t := newTFIDF(g, opts.MaxDF)
	// Inverted index keyword -> vertices, df-filtered.
	nWords := g.Vocab().Len()
	inv := make([][]int32, nWords)
	for v := int32(0); v < int32(g.N()); v++ {
		for _, w := range g.Keywords(v) {
			inv[w] = append(inv[w], v)
		}
	}
	var out []contentEdge
	scores := make(map[int32]float64)
	for v := int32(0); v < int32(g.N()); v++ {
		if v%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if t.norm[v] == 0 {
			continue
		}
		for k := range scores {
			delete(scores, k)
		}
		for _, w := range g.Keywords(v) {
			if len(inv[w]) > opts.MaxDF {
				continue
			}
			contrib := t.idf[w] * t.idf[w]
			for _, u := range inv[w] {
				if u != v {
					scores[u] += contrib
				}
			}
		}
		if len(scores) == 0 {
			continue
		}
		type cand struct {
			u   int32
			sim float64
		}
		cands := make([]cand, 0, len(scores))
		for u, dot := range scores {
			cands = append(cands, cand{u, dot / (t.norm[v] * t.norm[u])})
		}
		slices.SortFunc(cands, func(a, b cand) int {
			if a.sim != b.sim {
				return cmp.Compare(b.sim, a.sim)
			}
			return int(a.u) - int(b.u)
		})
		c := opts.ContentK
		if c > len(cands) {
			c = len(cands)
		}
		for _, cd := range cands[:c] {
			if v < cd.u { // emit once per pair; symmetric kNN union
				out = append(out, contentEdge{v, cd.u, cd.sim})
			} else {
				out = append(out, contentEdge{cd.u, v, cd.sim})
			}
		}
	}
	// Dedup (u,v) pairs keeping max sim.
	slices.SortFunc(out, func(a, b contentEdge) int {
		if a.u != b.u {
			return int(a.u) - int(b.u)
		}
		if a.v != b.v {
			return int(a.v) - int(b.v)
		}
		return cmp.Compare(b.sim, a.sim)
	})
	dedup := out[:0]
	for i, e := range out {
		if i > 0 && e.u == dedup[len(dedup)-1].u && e.v == dedup[len(dedup)-1].v {
			continue
		}
		dedup = append(dedup, e)
	}
	return dedup, nil
}
