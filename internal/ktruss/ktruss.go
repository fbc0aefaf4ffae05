// Package ktruss implements truss decomposition and k-truss community
// search (Huang et al., SIGMOD'14), the alternative structure-cohesiveness
// measure §2 of the paper cites ("Other structure cohesiveness measures,
// including connectivity and k-truss, have also been considered"). It plugs
// into C-Explorer through the same CS-algorithm API as Global/Local.
//
// A k-truss is the maximal subgraph in which every edge is supported by at
// least k−2 triangles; the community of a query vertex q is a maximal
// triangle-connected set of trussness-≥k edges incident to q.
//
// The engine is CSR-native: every per-edge array is indexed by the graph's
// canonical edge IDs (graph.EdgeIDs), so neither support counting nor
// peeling ever resolves a {u,v} pair through a hash map. Support counting is
// an oriented triangle enumeration — edges point from the earlier to the
// later endpoint in the degeneracy order, bounding out-degrees by the graph
// degeneracy — sharded across vertex chunks over a configurable worker pool
// with per-worker counters merged into the shared support array. The peel
// loop is the same bucket-queue structure the k-core peeler uses (supports
// only decrease, one bucket at a time), replacing the former
// sort.Slice + binary-heap pipeline: O(m + Σ support) instead of
// O(m log m).
package ktruss

import (
	"context"
	"slices"
	"sync/atomic"

	"cexplorer/internal/ds"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
	"cexplorer/internal/par"
)

// cancelCheckStride is how many edges the context-aware decomposition
// processes between ctx.Err() polls.
const cancelCheckStride = 4096

// countChunk is how many vertices a support-counting worker claims at a
// time. Chunked claiming (rather than one contiguous span per worker)
// load-balances the skewed per-vertex triangle work.
const countChunk = 256

// Decomposition holds per-edge trussness for one graph. Per-edge arrays are
// indexed by the graph's canonical edge IDs (graph.EdgeIDs order, which is
// also the (u<v)-lexicographic order Edges enumerates).
type Decomposition struct {
	g     *graph.Graph
	edges [][2]int32 // edge id -> (u,v), u < v
	truss []int32    // edge id -> trussness (≥ 2)
}

// Decompose computes the trussness of every edge via support peeling, using
// the process-default worker count (par.Workers) for support counting.
func Decompose(g *graph.Graph) *Decomposition {
	d, _ := DecomposeContext(context.Background(), g)
	return d
}

// DecomposeContext is Decompose with cooperative cancellation: support
// counting and the peel loop poll ctx every few thousand edges and return
// ctx.Err() when the request is canceled or past its deadline.
func DecomposeContext(ctx context.Context, g *graph.Graph) (*Decomposition, error) {
	return DecomposeParallel(ctx, g, 0)
}

// DecomposeParallel is DecomposeContext with an explicit worker count for
// the support-counting phase (≤ 0 = process default). The result is
// identical for every worker count; only wall time differs.
func DecomposeParallel(ctx context.Context, g *graph.Graph, workers int) (*Decomposition, error) {
	d := &Decomposition{g: g, edges: g.EdgeTable(), truss: make([]int32, g.M())}
	support, tris, err := countSupport(ctx, g, workers)
	if err != nil {
		return nil, err
	}
	if err := d.peel(ctx, support, tris); err != nil {
		return nil, err
	}
	return d, nil
}

// orientation is the degeneracy-oriented CSR: for each vertex, the neighbors
// later in the degeneracy order, sorted by vertex id, with the canonical
// edge ID carried alongside each slot.
type orientation struct {
	off []int32 // len n+1
	adj []int32 // len m, out-neighbors (ascending vertex id per vertex)
	eid []int32 // len m, canonical edge id of each out-edge
}

// orient builds the degeneracy orientation. Out-degrees are bounded by the
// graph degeneracy, which caps the quadratic term of triangle merging.
//
// The k-core peel here is independent of any core index the caller may
// hold: after a mutation the dataset's core numbers are maintained
// incrementally and no degeneracy order exists for reuse, so the truss
// build always derives its own (an O(n+m) bin sort, a few percent of the
// build).
func orient(g *graph.Graph) orientation {
	n := g.N()
	_, order := kcore.DecomposeOrder(g)
	rank := make([]int32, n)
	for i, v := range order {
		rank[v] = int32(i)
	}
	o := orientation{
		off: make([]int32, n+1),
		adj: make([]int32, g.M()),
		eid: make([]int32, g.M()),
	}
	for v := int32(0); v < int32(n); v++ {
		out := int32(0)
		for _, u := range g.Neighbors(v) {
			if rank[u] > rank[v] {
				out++
			}
		}
		o.off[v+1] = o.off[v] + out
	}
	for v := int32(0); v < int32(n); v++ {
		nb, ids := g.Neighbors(v), g.EdgeIDs(v)
		w := o.off[v]
		for i, u := range nb {
			if rank[u] > rank[v] {
				o.adj[w] = u
				o.eid[w] = ids[i]
				w++
			}
		}
	}
	return o
}

// triangles is the per-edge triangle incidence in CSR form: for edge e, the
// pairs slice holds (other1, other2) edge-ID pairs, one per triangle through
// e, at pair offsets [off[e], off[e+1]). Materializing it costs O(T) memory
// (3 incidences per triangle) and turns the peel loop into a pure array walk
// — no adjacency re-intersection per removed edge.
type triangles struct {
	off   []int64 // len m+1, pair offsets (int64: the 3T total may exceed int32)
	pairs []int32 // len 2·3T, (e1,e2) flattened
}

// countSupport computes the triangle count of every edge by enumerating each
// triangle exactly once from its earliest-ranked vertex: for every oriented
// edge u→v, the common out-neighbors of u and v close triangles whose three
// edge IDs are all at hand during the merge. Vertex chunks are claimed off a
// shared cursor by `workers` goroutines; each worker accumulates counts into
// its own counter array and records the triangles it finds in its own
// triple buffer, so the hot loop takes no locks and no atomics. The counter
// arrays are merged (in parallel, by edge range) and the triple buffers are
// scattered into the triangle CSR at the end.
func countSupport(ctx context.Context, g *graph.Graph, workers int) ([]int32, triangles, error) {
	n, m := g.N(), g.M()
	o := orient(g)
	w := par.Clamp(workers, n)
	// Each worker beyond the first costs a 4m-byte counter replica, so cap
	// the pool by a memory budget: on huge graphs (hundreds of millions of
	// edges) many-core counting would otherwise allocate workers×4m bytes
	// and OOM where the serial engine ran fine — degrade to fewer workers
	// instead.
	const counterBudget = 1 << 30 // 1 GiB across all replicas
	if maxW := counterBudget / (4 * max(m, 1)); w > maxW {
		w = max(maxW, 1)
	}

	counters := make([][]int32, w)
	counters[0] = make([]int32, m)
	for i := 1; i < w; i++ {
		counters[i] = make([]int32, m)
	}
	triples := make([][]int32, w) // flat (euv, euw, evw) per triangle

	var cursor atomic.Int64
	var canceled atomic.Bool
	par.Range(w, w, func(worker, _, _ int) {
		support := counters[worker]
		buf := triples[worker]
		for {
			lo := int(cursor.Add(countChunk)) - countChunk
			if lo >= n || canceled.Load() {
				break
			}
			if ctx.Err() != nil {
				canceled.Store(true)
				break
			}
			hi := min(lo+countChunk, n)
			for u := int32(lo); u < int32(hi); u++ {
				us, ue := o.off[u], o.off[u+1]
				for p := us; p < ue; p++ {
					v, euv := o.adj[p], o.eid[p]
					// Merge out(u) ∩ out(v); each common w closes the
					// triangle {u,v,w} with rank(u) < rank(v) < rank(w) —
					// counted exactly once across all workers.
					i, j := us, o.off[v]
					je := o.off[v+1]
					for i < ue && j < je {
						switch {
						case o.adj[i] < o.adj[j]:
							i++
						case o.adj[i] > o.adj[j]:
							j++
						default:
							euw, evw := o.eid[i], o.eid[j]
							support[euv]++
							support[euw]++
							support[evw]++
							buf = append(buf, euv, euw, evw)
							i++
							j++
						}
					}
				}
			}
		}
		triples[worker] = buf
	})
	if canceled.Load() {
		return nil, triangles{}, ctx.Err()
	}
	if w > 1 {
		par.Range(m, w, func(_, lo, hi int) {
			dst := counters[0]
			for _, src := range counters[1:] {
				for e := lo; e < hi; e++ {
					dst[e] += src[e]
				}
			}
		})
	}
	support := counters[0]

	// Counting-sort the triples into per-edge CSR: support[e] is exactly the
	// number of triangles through e, so the offsets are its prefix sums.
	tris := triangles{off: make([]int64, m+1)}
	for e := 0; e < m; e++ {
		tris.off[e+1] = tris.off[e] + int64(support[e])
	}
	tris.pairs = make([]int32, 2*tris.off[m])
	next := make([]int64, m)
	copy(next, tris.off[:m])
	put := func(e, o1, o2 int32) {
		tris.pairs[2*next[e]] = o1
		tris.pairs[2*next[e]+1] = o2
		next[e]++
	}
	polled := 0
	for _, buf := range triples {
		for t := 0; t < len(buf); t += 3 {
			if polled%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, triangles{}, err
				}
			}
			polled++
			a, b, c := buf[t], buf[t+1], buf[t+2]
			put(a, b, c)
			put(b, a, c)
			put(c, a, b)
		}
	}
	return support, tris, nil
}

// peel removes edges in nondecreasing support order with the bucket-queue
// structure of the k-core peeler: a counting sort seeds the order, and a
// support decrement moves an edge one bucket down by swapping it with its
// bucket's front. Supports only ever decrease and never below the current
// peel level, so position i is final once iteration i reaches it. Removing
// an edge walks its materialized triangle list rather than re-intersecting
// adjacency — O(m + Σ support) total, no heap, no pre-sort, no lookups.
func (d *Decomposition) peel(ctx context.Context, support []int32, tris triangles) error {
	m := len(support)
	if m == 0 {
		return nil
	}
	maxSup := int32(0)
	for _, s := range support {
		if s > maxSup {
			maxSup = s
		}
	}
	// bin[s] = start offset of the support-s block in vert.
	bin := make([]int32, maxSup+2)
	for _, s := range support {
		bin[s+1]++
	}
	for s := int32(1); s <= maxSup+1; s++ {
		bin[s] += bin[s-1]
	}
	vert := make([]int32, m) // edge ids sorted by current support
	pos := make([]int32, m)  // position of each edge id in vert
	next := make([]int32, maxSup+1)
	copy(next, bin[:maxSup+1])
	for id := int32(0); id < int32(m); id++ {
		p := next[support[id]]
		vert[p] = id
		pos[id] = p
		next[support[id]]++
	}

	removed := make([]bool, m)
	for i := 0; i < m; i++ {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		id := vert[i]
		s := support[id]
		removed[id] = true
		d.truss[id] = s + 2
		// Every still-alive triangle through this edge loses it: drop the
		// supports of the two other sides one bucket each, floored at the
		// current level.
		for t := tris.off[id]; t < tris.off[id+1]; t++ {
			e1, e2 := tris.pairs[2*t], tris.pairs[2*t+1]
			if removed[e1] || removed[e2] {
				continue
			}
			if support[e1] > s {
				demote(support, bin, vert, pos, e1)
			}
			if support[e2] > s {
				demote(support, bin, vert, pos, e2)
			}
		}
	}
	return nil
}

// demote moves edge e one support bucket down: swap it with the front of its
// current block, advance the block start, decrement its support.
func demote(support, bin, vert, pos []int32, e int32) {
	se := support[e]
	pe := pos[e]
	pf := bin[se]
	f := vert[pf]
	if e != f {
		vert[pe], vert[pf] = f, e
		pos[e], pos[f] = pf, pe
	}
	bin[se]++
	support[e]--
}

// lookup resolves edge {u,v} to its canonical id via the graph's edge-ID
// surface (binary search on the shorter adjacency list — no hash map). IDs
// follow g.Edges order, which is exactly the order Parts serializes and
// FromParts validates, so decompositions loaded from a snapshot resolve
// through the same surface.
func (d *Decomposition) lookup(u, v int32) (int32, bool) {
	return d.g.EdgeID(u, v)
}

// Trussness returns the trussness of edge {u,v}; ok is false if not an edge.
func (d *Decomposition) Trussness(u, v int32) (int32, bool) {
	id, ok := d.lookup(u, v)
	if !ok {
		return 0, false
	}
	return d.truss[id], true
}

// MaxTruss returns the maximum edge trussness (0 for edgeless graphs).
func (d *Decomposition) MaxTruss() int32 {
	var mx int32
	for _, t := range d.truss {
		if t > mx {
			mx = t
		}
	}
	return mx
}

// Graph returns the decomposed graph.
func (d *Decomposition) Graph() *graph.Graph { return d.g }

// Community is one triangle-connected k-truss community: its vertex set and
// the edge class that defines it.
type Community struct {
	Vertices []int32    // ascending
	Edges    [][2]int32 // the triangle-connected edge class, (u<v) pairs
}

// Communities returns the triangle-connected k-truss communities containing
// q as ascending vertex sets, largest first. Following Huang et al., two
// edges are connected when they share a triangle whose three edges all have
// trussness ≥ k.
func (d *Decomposition) Communities(q int32, k int32) [][]int32 {
	out, _ := d.CommunitiesContext(context.Background(), q, k)
	return out
}

// CommunitiesContext is Communities with cooperative cancellation: the
// triangle-connectivity BFS polls ctx every few thousand edge expansions.
func (d *Decomposition) CommunitiesContext(ctx context.Context, q int32, k int32) ([][]int32, error) {
	full, err := d.communities(ctx, q, k, false)
	if err != nil || full == nil {
		return nil, err
	}
	out := make([][]int32, len(full))
	for i, c := range full {
		out[i] = c.Vertices
	}
	return out, nil
}

// CommunitiesWithEdges is Communities with the defining edge classes
// retained (used by analysis and by invariant tests).
func (d *Decomposition) CommunitiesWithEdges(q int32, k int32) []Community {
	out, _ := d.communities(context.Background(), q, k, true)
	return out
}

// communities finds the edge classes around q; the classes' edge lists are
// collected only when withEdges asks for them.
func (d *Decomposition) communities(ctx context.Context, q int32, k int32, withEdges bool) ([]Community, error) {
	if q < 0 || int(q) >= d.g.N() || k < 2 {
		return nil, nil
	}
	g := d.g
	s := g.AcquireScratch()
	defer s.Release()
	// Edge classes partition the trussness-≥k edges, so one visited set
	// spans the whole call; the vertex set restarts per class.
	visited, verts := &s.Edges, &s.Seen
	visited.Reset(g.M())
	var out []Community
	expansions := 0
	qnb, qids := g.Neighbors(q), g.EdgeIDs(q)
	for qi := range qnb {
		seed := qids[qi]
		if d.truss[seed] < k || visited.Has(seed) {
			continue
		}
		// BFS over triangle-adjacent edges of trussness ≥ k.
		verts.Reset(g.N())
		members := s.List[:0]
		var classIDs []int32
		queue := append(s.Queue[:0], seed)
		visited.Add(seed)
		for len(queue) > 0 {
			if expansions%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			expansions++
			id := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range d.edges[id] {
				if !verts.Has(v) {
					verts.Add(v)
					members = append(members, v)
				}
			}
			if withEdges {
				classIDs = append(classIDs, id)
			}
			u, w := d.edges[id][0], d.edges[id][1]
			forEachCommonEdge(g.Neighbors(u), g.EdgeIDs(u), g.Neighbors(w), g.EdgeIDs(w),
				func(_, e1, e2 int32) {
					if d.truss[e1] < k || d.truss[e2] < k {
						return
					}
					if !visited.Has(e1) {
						visited.Add(e1)
						queue = append(queue, e1)
					}
					if !visited.Has(e2) {
						visited.Add(e2)
						queue = append(queue, e2)
					}
				})
		}
		s.Queue, s.List = queue, members
		c := Community{Vertices: verts.Ascending(members)}
		if withEdges {
			// Edge ids ascend in (u<v)-lexicographic order.
			slices.Sort(classIDs)
			c.Edges = make([][2]int32, len(classIDs))
			for i, id := range classIDs {
				c.Edges[i] = d.edges[id]
			}
		}
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b Community) int {
		if len(a.Vertices) != len(b.Vertices) {
			return len(b.Vertices) - len(a.Vertices)
		}
		return int(a.Vertices[0] - b.Vertices[0])
	})
	return out, nil
}

// forEachCommonEdge intersects two sorted adjacency lists, calling fn with
// each common neighbor w and the canonical edge IDs of (a,w) and (b,w)
// taken from the parallel edge-ID spans — triangle enumeration without a
// single edge lookup. Comparable sizes intersect by linear merge; skewed
// pairs (a hub against a low-degree vertex) probe the longer list by binary
// search instead, turning O(d_max) into O(d_min·log d_max).
func forEachCommonEdge(nbA, eidA, nbB, eidB []int32, fn func(w, ea, eb int32)) {
	if len(nbA) > len(nbB) {
		nbA, nbB = nbB, nbA
		eidA, eidB = eidB, eidA
		inner := fn
		fn = func(w, ea, eb int32) { inner(w, eb, ea) }
	}
	if len(nbA)*16 < len(nbB) {
		for i, w := range nbA {
			if j, ok := ds.IndexSorted(nbB, w); ok {
				fn(w, eidA[i], eidB[j])
			}
		}
		return
	}
	i, j := 0, 0
	for i < len(nbA) && j < len(nbB) {
		switch {
		case nbA[i] < nbB[j]:
			i++
		case nbA[i] > nbB[j]:
			j++
		default:
			fn(nbA[i], eidA[i], eidB[j])
			i++
			j++
		}
	}
}
