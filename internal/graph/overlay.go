package graph

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Overlay is the mutable edit buffer over an immutable CSR Graph: the
// dynamic-graph substrate. A batch of streaming mutations (edge inserts,
// edge deletes, vertex additions) accumulates in the overlay — which stays
// queryable throughout, so incremental index maintenance can read the
// evolving adjacency op by op — and Materialize freezes the result into a
// fresh immutable Graph sharing every untouched arena with the base.
//
// The base graph is never modified: concurrent readers of the base (pinned
// query engines, old dataset versions) are unaffected by any overlay
// activity. An Overlay itself is a single-goroutine object.
//
// Typed sentinel errors distinguish structurally invalid requests
// (ErrVertexRange, ErrSelfLoop) from state conflicts (ErrEdgeExists,
// ErrEdgeMissing), so callers can map them to distinct API failures.
var (
	ErrEdgeExists  = errors.New("edge already present")
	ErrEdgeMissing = errors.New("edge not present")
	ErrVertexRange = errors.New("vertex out of range")
	ErrSelfLoop    = errors.New("self loop")
)

// Overlay accumulates mutations over a base graph.
type Overlay struct {
	base  *Graph
	baseN int
	m     int

	// Per-vertex sorted patch lists, populated only for touched vertices.
	// dels entries always refer to base edges; adds entries never duplicate
	// base edges — re-adding a deleted base edge cancels the deletion.
	adds map[int32][]int32
	dels map[int32][]int32

	// Appended vertices (ids baseN, baseN+1, ...).
	newNames []string
	newKw    [][]int32
	anyName  bool

	// vocab starts as the base's; the first AddVertex that interns an
	// unseen word clones it (copy-on-write), so the base vocabulary is
	// never mutated under concurrent readers.
	vocab      *Vocab
	vocabOwned bool

	// touchedHint is a small superset of the vertices with patch entries,
	// kept so ForEachNeighbor's untouched fast path costs a short scan
	// instead of two map lookups. Once a batch touches more vertices than
	// the hint holds, hintOverflow switches membership back to the maps.
	touchedHint  []int32
	hintOverflow bool
}

const touchedHintCap = 48

func (o *Overlay) noteTouched(v int32) {
	if o.hintOverflow {
		return
	}
	if slices.Contains(o.touchedHint, v) {
		return
	}
	if len(o.touchedHint) >= touchedHintCap {
		o.hintOverflow = true
		return
	}
	o.touchedHint = append(o.touchedHint, v)
}

// touched reports whether v may have patched adjacency (never a false
// negative; false positives just take the merge path).
func (o *Overlay) touched(v int32) bool {
	if o.hintOverflow {
		if _, ok := o.adds[v]; ok {
			return true
		}
		_, ok := o.dels[v]
		return ok
	}
	return slices.Contains(o.touchedHint, v)
}

// NewOverlay returns an empty overlay over g.
func NewOverlay(g *Graph) *Overlay {
	return &Overlay{
		base:  g,
		baseN: g.N(),
		m:     g.M(),
		adds:  make(map[int32][]int32),
		dels:  make(map[int32][]int32),
		vocab: g.vocab,
	}
}

// N returns the current vertex count (base plus appended).
func (o *Overlay) N() int { return o.baseN + len(o.newNames) }

// M returns the current undirected edge count.
func (o *Overlay) M() int { return o.m }

// Dirty reports whether any mutation has been applied.
func (o *Overlay) Dirty() bool {
	return len(o.adds) > 0 || len(o.dels) > 0 || len(o.newNames) > 0
}

// VerticesAdded returns how many vertices the overlay appended.
func (o *Overlay) VerticesAdded() int { return len(o.newNames) }

// EdgesTouched returns how many vertices have patched adjacency.
func (o *Overlay) EdgesTouched() int { return len(o.adds) + len(o.dels) }

// Degree returns the current degree of v.
func (o *Overlay) Degree(v int32) int {
	d := len(o.adds[v])
	if v < int32(o.baseN) {
		d += o.base.Degree(v) - len(o.dels[v])
	}
	return d
}

// HasEdge reports whether {u,v} is currently an edge.
func (o *Overlay) HasEdge(u, v int32) bool {
	if containsSorted(o.adds[u], v) {
		return true
	}
	if u >= int32(o.baseN) || v >= int32(o.baseN) {
		return false
	}
	return o.base.HasEdge(u, v) && !containsSorted(o.dels[u], v)
}

// FlatNeighbors returns v's adjacency as a plain slice when the overlay
// holds no patch for v (the overwhelmingly common case during incremental
// maintenance), letting hot kernels iterate without per-neighbor callback
// dispatch. ok is false for patched or appended vertices; callers fall
// back to ForEachNeighbor.
func (o *Overlay) FlatNeighbors(v int32) ([]int32, bool) {
	if v < int32(o.baseN) && !o.touched(v) {
		return o.base.Neighbors(v), true
	}
	return nil, false
}

// ForEachNeighbor calls fn for every current neighbor of v in ascending
// order; fn returning false stops the walk early. Incremental index
// maintenance scans thousands of untouched vertices around a small patch
// set, so the untouched case must not pay map-lookup costs: a small batch
// keeps its touched vertices in a scan-friendly list consulted first.
func (o *Overlay) ForEachNeighbor(v int32, fn func(u int32) bool) {
	if v < int32(o.baseN) && !o.touched(v) {
		for _, u := range o.base.Neighbors(v) {
			if !fn(u) {
				return
			}
		}
		return
	}
	var base []int32
	if v < int32(o.baseN) {
		base = o.base.Neighbors(v)
	}
	adds := o.adds[v]
	dels := o.dels[v]
	i, j := 0, 0
	for i < len(base) || j < len(adds) {
		var next int32
		if j >= len(adds) || (i < len(base) && base[i] < adds[j]) {
			next = base[i]
			i++
			if containsSorted(dels, next) {
				continue
			}
		} else {
			next = adds[j]
			j++
		}
		if !fn(next) {
			return
		}
	}
}

// AddVertex appends a vertex with the given display name (may be empty) and
// keywords, returning its id.
func (o *Overlay) AddVertex(name string, keywords []string) int32 {
	id := int32(o.N())
	o.newNames = append(o.newNames, name)
	if name != "" {
		o.anyName = true
	}
	if len(keywords) > 0 && !o.vocabOwned {
		for _, w := range keywords {
			if _, ok := o.vocab.ID(w); !ok {
				o.vocab = o.vocab.Clone()
				o.vocabOwned = true
				break
			}
		}
	}
	o.newKw = append(o.newKw, o.vocab.InternAll(keywords))
	return id
}

// AddEdge inserts the undirected edge {u,v}. It fails with ErrEdgeExists
// when the edge is already present, ErrSelfLoop on u==v, and ErrVertexRange
// on out-of-range endpoints.
func (o *Overlay) AddEdge(u, v int32) error {
	if err := o.checkEndpoints(u, v); err != nil {
		return err
	}
	if o.HasEdge(u, v) {
		return fmt.Errorf("{%d,%d}: %w", u, v, ErrEdgeExists)
	}
	if u < int32(o.baseN) && v < int32(o.baseN) && o.base.HasEdge(u, v) {
		// Re-adding a base edge the overlay had deleted: cancel the delete.
		patchOut(o.dels, u, v)
		patchOut(o.dels, v, u)
	} else {
		o.adds[u] = insertSorted(o.adds[u], v)
		o.adds[v] = insertSorted(o.adds[v], u)
	}
	o.noteTouched(u)
	o.noteTouched(v)
	o.m++
	return nil
}

// RemoveEdge deletes the undirected edge {u,v}. It fails with
// ErrEdgeMissing when no such edge exists.
func (o *Overlay) RemoveEdge(u, v int32) error {
	if err := o.checkEndpoints(u, v); err != nil {
		return err
	}
	if !o.HasEdge(u, v) {
		return fmt.Errorf("{%d,%d}: %w", u, v, ErrEdgeMissing)
	}
	if containsSorted(o.adds[u], v) {
		patchOut(o.adds, u, v)
		patchOut(o.adds, v, u)
	} else {
		o.dels[u] = insertSorted(o.dels[u], v)
		o.dels[v] = insertSorted(o.dels[v], u)
	}
	o.noteTouched(u)
	o.noteTouched(v)
	o.m--
	return nil
}

func (o *Overlay) checkEndpoints(u, v int32) error {
	n := int32(o.N())
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("{%d,%d} with n=%d: %w", u, v, n, ErrVertexRange)
	}
	if u == v {
		return fmt.Errorf("{%d,%d}: %w", u, v, ErrSelfLoop)
	}
	return nil
}

// Materialize freezes the overlay into a new immutable Graph. Untouched
// arenas — keyword offsets and data, names, the name index, and the
// vocabulary — are shared with the base whenever the overlay did not touch
// them, so an edges-only batch costs one adjacency rebuild and nothing
// else. The overlay remains usable afterwards, but further mutation does
// not affect already-materialized graphs. Derived per-edge state (the
// edge-ID surface, see edgeids.go) is deliberately NOT shared: edge
// mutation renumbers canonical edge IDs, so each materialized graph
// lazily builds its own surface on first edge-indexed use. Per-slot state,
// which does not depend on edge numbering, carries across through
// CarrySlots.
func (o *Overlay) Materialize() (*Graph, error) {
	n := o.N()
	if n == 0 {
		return nil, fmt.Errorf("graph overlay: empty vertex set")
	}

	// Adjacency. A typical batch patches a handful of vertices out of tens
	// of thousands, so the rebuild is span-structured: the sorted list of
	// touched vertices cuts the CSR arenas into untouched spans (bulk
	// offset shift + bulk adjacency copy) separated by per-vertex merges.
	// No per-vertex map lookups, no per-vertex copy calls.
	touched := o.touchedBase()
	offsets := make([]int64, n+1)
	adj := make([]int32, int64(2*o.m))
	raw := o.base.Raw()
	var (
		cur  int32 // next base vertex to bulk-copy
		off  int64 // write cursor into adj
		base = int32(o.baseN)
	)
	copySpan := func(until int32) { // bulk-copy untouched vertices [cur, until)
		if cur >= until {
			return
		}
		lo, hi := raw.Offsets[cur], raw.Offsets[until]
		copy(adj[off:off+(hi-lo)], raw.Adj[lo:hi])
		shift := off - lo
		for v := cur; v < until; v++ {
			offsets[v] = raw.Offsets[v] + shift
		}
		off += hi - lo
		cur = until
	}
	for _, tv := range touched {
		copySpan(tv)
		offsets[tv] = off
		o.ForEachNeighbor(tv, func(u int32) bool {
			adj[off] = u
			off++
			return true
		})
		cur = tv + 1
	}
	copySpan(base)
	for v := base; v < int32(n); v++ { // appended vertices (never in touched)
		offsets[v] = off
		o.ForEachNeighbor(v, func(u int32) bool {
			adj[off] = u
			off++
			return true
		})
	}
	offsets[n] = off
	if off != int64(len(adj)) {
		return nil, fmt.Errorf("graph overlay: internal inconsistency: wrote %d of %d adjacency entries", off, len(adj))
	}

	g := &Graph{offsets: offsets, adj: adj, vocab: o.vocab}
	if len(o.newNames) == 0 {
		// No vertex growth: every per-vertex arena is unchanged; share.
		g.kwOffsets = raw.KwOffsets
		g.kwData = raw.KwData
		g.names = o.base.names
		g.nameIndex = o.base.nameIndex
		return o.disown(g), nil
	}

	// Vertex growth: extend keyword arenas and (when named) the name table.
	g.kwOffsets = make([]int32, n+1)
	copy(g.kwOffsets, raw.KwOffsets)
	total := len(raw.KwData)
	for _, kw := range o.newKw {
		total += len(kw)
	}
	g.kwData = make([]int32, 0, total)
	g.kwData = append(g.kwData, raw.KwData...)
	for i, kw := range o.newKw {
		g.kwData = append(g.kwData, kw...)
		g.kwOffsets[o.baseN+1+i] = int32(len(g.kwData))
	}
	if o.base.Named() || o.anyName {
		g.names = make([]string, 0, n)
		if o.base.Named() {
			g.names = append(g.names, o.base.names...)
		} else {
			g.names = g.names[:o.baseN]
		}
		g.names = append(g.names, o.newNames...)
		g.nameIndex = make(map[string]int32, len(o.base.nameIndex)+len(o.newNames))
		for name, id := range o.base.nameIndex {
			g.nameIndex[name] = id
		}
		for i, name := range o.newNames {
			if name == "" {
				continue
			}
			if _, dup := g.nameIndex[name]; !dup {
				g.nameIndex[name] = int32(o.baseN + i)
			}
		}
	}
	return o.disown(g), nil
}

// touchedBase returns the base vertices with patched adjacency, ascending.
// Appended vertices (ids ≥ baseN) are excluded: Materialize writes their
// adjacency regardless of patch state.
func (o *Overlay) touchedBase() []int32 {
	touched := make([]int32, 0, len(o.adds)+len(o.dels))
	for v := range o.adds {
		if v < int32(o.baseN) {
			touched = append(touched, v)
		}
	}
	for v := range o.dels {
		if _, dup := o.adds[v]; !dup && v < int32(o.baseN) {
			touched = append(touched, v)
		}
	}
	slices.Sort(touched)
	return touched
}

// CarrySlots carries a per-slot array across the batch: base is parallel to
// the base graph's adjacency arena (one value per adjacency slot, so both
// directions of an edge), and the result is parallel to g's, where g is the
// graph Materialize returned with no mutation since. Every edge present in
// both graphs keeps its base value in both of its slots; every edge the
// batch added reads zero, for the caller to fill. The untouched vertices'
// spans are bulk copies — the spans Materialize copies — and only the
// touched vertices' lists are merged against their base lists.
func (o *Overlay) CarrySlots(g *Graph, base []int32) []int32 {
	out := make([]int32, len(g.adj))
	bo := o.base.offsets
	var cur int32 // next base vertex to bulk-copy
	copySpan := func(until int32) {
		if cur < until {
			copy(out[g.offsets[cur]:], base[bo[cur]:bo[until]])
			cur = until
		}
	}
	for _, tv := range o.touchedBase() {
		copySpan(tv)
		bn, bs := o.base.Neighbors(tv), base[bo[tv]:bo[tv+1]]
		dst := out[g.offsets[tv]:g.offsets[tv+1]]
		j := 0
		for i, x := range g.Neighbors(tv) {
			for j < len(bn) && bn[j] < x {
				j++
			}
			if j < len(bn) && bn[j] == x {
				dst[i] = bs[j]
				j++
			}
		}
		cur = tv + 1
	}
	copySpan(int32(o.baseN))
	return out
}

// disown deep-copies every arena g may still share with a borrowed base, so
// a mutation successor of a mapped-snapshot graph is fully heap-owned and
// survives the mapping being unmapped. The adjacency arrays are always
// freshly built by Materialize; what can alias the mapping are the keyword
// arenas (shared headers on the no-growth path), the name and vocabulary
// string CONTENTS (header copies via append still point into the mapped
// blob), and map keys derived from those strings. For an owned base this is
// a no-op.
func (o *Overlay) disown(g *Graph) *Graph {
	if !o.base.borrowed {
		return g
	}
	g.kwOffsets = slices.Clone(g.kwOffsets)
	g.kwData = slices.Clone(g.kwData)
	if len(g.names) > 0 {
		names := make([]string, len(g.names))
		for i, s := range g.names {
			names[i] = strings.Clone(s)
		}
		g.names = names
		g.nameIndex = make(map[string]int32, len(names))
		for v, name := range names {
			if name == "" {
				continue
			}
			if _, dup := g.nameIndex[name]; !dup {
				g.nameIndex[name] = int32(v)
			}
		}
	}
	g.vocab = g.vocab.CloneOwned()
	return g
}

// containsSorted is a binary-search membership test on a sorted slice.
func containsSorted(s []int32, v int32) bool {
	_, ok := slices.BinarySearch(s, v)
	return ok
}

// insertSorted inserts v into sorted s (v must not already be present).
func insertSorted(s []int32, v int32) []int32 {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(s, i, v)
}

// patchOut removes v from the sorted patch list of key, dropping the map
// entry entirely when the list empties so the vertex reads as untouched
// again (Materialize bulk-copies untouched adjacency).
func patchOut(m map[int32][]int32, key, v int32) {
	s := m[key]
	i, ok := slices.BinarySearch(s, v)
	if !ok {
		return
	}
	s = slices.Delete(s, i, i+1)
	if len(s) == 0 {
		delete(m, key)
	} else {
		m[key] = s
	}
}
