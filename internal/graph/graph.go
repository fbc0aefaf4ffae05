// Package graph implements the attributed-graph substrate of C-Explorer:
// undirected graphs in CSR form whose vertices carry display names and
// interned keyword sets (the "attributed graph" of the paper, §3.2).
//
// The representation is immutable after construction (use Builder to
// construct), which lets indexes and concurrent queries share a graph
// without locking.
//
// Besides adjacency, a graph carries a lazily materialized per-neighbor
// edge-ID surface (EdgeIDs/EdgeID/EdgeTable, see edgeids.go): every CSR
// adjacency slot maps to the canonical undirected edge index of the edge it
// represents, so edge-indexed engines — the CSR-native truss decomposition
// in particular — address per-edge arrays directly instead of resolving
// {u,v} pairs through a hash map. The surface is built once per graph in
// O(n+m) and shared by every index that needs it.
package graph

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"cexplorer/internal/ds"
)

// Graph is an undirected attributed graph in compressed-sparse-row form.
// Vertex IDs are dense int32 in [0, N()). Adjacency lists are sorted and
// contain no duplicates or self-loops.
type Graph struct {
	offsets []int64 // len n+1
	adj     []int32 // len 2m

	names     []string         // optional; empty when the graph is unnamed
	nameIndex map[string]int32 // lazily shared with builder

	kwOffsets []int32 // len n+1, offsets into kwData
	kwData    []int32 // sorted interned keyword IDs, arena

	vocab *Vocab

	// borrowed marks a graph whose bulk arrays (offsets, adj, keyword
	// arenas, name/vocab string contents) alias caller-owned backing memory
	// — in practice a mapped snapshot file. Such a graph is valid only
	// while the backing stays mapped; overlay materialization deep-copies
	// everything shared so mutation successors never inherit the aliasing.
	borrowed bool

	// edgeIDs is the per-neighbor edge-ID arena (len 2m), parallel to adj;
	// materialized lazily by ensureEdgeIDs (see edgeids.go). edgeIDReady
	// lets observers (Bytes) see the arena without entering the Once.
	edgeIDOnce  sync.Once
	edgeIDs     []int32
	edgeIDReady atomic.Bool

	// scratch pools the query kernels' dense working memory (scratch.go).
	scratch sync.Pool
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// ForEachNeighbor calls fn for every neighbor of v in ascending order; fn
// returning false stops the walk. It exists so Graph and graph.Overlay
// satisfy the same adjacency surface (kcore.Adjacency) and incremental
// index maintenance can run against either.
func (g *Graph) ForEachNeighbor(v int32, fn func(u int32) bool) {
	for _, u := range g.Neighbors(v) {
		if !fn(u) {
			return
		}
	}
}

// FlatNeighbors is the slice-returning fast path of the adjacency surface
// (always available on a frozen graph; see Overlay.FlatNeighbors).
func (g *Graph) FlatNeighbors(v int32) ([]int32, bool) {
	return g.Neighbors(v), true
}

// HasEdge reports whether {u,v} is an edge, via binary search on the shorter
// adjacency list.
func (g *Graph) HasEdge(u, v int32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	return ds.ContainsSorted(g.Neighbors(u), v)
}

// Keywords returns the sorted interned keyword-ID set of v. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) Keywords(v int32) []int32 {
	return g.kwData[g.kwOffsets[v]:g.kwOffsets[v+1]]
}

// HasKeyword reports whether vertex v carries keyword id w.
func (g *Graph) HasKeyword(v, w int32) bool {
	return ds.ContainsSorted(g.Keywords(v), w)
}

// Vocab returns the keyword vocabulary (never nil).
func (g *Graph) Vocab() *Vocab { return g.vocab }

// Name returns the display name of v, or "v<id>" when the graph is unnamed.
func (g *Graph) Name(v int32) string {
	if len(g.names) == 0 {
		return "v" + strconv.Itoa(int(v))
	}
	return g.names[v]
}

// Named reports whether vertices carry display names.
func (g *Graph) Named() bool { return len(g.names) > 0 }

// VertexByName resolves a display name to a vertex ID.
func (g *Graph) VertexByName(name string) (int32, bool) {
	if g.nameIndex == nil {
		return 0, false
	}
	v, ok := g.nameIndex[name]
	return v, ok
}

// KeywordStrings returns v's keywords as strings.
func (g *Graph) KeywordStrings(v int32) []string {
	return g.vocab.Words(g.Keywords(v))
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	maxd := 0
	for v := int32(0); v < int32(g.N()); v++ {
		if d := g.Degree(v); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// Edges calls fn once per undirected edge (u < v). Iteration stops early if
// fn returns false.
func (g *Graph) Edges(fn func(u, v int32) bool) {
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			if !fn(u, v) {
				return
			}
		}
	}
}

// Validate checks structural invariants (sorted, symmetric, loop-free
// adjacency; keyword sets sorted). It is used by tests and by the upload
// path of the server.
func (g *Graph) Validate() error {
	n := int32(g.N())
	for v := int32(0); v < n; v++ {
		nb := g.Neighbors(v)
		for i, u := range nb {
			if u < 0 || u >= n {
				return fmt.Errorf("vertex %d: neighbor %d out of range", v, u)
			}
			if u == v {
				return fmt.Errorf("vertex %d: self loop", v)
			}
			if i > 0 && nb[i-1] >= u {
				return fmt.Errorf("vertex %d: adjacency not strictly sorted", v)
			}
			if !ds.ContainsSorted(g.Neighbors(u), v) {
				return fmt.Errorf("edge {%d,%d} not symmetric", v, u)
			}
		}
		kw := g.Keywords(v)
		for i := 1; i < len(kw); i++ {
			if kw[i-1] >= kw[i] {
				return fmt.Errorf("vertex %d: keywords not strictly sorted", v)
			}
		}
		for _, w := range kw {
			if w < 0 || int(w) >= g.vocab.Len() {
				return fmt.Errorf("vertex %d: keyword id %d out of vocab range", v, w)
			}
		}
	}
	return nil
}

// Borrowed reports whether the graph's bulk arrays alias caller-owned
// backing memory (a mapped snapshot) rather than the Go heap.
func (g *Graph) Borrowed() bool { return g.borrowed }

// BorrowedBytes returns the portion of Bytes that lives in borrowed backing
// memory rather than on the heap: the CSR arrays, keyword arenas, and name
// contents for a borrowed graph, zero otherwise. The lazily built edge-ID
// arena is always heap-allocated, as are map and header structures.
func (g *Graph) BorrowedBytes() int64 {
	if !g.borrowed {
		return 0
	}
	b := int64(len(g.offsets))*8 + int64(len(g.adj))*4
	b += int64(len(g.kwOffsets))*4 + int64(len(g.kwData))*4
	for _, s := range g.names {
		b += int64(len(s))
	}
	return b
}

// Bytes returns an estimate of the memory retained by the graph, used by the
// index-size experiment (E6).
func (g *Graph) Bytes() int64 {
	b := int64(len(g.offsets))*8 + int64(len(g.adj))*4
	b += int64(len(g.kwOffsets))*4 + int64(len(g.kwData))*4
	if g.edgeIDReady.Load() {
		b += int64(len(g.edgeIDs)) * 4
	}
	for _, s := range g.names {
		b += int64(len(s)) + 16
	}
	return b
}

func sortDedup(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
