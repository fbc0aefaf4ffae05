package graph

import (
	"slices"

	"cexplorer/internal/ds"
)

// Subgraph is a materialized induced subgraph with local vertex IDs plus the
// mapping back to the parent graph. It is what community-search algorithms
// return and what metrics/layout consume.
type Subgraph struct {
	Parent   *Graph
	Vertices []int32 // parent IDs, sorted ascending
	off      []int32 // local CSR: adj[off[l]:off[l+1]] is l's adjacency, sorted
	adj      []int32
}

// Induce materializes the subgraph of g induced by vertices (parent IDs;
// duplicates are removed, order normalized to ascending).
func (g *Graph) Induce(vertices []int32) *Subgraph {
	vs := sortDedup(slices.Clone(vertices))
	s := g.AcquireScratch()
	defer s.Release()
	member, local := &s.In, s.Val
	member.Reset(g.N())
	for i, v := range vs {
		member.Add(v)
		local[v] = int32(i)
	}
	off := make([]int32, len(vs)+1)
	var adj []int32
	for i, v := range vs {
		for _, u := range g.Neighbors(v) {
			if member.Has(u) {
				adj = append(adj, local[u])
			}
		}
		off[i+1] = int32(len(adj))
	}
	return &Subgraph{Parent: g, Vertices: vs, off: off, adj: adj}
}

// N returns the number of vertices in the subgraph.
func (s *Subgraph) N() int { return len(s.Vertices) }

// M returns the number of edges in the subgraph.
func (s *Subgraph) M() int { return len(s.adj) / 2 }

// LocalID maps a parent vertex ID to the local ID; ok is false for
// non-members.
func (s *Subgraph) LocalID(parent int32) (int32, bool) {
	l, ok := slices.BinarySearch(s.Vertices, parent)
	return int32(l), ok
}

// ParentID maps a local ID back to the parent graph.
func (s *Subgraph) ParentID(local int32) int32 { return s.Vertices[local] }

// Degree returns the local degree of the local vertex l.
func (s *Subgraph) Degree(l int32) int { return int(s.off[l+1] - s.off[l]) }

// Neighbors returns the local adjacency of local vertex l.
func (s *Subgraph) Neighbors(l int32) []int32 { return s.adj[s.off[l]:s.off[l+1]] }

// MinDegree returns the minimum degree inside the subgraph (0 for empty).
func (s *Subgraph) MinDegree() int {
	if s.N() == 0 {
		return 0
	}
	md := s.Degree(0)
	for l := 1; l < s.N(); l++ {
		if d := s.Degree(int32(l)); d < md {
			md = d
		}
	}
	return md
}

// AvgDegree returns 2M/N (0 for the empty subgraph).
func (s *Subgraph) AvgDegree() float64 {
	if s.N() == 0 {
		return 0
	}
	return 2 * float64(s.M()) / float64(s.N())
}

// IsConnected reports whether the subgraph is connected (vacuously true for
// a single vertex, false for empty).
func (s *Subgraph) IsConnected() bool {
	n := s.N()
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	stack := []int32{0}
	seen[0] = true
	cnt := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range s.Neighbors(v) {
			if !seen[u] {
				seen[u] = true
				cnt++
				stack = append(stack, u)
			}
		}
	}
	return cnt == n
}

// SharedKeywords returns the intersection of all members' keyword sets,
// optionally restricted to the filter set (nil = no restriction). This is
// L(Gq, S) from Problem 1 of the paper.
func (s *Subgraph) SharedKeywords(filter []int32) []int32 {
	if s.N() == 0 {
		return nil
	}
	g := s.Parent
	shared := make([]int32, 0, 8)
	first := g.Keywords(s.Vertices[0])
	if filter != nil {
		shared = ds.IntersectSortedInto(shared, first, filter)
	} else {
		shared = append(shared, first...)
	}
	buf := make([]int32, 0, len(shared))
	for _, v := range s.Vertices[1:] {
		if len(shared) == 0 {
			return shared
		}
		buf = ds.IntersectSortedInto(buf, shared, g.Keywords(v))
		shared, buf = buf, shared
	}
	return shared
}
