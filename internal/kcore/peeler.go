package kcore

import "cexplorer/internal/graph"

// Peeler finds connected k-cores of induced subgraphs on a graph.Scratch,
// without allocating anything but its answers. It is the verification
// workhorse of the ACQ engine: every candidate keyword set is checked by
// peeling the keyword-induced vertex set down to its k-core (paper §3.2,
// "verify whether a keyword combination results in an AC"). The Local
// baseline uses it on expansion frontiers too.
//
// A peel uses the scratch's In set (the working set, then the survivors),
// Seen (the component walk), Val (induced degrees, written only for vertices
// of the working set), Queue and List; the holder's Aux set and every other
// Val entry are left alone. A Peeler is as single-goroutine as the Scratch
// under it.
type Peeler struct{ s *graph.Scratch }

// NewPeeler returns a Peeler working on s, for s's graph.
func NewPeeler(s *graph.Scratch) Peeler { return Peeler{s} }

// peel runs the k-core peel over vertices (no duplicates) and leaves the
// survivors in the working set In.
func (p Peeler) peel(vertices []int32, k int32) {
	s, g := p.s, p.s.Graph()
	s.In.Set(g.N(), vertices)
	// Degrees are computed with the full set marked: evictions must not
	// start earlier, or a vertex initialized after an eviction would be
	// decremented twice for the same neighbor.
	queue := s.Queue[:0]
	for _, v := range vertices {
		d := int32(0)
		for _, u := range g.Neighbors(v) {
			if s.In.Has(u) {
				d++
			}
		}
		s.Val[v] = d
		if d < k {
			queue = append(queue, v)
		}
	}
	for _, v := range queue {
		s.In.Remove(v)
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range g.Neighbors(v) {
			if !s.In.Has(u) {
				continue
			}
			s.Val[u]--
			if s.Val[u] < k {
				s.In.Remove(u)
				queue = append(queue, u)
			}
		}
	}
	s.Queue = queue
}

// component walks the connected component of start inside the working set,
// breadth first, and returns it in visit order (nil when start is not in
// the set). The list aliases the scratch's List and the same vertices are
// left in Seen. The walk takes each vertex out of the working set as it
// reaches it, so one stamp read per edge tells "member, not yet reached".
func (p Peeler) component(start int32) []int32 {
	s, g := p.s, p.s.Graph()
	if !s.In.Has(start) {
		return nil
	}
	s.Seen.Reset(g.N())
	s.In.Remove(start)
	s.Seen.Add(start)
	list := append(s.List[:0], start)
	for head := 0; head < len(list); head++ {
		for _, u := range g.Neighbors(list[head]) {
			if s.In.Has(u) {
				s.In.Remove(u)
				s.Seen.Add(u)
				list = append(list, u)
			}
		}
	}
	s.List = list
	return list
}

// ConnectedKCoreContaining returns, ascending, the connected component of q
// in the k-core of the subgraph induced by vertices, or nil if q does not
// survive the peel.
func (p Peeler) ConnectedKCoreContaining(vertices []int32, k int32, q int32) []int32 {
	return p.ConnectedKCoreContainingAll(vertices, k, []int32{q})
}

// ConnectedKCoreContainingAll is the multi-query-vertex variant: all of qs
// must be among vertices, survive the peel and lie in one component; that
// component is returned ascending, else nil.
func (p Peeler) ConnectedKCoreContainingAll(vertices []int32, k int32, qs []int32) []int32 {
	if len(qs) == 0 {
		return nil
	}
	p.peel(vertices, k)
	comp := p.component(qs[0])
	if comp == nil {
		return nil
	}
	for _, q := range qs[1:] {
		if !p.s.Seen.Has(q) {
			return nil
		}
	}
	return p.s.Seen.Ascending(comp)
}
