package graph

import (
	"math"
	"slices"

	"cexplorer/internal/ds"
)

// Marks is a set over a dense id space [0,n) kept as epoch stamps: i is a
// member while stamp[i] equals the current epoch, so emptying the set is one
// increment however many ids it held.
type Marks struct {
	stamp []int32
	epoch int32 // ≥ 1 once Reset has run; 0 never marks a member
}

// Reset empties the set and sizes it for ids in [0,n).
func (m *Marks) Reset(n int) {
	if len(m.stamp) < n {
		m.stamp, m.epoch = make([]int32, n), 0
	}
	if m.epoch == math.MaxInt32 {
		clear(m.stamp)
		m.epoch = 0
	}
	m.epoch++
}

// Set makes ids, all in [0,n), the members.
func (m *Marks) Set(n int, ids []int32) {
	m.Reset(n)
	for _, i := range ids {
		m.stamp[i] = m.epoch
	}
}

// Has reports whether i is a member.
func (m *Marks) Has(i int32) bool { return m.stamp[i] == m.epoch }

// Add inserts i.
func (m *Marks) Add(i int32) { m.stamp[i] = m.epoch }

// Remove deletes i.
func (m *Marks) Remove(i int32) { m.stamp[i] = 0 }

// Ascending returns the ids of members as a fresh ascending slice. m must
// hold exactly those ids, each listed once. A list filling at least
// 1/scanShare of the id range it spans is read off the stamps in one sweep
// of that range; a sparser one is sorted.
func (m *Marks) Ascending(members []int32) []int32 {
	const scanShare = 32
	out := make([]int32, len(members))
	if len(members) == 0 {
		return out
	}
	lo, hi := members[0], members[0]
	for _, v := range members {
		lo, hi = min(lo, v), max(hi, v)
	}
	if len(members)*scanShare < int(hi-lo)+1 {
		copy(out, members)
		slices.Sort(out)
		return out
	}
	j := 0
	for i, s := range m.stamp[lo : hi+1] {
		if s == m.epoch {
			out[j] = lo + int32(i)
			j++
		}
	}
	return out
}

// Scratch is the dense working memory of one query kernel on one graph:
// vertex sets, a per-vertex counter, worklists, a vertex heap, an edge set
// and a keyword counter, every one reset in O(1) or O(touched). The k-core
// peel, the connectivity walks of Global, Local and k-truss search, subgraph
// induction, diameters and keyword counting all run on it, so a cache-miss
// read allocates its answer and little else.
//
// A Scratch belongs to the graph that handed it out and to one goroutine at
// a time: take one with AcquireScratch, give it back with Release. The
// fields are free for the holder to use; nothing in them survives Release.
type Scratch struct {
	g *Graph

	In, Seen, Aux Marks // vertex sets
	Edges         Marks // edge-id set, sized by the first kernel that needs it

	// Val holds one counter per vertex (an induced degree, a connection
	// count, a local id). A kernel reads only entries it wrote itself.
	Val []int32

	Queue []int32     // worklist
	List  []int32     // visit order or member list
	Heap  ds.PairHeap // vertex priority queue, sized by the first kernel that needs it

	kwCount   []int32 // per keyword id; all zero between calls
	kwTouched []int32
}

// AcquireScratch checks a Scratch out of g's pool, building one on a miss.
// The pool lives and dies with the (immutable) graph, so every dataset
// version sizes its own scratch exactly and drops it when it is collected.
func (g *Graph) AcquireScratch() *Scratch {
	if s, ok := g.scratch.Get().(*Scratch); ok {
		return s
	}
	return &Scratch{g: g, Val: make([]int32, g.N())}
}

// Release returns s to its graph's pool.
func (s *Scratch) Release() { s.g.scratch.Put(s) }

// Graph returns the graph s belongs to.
func (s *Scratch) Graph() *Graph { return s.g }
