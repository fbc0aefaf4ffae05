package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomGraph builds a random simple graph for the edge-ID property tests.
func randomGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(40)
	b := NewBuilder(n, 0)
	b.AddVertexIDs(int32(n - 1))
	for i := 0; i < 4*n; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.MustBuild()
}

// TestEdgeIDsCanonicalOrder: edge IDs are dense, assigned in the order
// Edges enumerates ((u<v)-lexicographic), and both adjacency slots of an
// edge carry the same id.
func TestEdgeIDsCanonicalOrder(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed)
		next := int32(0)
		for u := int32(0); u < int32(g.N()); u++ {
			for i, v := range g.Neighbors(u) {
				if v < u {
					continue
				}
				if id := g.EdgeIDs(u)[i]; id != next {
					t.Errorf("seed %d: edge {%d,%d} has id %d, want %d", seed, u, v, id, next)
					return false
				}
				j, _ := slices.BinarySearch(g.Neighbors(v), u)
				if rid := g.EdgeIDs(v)[j]; rid != next {
					t.Errorf("seed %d: reverse slot of {%d,%d} has id %d, want %d", seed, u, v, rid, next)
					return false
				}
				next++
			}
		}
		return int(next) == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeIDsSpansParallelToNeighbors: EdgeIDs(v) lines up slot-for-slot
// with Neighbors(v), and EdgeTable inverts the surface.
func TestEdgeIDsSpansParallelToNeighbors(t *testing.T) {
	g := randomGraph(7)
	table := g.EdgeTable()
	if len(table) != g.M() {
		t.Fatalf("EdgeTable has %d entries for m=%d", len(table), g.M())
	}
	for v := int32(0); v < int32(g.N()); v++ {
		nb, ids := g.Neighbors(v), g.EdgeIDs(v)
		if len(nb) != len(ids) {
			t.Fatalf("vertex %d: %d neighbors, %d edge-id slots", v, len(nb), len(ids))
		}
		for i, u := range nb {
			e := table[ids[i]]
			lo, hi := v, u
			if lo > hi {
				lo, hi = hi, lo
			}
			if e != [2]int32{lo, hi} {
				t.Fatalf("vertex %d slot %d: edge id %d maps to %v, want {%d,%d}", v, i, ids[i], e, lo, hi)
			}
		}
	}
	// Table is (u<v)-lexicographically sorted (the canonical order).
	for i := 1; i < len(table); i++ {
		p, c := table[i-1], table[i]
		if p[0] > c[0] || (p[0] == c[0] && p[1] >= c[1]) {
			t.Fatalf("EdgeTable not sorted at %d: %v then %v", i, p, c)
		}
	}
}
