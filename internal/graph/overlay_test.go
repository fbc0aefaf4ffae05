package graph

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// rebuildReference re-applies an overlay's current edge set through a fresh
// Builder, yielding the graph the overlay ought to materialize.
func rebuildReference(t *testing.T, o *Overlay) *Graph {
	t.Helper()
	b := NewBuilder(o.N(), o.M())
	for v := int32(0); v < int32(o.N()); v++ {
		b.AddVertexIDs(v)
	}
	for v := int32(0); v < int32(o.N()); v++ {
		o.ForEachNeighbor(v, func(u int32) bool {
			if v < u {
				b.AddEdge(v, u)
			}
			return true
		})
	}
	return b.MustBuild()
}

func requireSameAdjacency(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("size mismatch: got n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	for v := int32(0); v < int32(want.N()); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("vertex %d adjacency: got %v want %v", v, got.Neighbors(v), want.Neighbors(v))
		}
	}
}

func TestOverlayRandomMutationsMatchRebuild(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(30, 60)
		for i := 0; i < 30; i++ {
			b.AddVertex("", "k"+string(rune('a'+i%5)))
		}
		for i := 0; i < 60; i++ {
			b.AddEdge(int32(rng.Intn(30)), int32(rng.Intn(30)))
		}
		base := b.MustBuild()
		o := NewOverlay(base)

		for step := 0; step < 300; step++ {
			u := int32(rng.Intn(o.N()))
			v := int32(rng.Intn(o.N()))
			switch {
			case rng.Intn(20) == 0:
				o.AddVertex("", []string{"fresh"})
			case o.HasEdge(u, v):
				if err := o.RemoveEdge(u, v); err != nil {
					t.Fatalf("seed %d step %d: remove existing {%d,%d}: %v", seed, step, u, v, err)
				}
			case u != v:
				if err := o.AddEdge(u, v); err != nil {
					t.Fatalf("seed %d step %d: add missing {%d,%d}: %v", seed, step, u, v, err)
				}
			}
		}
		got, err := o.Materialize()
		if err != nil {
			t.Fatalf("seed %d: materialize: %v", seed, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: materialized graph invalid: %v", seed, err)
		}
		requireSameAdjacency(t, got, rebuildReference(t, o))
	}
}

func TestOverlayTypedErrors(t *testing.T) {
	b := NewBuilder(3, 2)
	b.AddVertexIDs(2)
	b.AddEdge(0, 1)
	o := NewOverlay(b.MustBuild())

	if err := o.AddEdge(0, 1); !errors.Is(err, ErrEdgeExists) {
		t.Errorf("duplicate add: got %v, want ErrEdgeExists", err)
	}
	if err := o.RemoveEdge(1, 2); !errors.Is(err, ErrEdgeMissing) {
		t.Errorf("missing remove: got %v, want ErrEdgeMissing", err)
	}
	if err := o.AddEdge(0, 99); !errors.Is(err, ErrVertexRange) {
		t.Errorf("out of range: got %v, want ErrVertexRange", err)
	}
	if err := o.AddEdge(2, 2); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop: got %v, want ErrSelfLoop", err)
	}

	// Delete-then-readd of a base edge and add-then-delete of a fresh edge
	// both cancel to a no-op.
	if err := o.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveEdge(2, 1); err != nil {
		t.Fatal(err)
	}
	if o.Dirty() {
		t.Errorf("canceling mutations should leave the overlay clean")
	}
	g, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	requireSameAdjacency(t, g, o.base)
}

func TestOverlayBaseUntouched(t *testing.T) {
	b := NewBuilder(4, 3)
	b.AddVertex("a", "x")
	b.AddVertex("b", "y")
	b.AddVertex("c")
	b.AddVertex("d")
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	base := b.MustBuild()
	baseM, baseVocab := base.M(), base.Vocab().Len()

	o := NewOverlay(base)
	if err := o.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	id := o.AddVertex("e", []string{"brand-new-word"})
	if err := o.AddEdge(id, 0); err != nil {
		t.Fatal(err)
	}
	g, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// The base graph — including its vocabulary, which the new vertex's
	// unseen keyword must not have leaked into — is bit-for-bit intact.
	if base.M() != baseM || !base.HasEdge(0, 1) || base.HasEdge(2, 3) {
		t.Errorf("base adjacency mutated")
	}
	if base.Vocab().Len() != baseVocab {
		t.Errorf("base vocab grew from %d to %d", baseVocab, base.Vocab().Len())
	}
	if _, ok := base.Vocab().ID("brand-new-word"); ok {
		t.Errorf("new keyword leaked into base vocab")
	}
	if _, ok := g.Vocab().ID("brand-new-word"); !ok {
		t.Errorf("new keyword missing from materialized vocab")
	}
	if name := g.Name(id); name != "e" {
		t.Errorf("new vertex name %q, want e", name)
	}
	if got, ok := g.VertexByName("e"); !ok || got != id {
		t.Errorf("VertexByName(e) = %d,%v", got, ok)
	}
}

// TestCarrySlotsKeepsEdgeValues: a per-slot array labelling every base edge
// by its endpoints carries to the materialized graph with each surviving
// edge's label in both of its slots and zero in every slot of an added
// edge, over random batches that remove, add, re-add and append vertices.
func TestCarrySlotsKeepsEdgeValues(t *testing.T) {
	label := func(u, v int32) int32 { return 1 + min(u, v)*1000 + max(u, v) }
	for seed := int64(1); seed <= 30; seed++ {
		base := randomGraph(seed)
		slots := make([]int32, len(base.adj))
		for u := int32(0); u < int32(base.N()); u++ {
			for i, v := range base.Neighbors(u) {
				slots[base.offsets[u]+int64(i)] = label(u, v)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		o := NewOverlay(base)
		for op := 0; op < 12; op++ {
			u, v := int32(rng.Intn(o.N())), int32(rng.Intn(o.N()))
			switch {
			case rng.Intn(8) == 0:
				o.AddVertex("", nil)
			case u == v:
			case o.HasEdge(u, v):
				if err := o.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
			default:
				if err := o.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		g, err := o.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		got := o.CarrySlots(g, slots)
		for u := int32(0); u < int32(g.N()); u++ {
			for i, v := range g.Neighbors(u) {
				want := int32(0)
				if n := int32(base.N()); u < n && v < n && base.HasEdge(u, v) {
					want = label(u, v)
				}
				if s := got[g.offsets[u]+int64(i)]; s != want {
					t.Fatalf("seed %d: slot of {%d,%d} at %d carries %d, want %d", seed, u, v, u, s, want)
				}
			}
		}
	}
}
