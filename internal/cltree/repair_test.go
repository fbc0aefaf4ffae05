package cltree

import (
	"math/rand"
	"slices"
	"testing"

	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
)

// requireEquivalentTrees asserts got and want describe identical community
// structure: same core numbers, and for every vertex and every admissible k
// the same k-core component (the subtree of the anchor node). Child order
// inside the trees may differ; the community semantics may not.
func requireEquivalentTrees(t *testing.T, got, want *Tree) {
	t.Helper()
	if !slices.Equal(got.CoreNumbers(), want.CoreNumbers()) {
		t.Fatalf("core numbers diverge:\n got %v\nwant %v", got.CoreNumbers(), want.CoreNumbers())
	}
	core := want.CoreNumbers()
	for v := int32(0); int(v) < len(core); v++ {
		for k := int32(1); k <= core[v]; k++ {
			g := got.SubtreeVertices(got.Anchor(v, k), nil)
			w := want.SubtreeVertices(want.Anchor(v, k), nil)
			slices.Sort(g)
			slices.Sort(w)
			if !slices.Equal(g, w) {
				t.Fatalf("community of v=%d k=%d diverges:\n got %v\nwant %v", v, k, g, w)
			}
		}
	}
}

func TestRepairRandomMutations(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := gen.GNMAttributed(40, 90, 12, seed)
		o := graph.NewOverlay(base)
		tree := Build(base)
		m := kcore.NewMaintainer(kcore.BuildOrder(base))
		core := m.Core()
		fastHits := 0

		for step := 0; step < 150; step++ {
			u := int32(rng.Intn(o.N()))
			v := int32(rng.Intn(o.N()))
			if u == v {
				continue
			}
			var (
				op           EdgeOp
				changedLevel int32
				changed      []int32
			)
			if o.HasEdge(u, v) {
				if err := o.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				if ch := m.RemoveEdge(o, u, v); len(ch) > 0 {
					changedLevel = core[ch[0]] + 1
					changed = slices.Clone(ch)
				}
				op = EdgeOp{U: u, V: v}
			} else {
				if err := o.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				if ch := m.InsertEdge(o, u, v); len(ch) > 0 {
					changedLevel = core[ch[0]]
					changed = slices.Clone(ch)
				}
				op = EdgeOp{U: u, V: v, Insert: true}
			}
			g, err := o.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			// Passing changed arms the surgical level-move patch, the exact
			// path single-op serving batches take.
			next, shared := Repair(tree, g, slices.Clone(core), changedLevel, 0, []EdgeOp{op}, changed)
			if shared {
				fastHits++
			}
			if err := next.Validate(); err != nil {
				t.Fatalf("seed %d step %d (shared=%v): repaired tree invalid: %v", seed, step, shared, err)
			}
			requireEquivalentTrees(t, next, Build(g))
			tree = next
		}
		if fastHits == 0 {
			t.Errorf("seed %d: structural fast path never hit in 150 random ops", seed)
		}
	}
}

// TestRepairBatch drives multi-op batches (the serving shape) through
// Repair, including batches that mix inserts and deletes whose effects
// cancel structurally.
func TestRepairBatch(t *testing.T) {
	base := gen.GNMAttributed(50, 120, 10, 7)
	tree := Build(base)
	rng := rand.New(rand.NewSource(99))

	o := graph.NewOverlay(base)
	m := kcore.NewMaintainer(kcore.BuildOrder(base))
	core := m.Core()
	var ops []EdgeOp
	var changedLevel int32
	for i := 0; i < 40; i++ {
		u := int32(rng.Intn(o.N()))
		v := int32(rng.Intn(o.N()))
		if u == v {
			continue
		}
		if o.HasEdge(u, v) {
			if err := o.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if ch := m.RemoveEdge(o, u, v); len(ch) > 0 {
				changedLevel = max(changedLevel, core[ch[0]]+1)
			}
			ops = append(ops, EdgeOp{U: u, V: v})
		} else {
			if err := o.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if ch := m.InsertEdge(o, u, v); len(ch) > 0 {
				changedLevel = max(changedLevel, core[ch[0]])
			}
			ops = append(ops, EdgeOp{U: u, V: v, Insert: true})
		}
	}
	g, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	next, _ := Repair(tree, g, core, changedLevel, 0, ops, nil)
	if err := next.Validate(); err != nil {
		t.Fatalf("batch-repaired tree invalid: %v", err)
	}
	requireEquivalentTrees(t, next, Build(g))
}

// TestRepairSharesInvertedLists checks the rebuild path adopts inverted
// lists from unchanged nodes instead of re-sorting them.
func TestRepairSharesInvertedLists(t *testing.T) {
	// Two far-apart triangles; mutating one must not rebuild the other's
	// inverted lists.
	b := graph.NewBuilder(7, 8)
	for i := 0; i < 7; i++ {
		b.AddVertex("", "kw")
	}
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}} {
		b.AddEdge(e[0], e[1])
	}
	base := b.MustBuild()
	tree := Build(base)

	o := graph.NewOverlay(base)
	if err := o.AddEdge(6, 0); err != nil { // vertex 6 was isolated: its core changes, forcing a rebuild
		t.Fatal(err)
	}
	m := kcore.NewMaintainer(kcore.BuildOrder(base))
	core := m.Core()
	changed := m.InsertEdge(o, 6, 0)
	if len(changed) == 0 {
		t.Fatal("expected a core change")
	}
	g, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	next, shared := Repair(tree, g, core, core[6], 0, []EdgeOp{{U: 6, V: 0, Insert: true}}, nil)
	if shared {
		t.Fatal("core change must not take the fast path")
	}
	// The untouched triangle {3,4,5} keeps its node; its inverted list must
	// be the same backing array, not a fresh sort.
	oldNode, newNode := tree.NodeOf(3), next.NodeOf(3)
	if len(oldNode.invKw) == 0 {
		t.Fatal("test premise broken: old node has no inverted list")
	}
	if &oldNode.invKw[0] != &newNode.invKw[0] {
		t.Errorf("unchanged node re-sorted its inverted list instead of adopting it")
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
}
