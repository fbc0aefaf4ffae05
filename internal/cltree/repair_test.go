package cltree

import (
	"fmt"
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

// requireSameNodes asserts got and want have the same nodes in O(n): node
// by node the same core, vertices, parent and inverted lists. Only the
// order of children may differ.
func requireSameNodes(t *testing.T, got, want *Tree) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%d nodes, rebuild has %d", got.NumNodes(), want.NumNodes())
	}
	// counterpart maps a got node to the want node holding its first vertex;
	// vertex sets partition V, so equal sets make the map a bijection.
	counterpart := func(n *Node) *Node {
		if n == got.root {
			return want.root
		}
		return want.nodeOf[n.Vertices[0]]
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		w := counterpart(n)
		switch {
		case n.Core != w.Core || !slices.Equal(n.Vertices, w.Vertices):
			t.Fatalf("node at core %d with %d vertices, rebuild has core %d with %d", n.Core, len(n.Vertices), w.Core, len(w.Vertices))
		case n.Parent != nil && counterpart(n.Parent) != w.Parent:
			t.Fatalf("node at core %d (first vertex %d) hangs under another parent", n.Core, n.Vertices[0])
		case !sameLists(n.lists(), w.lists()):
			t.Fatalf("node at core %d (first vertex %d): inverted lists differ", n.Core, n.Vertices[0])
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(got.root)
}

func sameLists(a, b *invLists) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.kw, b.kw) && slices.Equal(a.v, b.v)
}

// mutator applies random edge inserts, edge deletes and vertex adds to an
// overlay, maintaining core numbers the way Dataset.Mutate does, and
// records what Repair needs: the edge ops and the union of the change lists.
type mutator struct {
	rng   *rand.Rand
	o     *graph.Overlay
	m     *kcore.Maintainer
	vocab int
}

func newMutator(base *graph.Graph, vocab int, seed int64) *mutator {
	return &mutator{
		rng:   rand.New(rand.NewSource(seed)),
		o:     graph.NewOverlay(base),
		m:     kcore.NewMaintainer(kcore.BuildOrder(base)),
		vocab: vocab,
	}
}

// batch applies size ops; addEvery > 0 makes roughly one op in addEvery a
// vertex add (every op, at 1). It returns the materialized graph, a private copy of its core
// numbers, and the batch's ops and moved vertices.
func (mu *mutator) batch(t testing.TB, size, addEvery int) (*graph.Graph, []int32, []EdgeOp, []int32) {
	t.Helper()
	var (
		ops   []EdgeOp
		moved []int32
	)
	for applied := 0; applied < size; applied++ {
		if addEvery > 0 && mu.rng.Intn(addEvery) == 0 {
			mu.o.AddVertex("", []string{fmt.Sprintf("w%d", mu.rng.Intn(mu.vocab))})
			mu.m.AddVertex()
			continue
		}
		u, v := int32(mu.rng.Intn(mu.o.N())), int32(mu.rng.Intn(mu.o.N()))
		if d := mu.o.Degree(u); d > 0 && mu.rng.Intn(3) == 0 {
			// An existing edge of u: random pairs alone rarely hit one.
			i := mu.rng.Intn(d)
			mu.o.ForEachNeighbor(u, func(x int32) bool {
				v, i = x, i-1
				return i >= 0
			})
		}
		if u == v {
			applied--
			continue
		}
		if mu.o.HasEdge(u, v) {
			if err := mu.o.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
			moved = append(moved, mu.m.RemoveEdge(mu.o, u, v)...)
			ops = append(ops, EdgeOp{U: u, V: v})
		} else {
			if err := mu.o.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			moved = append(moved, mu.m.InsertEdge(mu.o, u, v)...)
			ops = append(ops, EdgeOp{U: u, V: v, Insert: true})
		}
	}
	g, err := mu.o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return g, slices.Clone(mu.m.Core()), ops, moved
}

// TestRepairRandomMutations repairs single-op batches, the serving shape of
// unbatched writes, checking every tree against a rebuild.
func TestRepairRandomMutations(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		base := gen.GNMAttributed(40, 90, 12, seed)
		tree := Build(base)
		mu := newMutator(base, 12, seed)
		outcomes := map[Outcome]int{}
		for step := 0; step < 150; step++ {
			g, core, ops, moved := mu.batch(t, 1, 0)
			next, out := Repair(tree, g, core, moved, ops)
			outcomes[out]++
			if err := next.Validate(); err != nil {
				t.Fatalf("seed %d step %d (%s): repaired tree invalid: %v", seed, step, out, err)
			}
			requireEquivalentTrees(t, next, Build(g))
			tree = next
		}
		if outcomes[Shared] == 0 || outcomes[Repaired] == 0 {
			t.Errorf("seed %d: outcomes %v, want both shared and repaired writes", seed, outcomes)
		}
	}
}

// TestRepairBatch drives multi-op batches (the serving shape) through
// Repair, including batches that mix inserts, deletes and vertex adds whose
// effects cancel structurally, and batches of 2-8 ops whose level moves
// the local repair edits in place.
func TestRepairBatch(t *testing.T) {
	for _, size := range []int{40, 2, 5, 8} {
		base := gen.GNMAttributed(50, 120, 10, 7)
		tree := Build(base)
		mu := newMutator(base, 10, 99+int64(size))
		outcomes := map[Outcome]int{}
		for b := 0; b < 30; b++ {
			g, core, ops, moved := mu.batch(t, size, 12)
			next, out := Repair(tree, g, core, moved, ops)
			outcomes[out]++
			if err := next.Validate(); err != nil {
				t.Fatalf("size %d batch %d (%s): repaired tree invalid: %v", size, b, out, err)
			}
			requireEquivalentTrees(t, next, Build(g))
			tree = next
		}
		if size < 40 && outcomes[Repaired] == 0 {
			t.Errorf("%d-op batches: outcomes %v, want some repaired in place", size, outcomes)
		}
	}
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
	if err := o.AddEdge(6, 0); err != nil { // vertex 6 was isolated: it lands at level 1, where no node exists
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
	next, out := Repair(tree, g, core, changed, []EdgeOp{{U: 6, V: 0, Insert: true}})
	if out != Rebuilt {
		t.Fatalf("outcome %s, want rebuilt: the new level-1 node must fall back", out)
	}
	// The untouched triangle {3,4,5} keeps its node; its inverted list must
	// be the same backing array, not a fresh sort.
	oldNode, newNode := tree.NodeOf(3), next.NodeOf(3)
	if oldNode.inv.Load() == nil {
		t.Fatal("test premise broken: old node has no inverted list")
	}
	if oldNode.inv.Load() != newNode.inv.Load() {
		t.Errorf("unchanged node re-sorted its inverted list instead of adopting it")
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
}

// FuzzTreeRepair chains random batches of edge inserts, edge deletes and
// vertex adds over a seeded small attributed graph, with core numbers
// maintained by kcore.Maintainer, and checks every repaired tree against a
// rebuild: the same communities and, where a vertex list is memoized, the
// same ascending subtree. Validate and the node-by-node comparison read the
// inverted lists, which splices pending edits, so they run on every third
// batch and the last: the batches between compose their edits unread.
func FuzzTreeRepair(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(60), uint8(1), uint8(0))
	f.Add(int64(2), uint8(40), uint8(100), uint8(6), uint8(5))
	f.Add(int64(3), uint8(20), uint8(50), uint8(25), uint8(3))
	f.Add(int64(4), uint8(60), uint8(200), uint8(3), uint8(8))
	f.Fuzz(func(t *testing.T, seed int64, n, m, size, addEvery uint8) {
		nv := 4 + int(n%60)
		base := gen.GNMAttributed(nv, int(m)%(nv*(nv-1)/2), 6, seed)
		tree := Build(base)
		mu := newMutator(base, 6, seed)
		for b := 0; b < 8; b++ {
			g, core, ops, moved := mu.batch(t, 1+int(size%32), int(addEvery%10))
			next, out := Repair(tree, g, core, moved, ops)
			want := Build(g)
			requireEquivalentTrees(t, next, want)
			if b%3 == 2 || b == 7 {
				if err := next.Validate(); err != nil {
					t.Fatalf("batch %d (%s): repaired tree invalid: %v", b, out, err)
				}
				requireSameNodes(t, next, want)
			}
			var walk func(n *Node)
			walk = func(n *Node) {
				if p := n.sub.Load(); p != nil {
					want := next.SubtreeVertices(n, nil)
					slices.Sort(want)
					if !slices.Equal(*p, want) {
						t.Fatalf("batch %d (%s): node at core %d kept a stale subtree memo", b, out, n.Core)
					}
				}
				for _, ch := range n.Children {
					walk(ch)
				}
			}
			walk(next.root)
			for _, n := range []*Node{next.root, next.nodeOf[0]} {
				next.SubtreeAscending(n) // memoize nothing below 1024, but exercise it
			}
			tree = next
		}
	})
}

// TestRepairWorkBound pins down the locality of the repair without a wall
// clock: on a DBLP-like graph, a single-op write that moves at most a few
// vertices and is repaired in place may read only their neighbourhoods and
// the BFS witnesses — at most 1% of the graph's adjacency lists, counted by
// the repair itself. A proof that walked a component, as a BFS over the
// whole k-core would, reads thousands.
func TestRepairWorkBound(t *testing.T) {
	base := gen.GenerateDBLP(gen.DefaultDBLPConfig()).Graph
	tree := Build(base)
	mu := newMutator(base, 1, 3)
	bound := base.N() / 100
	repaired, worst, total := 0, 0, 0
	for i := 0; i < 200; i++ {
		g, core, ops, moved := mu.batch(t, 1, 0)
		r := repairer{old: tree, g: g, core: core}
		next, out, ok := r.run(moved, ops)
		if !ok {
			next, out = buildTree(g, core, tree), Rebuilt
		}
		requireSameNodes(t, next, Build(g))
		tree = next
		if out != Repaired || len(moved) > 4 {
			continue
		}
		repaired++
		total += r.scanned
		worst = max(worst, r.scanned)
		if r.scanned > bound {
			t.Fatalf("write %d %+v moved %d vertices but read %d adjacency lists (> %d, 1%% of the graph)",
				i, ops[0], len(moved), r.scanned, bound)
		}
	}
	if repaired < 10 {
		t.Fatalf("only %d of 200 writes moved a few vertices and were repaired in place", repaired)
	}
	t.Logf("%d writes repaired in place: %.1f adjacency lists read on average, %d at most", repaired, float64(total)/float64(repaired), worst)
}

// TestPendingListEditsCompose chains inverted-list edits on one large node
// (a random walk of departures and arrivals over its vertex set), reading
// the list only now and then, so edits compose over pending and over
// spliced bases alike; every read must equal a list filled from scratch.
func TestPendingListEditsCompose(t *testing.T) {
	g := gen.GNMAttributed(600, 1200, 40, 5)
	rng := rand.New(rand.NewSource(5))
	in := make([]bool, g.N())
	var vs []int32
	for v := int32(0); int(v) < g.N(); v += 2 {
		in[v] = true
		vs = append(vs, v)
	}
	filler := newInvFiller(g.Vocab().Len())
	n := &Node{Vertices: vs}
	n.inv.Store(filler.lists(g, vs))
	pending := 0
	for step := 0; step < 300; step++ {
		var departed, arrived []int32
		for _, v := range rng.Perm(g.N())[:1+rng.Intn(4)] {
			v := int32(v)
			if in[v] {
				departed = append(departed, v)
			} else {
				arrived = append(arrived, v)
			}
			in[v] = !in[v]
		}
		slices.Sort(departed)
		slices.Sort(arrived)
		next := &Node{Vertices: spliceSorted(n.Vertices, departed, arrived)}
		editLists(g, n, next, departed, arrived)
		n = next
		l := n.inv.Load()
		if l.edit == nil {
			continue
		}
		pending++
		if rng.Intn(10) == 0 {
			if !sameLists(splice(l.edit.base, l.edit.del, l.edit.add), filler.lists(g, n.Vertices)) {
				t.Fatalf("step %d: edited list differs from a fill", step)
			}
			n.lists()
		}
	}
	if pending < 100 {
		t.Fatalf("only %d of 300 edits stayed pending: composition untested", pending)
	}
}

// TestPendingListsReadConcurrently reads a repaired tree's pending lists
// from several goroutines at once: each read splices or sees the one
// spliced list, and all agree with a rebuild (run under -race in CI).
func TestPendingListsReadConcurrently(t *testing.T) {
	base := gen.GenerateDBLP(gen.SmallDBLPConfig()).Graph
	tree := Build(base)
	mu := newMutator(base, 1, 9)
	var pending []*Node
	for i := 0; i < 50 && len(pending) == 0; i++ {
		g, core, ops, moved := mu.batch(t, 8, 0)
		tree, _ = Repair(tree, g, core, moved, ops)
		var walk func(n *Node)
		walk = func(n *Node) {
			if l := n.inv.Load(); l != nil && l.edit != nil {
				pending = append(pending, n)
			}
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(tree.root)
	}
	if len(pending) == 0 {
		t.Fatal("no repair left a list pending")
	}
	want := Build(tree.g)
	done := make(chan *invLists, 4)
	for _, n := range pending {
		for range cap(done) {
			go func() { done <- n.lists() }()
		}
		first := <-done
		for range cap(done) - 1 {
			if l := <-done; l != first && !sameLists(l, first) {
				t.Fatal("concurrent reads of a pending list disagree")
			}
		}
		if !sameLists(first, want.nodeOf[n.Vertices[0]].lists()) {
			t.Fatalf("node at core %d: spliced list differs from a rebuild", n.Core)
		}
	}
}
