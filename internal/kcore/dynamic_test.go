package kcore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cexplorer/internal/graph"
)

// newOverlayMaintainer wraps g in an overlay and a Maintainer holding its
// decomposition and k-order.
func newOverlayMaintainer(g *graph.Graph) (*graph.Overlay, *Maintainer) {
	return graph.NewOverlay(g), NewMaintainer(BuildOrder(g))
}

// checkMaintained asserts the maintained core numbers equal a from-scratch
// peel of the overlay's current graph and the order invariant holds.
func checkMaintained(t *testing.T, o *graph.Overlay, m *Maintainer, what string) {
	t.Helper()
	want := Decompose(mustMaterialize(t, o))
	if !slices.Equal(m.Core(), want) {
		t.Fatalf("%s: core numbers diverge:\n got %v\nwant %v", what, m.Core(), want)
	}
	if err := validateOrder(m.Order(), o, m.Core()); err != nil {
		t.Fatalf("%s: order invariant broken: %v", what, err)
	}
}

// validateOrder checks o against g and core by definition: every level list
// is well linked, holds exactly the vertices of that core number and
// carries increasing labels, and every vertex's stored deg+ equals its
// count of later neighbours and is at most its core number.
func validateOrder(o *Order, g Adjacency, core []int32) error {
	n := len(core)
	if g.N() != n || len(o.label) != n || len(o.next) != n || len(o.prev) != n || len(o.degPlus) != n {
		return fmt.Errorf("sizes: graph %d, core %d, order %d/%d/%d/%d",
			g.N(), n, len(o.label), len(o.next), len(o.prev), len(o.degPlus))
	}
	listed := 0
	for k := range o.head {
		prev := int32(-1)
		for v := o.head[k]; v >= 0; v = o.next[v] {
			if listed++; listed > n {
				return fmt.Errorf("level %d: list cycles", k)
			}
			if core[v] != int32(k) {
				return fmt.Errorf("vertex %d (core %d) listed in level %d", v, core[v], k)
			}
			if o.prev[v] != prev {
				return fmt.Errorf("vertex %d: prev %d, want %d", v, o.prev[v], prev)
			}
			if prev >= 0 && o.label[prev] >= o.label[v] {
				return fmt.Errorf("level %d: label %d of %d not above %d of %d", k, o.label[v], v, o.label[prev], prev)
			}
			prev = v
		}
		if o.tail[k] != prev {
			return fmt.Errorf("level %d: tail %d, want %d", k, o.tail[k], prev)
		}
	}
	if listed != n {
		return fmt.Errorf("levels list %d of %d vertices", listed, n)
	}
	for v := range int32(n) {
		later := int32(0)
		g.ForEachNeighbor(v, func(x int32) bool {
			if core[x] > core[v] || core[x] == core[v] && o.label[x] > o.label[v] {
				later++
			}
			return true
		})
		if o.degPlus[v] != later {
			return fmt.Errorf("vertex %d: deg+ %d, counted %d", v, o.degPlus[v], later)
		}
		if later > core[v] {
			return fmt.Errorf("vertex %d: deg+ %d above core %d", v, later, core[v])
		}
	}
	return nil
}

// TestBuildOrderIsValid: the order built from the decomposition's peel
// satisfies the invariant on random graphs.
func TestBuildOrderIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for range 30 {
		n := 2 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(5*n))
		core, o := BuildOrder(g)
		if err := validateOrder(o, g, core); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncrementalMatchesDecompose drives long random insert/delete streams
// through the Maintainer and checks, after every single op, that the
// maintained core numbers equal a from-scratch Batagelj–Zaveršnik peel of
// the current graph — the defining invariant of the dynamic subsystem — and
// that the k-order is still valid: deg+ exact and within core, levels in
// core order.
func TestIncrementalMatchesDecompose(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 24 + rng.Intn(40)
		b := graph.NewBuilder(n, 2*n)
		b.AddVertexIDs(int32(n - 1))
		for i := 0; i < 2*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		o, m := newOverlayMaintainer(b.MustBuild())

		for step := 0; step < 400; step++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			if u == v {
				continue
			}
			before := slices.Clone(m.Core())
			var changed []int32
			if o.HasEdge(u, v) {
				if err := o.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				changed = slices.Clone(m.RemoveEdge(o, u, v))
			} else {
				if err := o.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				changed = slices.Clone(m.InsertEdge(o, u, v))
			}
			checkMaintained(t, o, m, "op")
			var moved []int32
			for w := range before {
				if before[w] != m.Core()[w] {
					moved = append(moved, int32(w))
				}
			}
			if !slices.Equal(changed, moved) {
				t.Fatalf("seed %d step %d: op on {%d,%d} reported %v, moved %v", seed, step, u, v, changed, moved)
			}
		}
	}
}

// TestIncrementalOnOverlayMidBatch checks the kernels read the overlay's
// merged adjacency, not the frozen base: several ops accumulate without
// materializing and the final numbers still match a rebuild.
func TestIncrementalOnOverlayMidBatch(t *testing.T) {
	b := graph.NewBuilder(8, 10)
	b.AddVertexIDs(7)
	// Two triangles joined by a bridge.
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		b.AddEdge(e[0], e[1])
	}
	o, m := newOverlayMaintainer(b.MustBuild())

	ops := [][3]int32{ // {u, v, 1=insert 0=delete}
		{0, 3, 1}, {1, 4, 1}, {2, 5, 1}, // weld the triangles into a dense block
		{2, 3, 0},            // then cut the original bridge
		{6, 7, 1}, {6, 0, 1}, // and grow a pendant path
	}
	for _, op := range ops {
		u, v := op[0], op[1]
		if op[2] == 1 {
			if err := o.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
			m.InsertEdge(o, u, v)
		} else {
			if err := o.RemoveEdge(u, v); err != nil {
				t.Fatal(err)
			}
			m.RemoveEdge(o, u, v)
		}
		if err := validateOrder(m.Order(), o, m.Core()); err != nil {
			t.Fatalf("after %v: %v", op, err)
		}
	}
	checkMaintained(t, o, m, "mid-batch")
}

// TestInsertIsolatedVertices covers the r=0 boundary: the first edge of an
// isolated vertex, and a fresh vertex appended mid-stream.
func TestInsertIsolatedVertices(t *testing.T) {
	b := graph.NewBuilder(3, 1)
	b.AddVertexIDs(2)
	o, m := newOverlayMaintainer(b.MustBuild())

	if err := o.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	changed := m.InsertEdge(o, 0, 1)
	if !slices.Equal(m.Core(), []int32{1, 1, 0}) {
		t.Fatalf("after first edge: core %v", m.Core())
	}
	if !slices.Equal(changed, []int32{0, 1}) {
		t.Fatalf("changed %v, want [0 1]", changed)
	}
	checkMaintained(t, o, m, "first edge")

	id := o.AddVertex("", nil)
	m.AddVertex()
	checkMaintained(t, o, m, "appended vertex")
	if err := o.AddEdge(id, 0); err != nil {
		t.Fatal(err)
	}
	m.InsertEdge(o, id, 0)
	checkMaintained(t, o, m, "edge to appended vertex")
}

// TestResetAfterAddVertexGrowth: AddVertex grows the uint8 and int32
// scratch arrays by append, so their capacities round to different size
// classes (7,000 + 1 vertices leaves cap(state) < 10,000 < cap(stamp)). A
// pooled Maintainer Reset for a larger graph must grow every array that is
// short, not only the one it happens to check.
func TestResetAfterAddVertexGrowth(t *testing.T) {
	edgeless := func(n int) *graph.Graph {
		b := graph.NewBuilder(n, 0)
		b.AddVertexIDs(int32(n - 1))
		return b.MustBuild()
	}
	m := NewMaintainer(BuildOrder(edgeless(7000)))
	m.AddVertex()

	base := edgeless(10000)
	g := graph.NewOverlay(base)
	m.Reset(BuildOrder(base))
	if err := g.AddEdge(9998, 9999); err != nil {
		t.Fatal(err)
	}
	m.InsertEdge(g, 9998, 9999)
	checkMaintained(t, g, m, "insert after reset")
}

// TestOrderRelabelsFullLevel forces the gap-closing path: a long run of
// inserts at one spot of a level exhausts the label space between two
// neighbours, and the level must relabel without reordering.
func TestOrderRelabelsFullLevel(t *testing.T) {
	o := &Order{}
	core := []int32{}
	for range 4 {
		core = append(core, 0)
		o.label = append(o.label, 0)
		o.next = append(o.next, -1)
		o.prev = append(o.prev, -1)
		o.degPlus = append(o.degPlus, 0)
	}
	o.grow(0)
	o.place(0, -1, 0)
	o.place(0, 0, 1)
	// Shuttle vertices 2 and 3 in and out right after 0: every insert halves
	// (or steps into) the gap below vertex 1.
	for i := 0; i < 200; i++ {
		w := int32(2 + i%2)
		if i >= 2 {
			o.unlink(0, w)
		}
		o.place(0, 0, w)
	}
	var got []int32
	for v := o.head[0]; v >= 0; v = o.next[v] {
		got = append(got, v)
	}
	if want := []int32{0, 3, 2, 1}; !slices.Equal(got, want) {
		t.Fatalf("level order %v, want %v", got, want)
	}
	g := graph.NewBuilder(4, 0)
	g.AddVertexIDs(3)
	if err := validateOrder(o, g.MustBuild(), core); err != nil {
		t.Fatal(err)
	}
}

func mustMaterialize(t testing.TB, o *graph.Overlay) *graph.Graph {
	t.Helper()
	g, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
