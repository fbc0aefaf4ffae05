package kcore

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"cexplorer/internal/graph"
)

// buildPaperGraph reconstructs the Figure 5(a) graph of the paper: a K4 on
// {A,B,C,D}, E attached to C and D, F pendant on E, G pendant on A, an
// isolated edge H–I, and an isolated vertex J. Core numbers per the figure:
// {A,B,C,D}→3, {E}→2, {F,G,H,I}→1, {J}→0.
func buildPaperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(10, 11)
	for _, spec := range []struct {
		name string
		kws  []string
	}{
		{"A", []string{"w", "x", "y"}},
		{"B", []string{"x"}},
		{"C", []string{"x", "y"}},
		{"D", []string{"x", "y", "z"}},
		{"E", []string{"y", "z"}},
		{"F", []string{"y"}},
		{"G", []string{"x", "y"}},
		{"H", []string{"y", "z"}},
		{"I", []string{"x"}},
		{"J", []string{"x"}},
	} {
		b.AddVertex(spec.name, spec.kws...)
	}
	edges := [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // K4 ABCD
		{4, 2}, {4, 3}, // E-C, E-D
		{5, 4}, // F-E
		{6, 0}, // G-A
		{7, 8}, // H-I
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

func TestDecomposePaperGraph(t *testing.T) {
	g := buildPaperGraph(t)
	if g.N() != 10 || g.M() != 11 {
		t.Fatalf("fixture: N,M = %d,%d, want 10,11 (paper: 10 vertices, 11 edges)", g.N(), g.M())
	}
	core := Decompose(g)
	want := []int32{3, 3, 3, 3, 2, 1, 1, 1, 1, 0}
	if !reflect.DeepEqual(core, want) {
		t.Fatalf("core = %v, want %v", core, want)
	}
	if Degeneracy(core) != 3 {
		t.Fatalf("degeneracy = %d", Degeneracy(core))
	}
}

func TestVerticesWithCoreAtLeast(t *testing.T) {
	g := buildPaperGraph(t)
	core := Decompose(g)
	got := VerticesWithCoreAtLeast(core, 2)
	want := []int32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("H2 = %v, want %v", got, want)
	}
	if got := VerticesWithCoreAtLeast(core, 4); got != nil {
		t.Fatalf("H4 = %v, want empty", got)
	}
}

func TestConnectedKCore(t *testing.T) {
	g := buildPaperGraph(t)
	core := Decompose(g)
	// 3-core containing A = the K4.
	comp := ConnectedKCore(g, core, 0, 3)
	if len(comp) != 4 {
		t.Fatalf("3-core of A = %v", comp)
	}
	// 1-core containing H = {H, I} only.
	comp = ConnectedKCore(g, core, 7, 1)
	if len(comp) != 2 {
		t.Fatalf("1-core of H = %v", comp)
	}
	// J has core 0; asking k=1 yields nil.
	if got := ConnectedKCore(g, core, 9, 1); got != nil {
		t.Fatalf("1-core of J = %v", got)
	}
	// k=0 containing J is just J.
	if got := ConnectedKCore(g, core, 9, 0); len(got) != 1 {
		t.Fatalf("0-core of J = %v", got)
	}
	// nil core argument recomputes.
	if got := ConnectedKCore(g, nil, 0, 3); len(got) != 4 {
		t.Fatalf("nil-core variant = %v", got)
	}
	// Out-of-range q.
	if got := ConnectedKCore(g, core, -1, 1); got != nil {
		t.Fatal("negative q should be nil")
	}
	if got := ConnectedKCore(g, core, 99, 1); got != nil {
		t.Fatal("out-of-range q should be nil")
	}
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n, m)
	b.AddVertexIDs(int32(n - 1))
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.MustBuild()
}

// TestDecomposeMatchesNaive is the core correctness property: the O(n+m)
// bin-sort peeling must agree with naive repeated removal on random graphs.
func TestDecomposeMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := randomGraph(rng, n, rng.Intn(4*n))
		fast := Decompose(g)
		slow := NaiveDecompose(g)
		return reflect.DeepEqual(fast, slow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestKCoreInvariant: every vertex of the k-core has ≥ k neighbors inside
// it, and the k-core is the *maximal* such subgraph (no removed vertex could
// have been kept, verified by checking the naive fixpoint).
func TestKCoreInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(5*n))
		core := Decompose(g)
		for k := int32(1); k <= Degeneracy(core); k++ {
			members := VerticesWithCoreAtLeast(core, k)
			inSet := make(map[int32]bool, len(members))
			for _, v := range members {
				inSet[v] = true
			}
			for _, v := range members {
				d := 0
				for _, u := range g.Neighbors(v) {
					if inSet[u] {
						d++
					}
				}
				if int32(d) < k {
					return false
				}
			}
		}
		// Nesting: (k+1)-core ⊆ k-core holds trivially by core numbers, but
		// check the count monotonicity anyway.
		prev := n + 1
		for k := int32(0); k <= Degeneracy(core)+1; k++ {
			cur := len(VerticesWithCoreAtLeast(core, k))
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPeelerRestrictedSets(t *testing.T) {
	g := buildPaperGraph(t)
	p := NewPeeler(g.AcquireScratch())
	// Full graph at k=3 leaves the K4.
	all := make([]int32, g.N())
	for i := range all {
		all[i] = int32(i)
	}
	got := p.ConnectedKCoreContaining(all, 3, 0)
	if !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
		t.Fatalf("peel(all,3) around A = %v", got)
	}
	// Restricted set {A,C,D,E} at k=2: triangle ACD plus E connected to C,D —
	// all four survive (each has ≥2 neighbors inside). Input order is free.
	got = p.ConnectedKCoreContaining([]int32{4, 0, 3, 2}, 2, 0)
	if !reflect.DeepEqual(got, []int32{0, 2, 3, 4}) {
		t.Fatalf("peel({A,C,D,E},2) = %v", got)
	}
	// Restricted set {A,C,E} at k=2: A-C edge, E-C edge: peels to empty.
	if got = p.ConnectedKCoreContaining([]int32{0, 2, 4}, 2, 0); got != nil {
		t.Fatalf("peel({A,C,E},2) = %v", got)
	}
	// k=0 keeps everything; the query vertex must be in the set.
	if got = p.ConnectedKCoreContaining([]int32{9}, 0, 9); !reflect.DeepEqual(got, []int32{9}) {
		t.Fatalf("peel({J},0) = %v", got)
	}
	if got = p.ConnectedKCoreContaining([]int32{9}, 0, 0); got != nil {
		t.Fatalf("peel({J},0) around A = %v", got)
	}
}

func TestPeelerConnectedContaining(t *testing.T) {
	g := buildPaperGraph(t)
	p := NewPeeler(g.AcquireScratch())
	all := make([]int32, g.N())
	for i := range all {
		all[i] = int32(i)
	}
	// 1-core has components {A..G} and {H,I}; component of H has 2 vertices.
	comp := p.ConnectedKCoreContaining(all, 1, 7)
	if len(comp) != 2 {
		t.Fatalf("component of H = %v", comp)
	}
	// q evicted by the peel → nil.
	if got := p.ConnectedKCoreContaining(all, 2, 5); got != nil {
		t.Fatalf("F should not survive k=2: %v", got)
	}
	// Multi-vertex: A and E share the 2-core component.
	comp = p.ConnectedKCoreContainingAll(all, 2, []int32{0, 4})
	if len(comp) != 5 {
		t.Fatalf("2-core containing A,E = %v", comp)
	}
	// A and H are never in one component.
	if got := p.ConnectedKCoreContainingAll(all, 1, []int32{0, 7}); got != nil {
		t.Fatalf("A,H joint community = %v", got)
	}
	// Empty query set.
	if got := p.ConnectedKCoreContainingAll(all, 1, nil); got != nil {
		t.Fatal("empty query set should be nil")
	}
}

// peelOracle is the by-definition connected k-core of q inside the subgraph
// induced by vertices: repeated whole-set degree recounts in a map, then a
// map-visited walk. Ascending; nil when q does not survive.
func peelOracle(g *graph.Graph, vertices []int32, k, q int32) []int32 {
	in := map[int32]bool{}
	for _, v := range vertices {
		in[v] = true
	}
	for changed := true; changed; {
		changed = false
		for v := range in {
			d := int32(0)
			for _, u := range g.Neighbors(v) {
				if in[u] {
					d++
				}
			}
			if d < k {
				delete(in, v)
				changed = true
			}
		}
	}
	if !in[q] {
		return nil
	}
	seen := map[int32]bool{q: true}
	out := []int32{q}
	for head := 0; head < len(out); head++ {
		for _, u := range g.Neighbors(out[head]) {
			if in[u] && !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestPeelerMatchesOracle: on random graphs, random vertex subsets and every
// k, the peeler's connected k-core equals the by-definition one, and on the
// full vertex set it equals the decomposition-derived ConnectedKCore. One
// Peeler serves every query, which exercises the epoch-stamp reuse.
func TestPeelerMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(4*n))
		core := Decompose(g)
		p := NewPeeler(g.AcquireScratch())
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		for k := int32(0); k <= Degeneracy(core)+1; k++ {
			for q := int32(0); q < int32(n); q++ {
				if got, want := p.ConnectedKCoreContaining(all, k, q), ConnectedKCore(g, core, q, k); !slices.Equal(got, want) {
					t.Errorf("seed %d k=%d q=%d: full set %v, want %v", seed, k, q, got, want)
					return false
				}
			}
			var sub []int32
			for _, v := range rng.Perm(n) {
				if rng.Intn(3) > 0 {
					sub = append(sub, int32(v))
				}
			}
			for q := int32(0); q < int32(n); q++ {
				if got, want := p.ConnectedKCoreContaining(sub, k, q), peelOracle(g, sub, k, q); !slices.Equal(got, want) {
					t.Errorf("seed %d k=%d q=%d: subset %v → %v, want %v", seed, k, q, sub, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestDecomposeOrder: the returned order is a permutation of the vertex set
// in which every vertex's forward degree (neighbors later in the order) is
// bounded by its core number — the degeneracy-orientation property the
// parallel truss engine's triangle counting relies on.
func TestDecomposeOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := graph.NewBuilder(n, 0)
		b.AddVertexIDs(int32(n - 1))
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.MustBuild()
		core, order := DecomposeOrder(g)
		if !reflect.DeepEqual(core, Decompose(g)) {
			t.Errorf("seed %d: DecomposeOrder core numbers diverge from Decompose", seed)
			return false
		}
		if len(order) != n {
			t.Errorf("seed %d: order has %d entries for n=%d", seed, len(order), n)
			return false
		}
		rank := make([]int, n)
		seen := make([]bool, n)
		for i, v := range order {
			if v < 0 || int(v) >= n || seen[v] {
				t.Errorf("seed %d: order is not a permutation at %d", seed, i)
				return false
			}
			seen[v] = true
			rank[v] = i
		}
		for v := int32(0); v < int32(n); v++ {
			forward := int32(0)
			for _, u := range g.Neighbors(v) {
				if rank[u] > rank[v] {
					forward++
				}
			}
			if forward > core[v] {
				t.Errorf("seed %d: vertex %d has forward degree %d > core %d", seed, v, forward, core[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
