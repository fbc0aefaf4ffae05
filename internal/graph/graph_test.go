package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// triangle plus a pendant: 0-1, 1-2, 0-2, 2-3
func testGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(4, 4)
	b.AddVertex("a", "x", "y")
	b.AddVertex("b", "x")
	b.AddVertex("c", "y", "x")
	b.AddVertex("d")
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := testGraph(t)
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N,M = %d,%d", g.N(), g.M())
	}
	if g.Degree(2) != 3 || g.Degree(3) != 1 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(2), g.Degree(3))
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) || g.HasEdge(0, 3) {
		t.Fatal("HasEdge wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !g.Named() {
		t.Fatal("graph should be named")
	}
	if v, ok := g.VertexByName("c"); !ok || v != 2 {
		t.Fatalf("VertexByName(c) = %d,%v", v, ok)
	}
	if _, ok := g.VertexByName("zz"); ok {
		t.Fatal("VertexByName(zz) should fail")
	}
	if g.Name(3) != "d" {
		t.Fatalf("Name(3) = %q", g.Name(3))
	}
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(1, 1) // self loop
	b.AddEdge(2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 (dedup + no loops)", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Named() {
		t.Fatal("anonymous graph reported Named")
	}
	if g.Name(0) != "v0" {
		t.Fatalf("anonymous Name(0) = %q", g.Name(0))
	}
}

func TestBuilderEmpty(t *testing.T) {
	if _, err := NewBuilder(0, 0).Build(); err == nil {
		t.Fatal("empty build should error")
	}
}

func TestKeywords(t *testing.T) {
	g := testGraph(t)
	xID, ok := g.Vocab().ID("x")
	if !ok {
		t.Fatal("x not interned")
	}
	if !g.HasKeyword(0, xID) || g.HasKeyword(3, xID) {
		t.Fatal("HasKeyword wrong")
	}
	// Keyword sets are sorted interned IDs; c was declared "y","x" but must
	// come back sorted.
	kw := g.Keywords(2)
	for i := 1; i < len(kw); i++ {
		if kw[i-1] >= kw[i] {
			t.Fatal("keywords not sorted")
		}
	}
	if got := g.KeywordStrings(3); len(got) != 0 {
		t.Fatalf("d has keywords %v", got)
	}
}

func TestInduce(t *testing.T) {
	g := testGraph(t)
	s := g.Induce([]int32{0, 1, 2})
	if s.N() != 3 || s.M() != 3 {
		t.Fatalf("induced N,M = %d,%d", s.N(), s.M())
	}
	if s.MinDegree() != 2 {
		t.Fatalf("MinDegree = %d", s.MinDegree())
	}
	if !s.IsConnected() {
		t.Fatal("triangle should be connected")
	}
	if s.AvgDegree() != 2 {
		t.Fatalf("AvgDegree = %f", s.AvgDegree())
	}
	// Disconnected induced subgraph.
	s2 := g.Induce([]int32{0, 3})
	if s2.M() != 0 || s2.IsConnected() {
		t.Fatal("0,3 should be disconnected")
	}
	// Local/parent mapping round trip.
	l, ok := s.LocalID(2)
	if !ok || s.ParentID(l) != 2 {
		t.Fatal("LocalID/ParentID mapping broken")
	}
	if _, ok := s.LocalID(3); ok {
		t.Fatal("3 is not a member")
	}
}

func TestSharedKeywords(t *testing.T) {
	g := testGraph(t)
	xID, _ := g.Vocab().ID("x")
	yID, _ := g.Vocab().ID("y")
	s := g.Induce([]int32{0, 2})
	shared := s.SharedKeywords(nil)
	want := sortDedup([]int32{xID, yID})
	if !reflect.DeepEqual(shared, want) {
		t.Fatalf("shared = %v, want %v", shared, want)
	}
	// Restricted to filter {y}.
	shared = s.SharedKeywords([]int32{yID})
	if !reflect.DeepEqual(shared, []int32{yID}) {
		t.Fatalf("filtered shared = %v", shared)
	}
	// Adding b kills y.
	s = g.Induce([]int32{0, 1, 2})
	shared = s.SharedKeywords(nil)
	if !reflect.DeepEqual(shared, []int32{xID}) {
		t.Fatalf("shared with b = %v", shared)
	}
	// Adding d (no keywords) kills everything.
	s = g.Induce([]int32{0, 1, 2, 3})
	if got := s.SharedKeywords(nil); len(got) != 0 {
		t.Fatalf("shared with d = %v", got)
	}
}

func TestTraversals(t *testing.T) {
	b := NewBuilder(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddVertexIDs(5) // isolated
	g := b.MustBuild()
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components = %d, want 3", count)
	}
	if labels[0] != labels[2] || labels[0] == labels[3] || labels[5] == labels[0] {
		t.Fatalf("labels = %v", labels)
	}
}

func TestDiameter(t *testing.T) {
	b := NewBuilder(0, 0)
	// path 0-1-2-3
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.MustBuild()
	if d := g.Diameter([]int32{0, 1, 2, 3}); d != 3 {
		t.Fatalf("Diameter = %d, want 3", d)
	}
	if d := g.Diameter([]int32{0, 1}); d != 1 {
		t.Fatalf("Diameter = %d, want 1", d)
	}
}

func TestStats(t *testing.T) {
	g := testGraph(t)
	s := g.ComputeStats()
	if s.Vertices != 4 || s.Edges != 4 || s.MinDegree != 1 || s.MaxDegree != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Components != 1 {
		t.Fatalf("components = %d", s.Components)
	}
	if s.AvgDegree != 2 {
		t.Fatalf("avg degree = %f", s.AvgDegree)
	}
}

func TestTopKeywords(t *testing.T) {
	g := testGraph(t)
	top := g.TopKeywords([]int32{0, 1, 2}, 1)
	if len(top) != 1 || g.Vocab().Word(top[0]) != "x" {
		t.Fatalf("top = %v", top)
	}
	all := g.TopKeywords([]int32{0, 1, 2}, 0)
	if len(all) != 2 {
		t.Fatalf("all = %v", all)
	}
}

func TestVocab(t *testing.T) {
	v := NewVocab()
	a := v.Intern("alpha")
	if b := v.Intern("alpha"); b != a {
		t.Fatal("re-intern changed id")
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d", v.Len())
	}
	if w := v.Word(a); w != "alpha" {
		t.Fatalf("Word = %q", w)
	}
	if _, ok := v.ID("beta"); ok {
		t.Fatal("beta should be unknown")
	}
	ids := v.InternAll([]string{"c", "b", "c", "a"})
	if len(ids) != 3 {
		t.Fatalf("InternAll dedup failed: %v", ids)
	}
	words := v.Words(ids)
	if len(words) != 3 {
		t.Fatalf("Words = %v", words)
	}
}

// TestBuildRandomValidates builds random multigraph-ish edge soups and
// checks the frozen graph always validates and preserves edge membership.
func TestBuildRandomValidates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n, 0)
		b.AddVertexIDs(int32(n - 1))
		type pair struct{ u, v int32 }
		want := map[pair]bool{}
		for i := 0; i < 3*n; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			b.AddEdge(u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				want[pair{u, v}] = true
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		if g.M() != len(want) {
			return false
		}
		for p := range want {
			if !g.HasEdge(p.u, p.v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSizeMatchesSubgraph(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		b := NewBuilder(n, 0)
		b.AddVertexIDs(int32(n - 1))
		for i := 0; i < 2*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.MustBuild()
		var vs []int32
		for v := int32(0); v < int32(n); v++ {
			if rng.Intn(2) == 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		// Count the induced edges independently of Induce.
		m := 0
		g.Edges(func(u, v int32) bool {
			if slices.Contains(vs, u) && slices.Contains(vs, v) {
				m++
			}
			return true
		})
		return g.Induce(vs).M() == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
