package cltree

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
)

// TestBuildFigure5 checks the CL-tree against Figure 5(b) of the paper:
// root (core 0) holds J; one child subtree is FG→E→ABCD; the other is HI.
func TestBuildFigure5(t *testing.T) {
	g := gen.Figure5()
	tr := Build(g)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if root.Core != 0 {
		t.Fatalf("root core = %d", root.Core)
	}
	if names := vertexNames(g, root.Vertices); !reflect.DeepEqual(names, []string{"J"}) {
		t.Fatalf("root vertices = %v, want [J]", names)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	// Children sorted by min vertex: the A-side subtree first, then H-I.
	fg := root.Children[0]
	hi := root.Children[1]
	if names := vertexNames(g, fg.Vertices); !reflect.DeepEqual(names, []string{"F", "G"}) {
		t.Fatalf("level-1 node = %v, want [F G]", names)
	}
	if names := vertexNames(g, hi.Vertices); !reflect.DeepEqual(names, []string{"H", "I"}) {
		t.Fatalf("second level-1 node = %v, want [H I]", names)
	}
	if len(fg.Children) != 1 || len(hi.Children) != 0 {
		t.Fatalf("children counts wrong: %d, %d", len(fg.Children), len(hi.Children))
	}
	e := fg.Children[0]
	if e.Core != 2 || !reflect.DeepEqual(vertexNames(g, e.Vertices), []string{"E"}) {
		t.Fatalf("level-2 node = %v core %d", vertexNames(g, e.Vertices), e.Core)
	}
	if len(e.Children) != 1 {
		t.Fatalf("E children = %d", len(e.Children))
	}
	abcd := e.Children[0]
	if abcd.Core != 3 || !reflect.DeepEqual(vertexNames(g, abcd.Vertices), []string{"A", "B", "C", "D"}) {
		t.Fatalf("leaf = %v core %d", vertexNames(g, abcd.Vertices), abcd.Core)
	}
	if tr.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", tr.NumNodes())
	}
	if tr.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", tr.Depth())
	}
}

func vertexNames(g *graph.Graph, vs []int32) []string {
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = g.Name(v)
	}
	sort.Strings(names)
	return names
}

func TestInvertedLists(t *testing.T) {
	g := gen.Figure5()
	tr := Build(g)
	// The ABCD node: keyword x appears on A,B,C,D; w only on A; z only on D.
	abcd := tr.NodeOf(0)
	w, _ := g.Vocab().ID("w")
	x, _ := g.Vocab().ID("x")
	z, _ := g.Vocab().ID("z")
	if got := len(abcd.VerticesWithKeyword(x)); got != 4 {
		t.Fatalf("count(x) = %d, want 4", got)
	}
	if got := abcd.VerticesWithKeyword(w); len(got) != 1 || got[0] != 0 {
		t.Fatalf("vertices(w) = %v", got)
	}
	if got := len(abcd.VerticesWithKeyword(z)); got != 1 {
		t.Fatalf("count(z) = %d", got)
	}
	// Subtree counts include descendants: from the FG node, y covers
	// F,G,E,A,C,D = 6.
	y, _ := g.Vocab().ID("y")
	fg := tr.NodeOf(5)
	vs := tr.SubtreeKeywordVertices(fg, y, nil)
	if len(vs) != 6 {
		t.Fatalf("subtree vertices(y) = %v", vs)
	}
}

func TestAnchor(t *testing.T) {
	g := gen.Figure5()
	tr := Build(g)
	// Anchor(A, 2) roots the 2-core component {A,B,C,D,E}.
	a := tr.Anchor(0, 2)
	if a == nil || a.Core != 2 {
		t.Fatalf("Anchor(A,2) = %+v", a)
	}
	vs := tr.SubtreeVertices(a, nil)
	if len(vs) != 5 {
		t.Fatalf("subtree = %v", vs)
	}
	// Anchor(A, 1) roots the whole left component {A..G}.
	a = tr.Anchor(0, 1)
	if a == nil || a.Core != 1 || len(tr.SubtreeVertices(a, nil)) != 7 {
		t.Fatalf("Anchor(A,1) wrong")
	}
	// Anchor(A, 0) is the root (whole graph, by the Figure-5 convention).
	if a = tr.Anchor(0, 0); a != tr.Root() {
		t.Fatal("Anchor(A,0) should be root")
	}
	// Anchor(F, 2): core(F)=1 < 2 → nil.
	if a = tr.Anchor(5, 2); a != nil {
		t.Fatalf("Anchor(F,2) = %+v", a)
	}
	// Out of range q.
	if tr.Anchor(-1, 0) != nil || tr.Anchor(99, 0) != nil {
		t.Fatal("out-of-range anchor should be nil")
	}
}

func randomAttributedGraph(rng *rand.Rand, n int) *graph.Graph {
	words := []string{"w", "x", "y", "z", "p", "q"}
	b := graph.NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		nk := rng.Intn(4)
		kws := make([]string, 0, nk)
		for j := 0; j < nk; j++ {
			kws = append(kws, words[rng.Intn(len(words))])
		}
		b.AddVertex("", kws...)
	}
	m := rng.Intn(4 * n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.MustBuild()
}

// TestBuildValidatesRandom: the full invariant suite on random graphs —
// partition, core agreement, child ordering, subtree==component, inverted
// list fidelity.
func TestBuildValidatesRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAttributedGraph(rng, 2+rng.Intn(80))
		tr := Build(g)
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAnchorMatchesConnectedKCore: for random (q,k), the anchor subtree must
// equal the connected k-core component of q.
func TestAnchorMatchesConnectedKCore(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAttributedGraph(rng, 2+rng.Intn(60))
		tr := Build(g)
		core := tr.CoreNumbers()
		for trial := 0; trial < 10; trial++ {
			q := int32(rng.Intn(g.N()))
			k := int32(rng.Intn(4))
			anchor := tr.Anchor(q, k)
			want := kcore.ConnectedKCore(g, core, q, k)
			if k == 0 {
				// Convention: anchor(·,0) is the whole graph as one root.
				if anchor != tr.Root() {
					return false
				}
				continue
			}
			if anchor == nil {
				if want != nil {
					return false
				}
				continue
			}
			got := tr.SubtreeVertices(anchor, nil)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g := gen.GenerateDBLP(gen.SmallDBLPConfig()).Graph
	tr := Build(g)
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	tr2, err := Read(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr2.NumNodes() != tr.NumNodes() || tr2.Depth() != tr.Depth() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			tr2.NumNodes(), tr2.Depth(), tr.NumNodes(), tr.Depth())
	}
	if !reflect.DeepEqual(tr.CoreNumbers(), tr2.CoreNumbers()) {
		t.Fatal("core numbers differ after round trip")
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	g := gen.Figure5()
	tr := Build(g)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := Read(bytes.NewReader([]byte("XXXX")), g); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader(good[:8]), g); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := Read(bytes.NewReader(good[:len(good)-3]), g); err == nil {
		t.Fatal("truncated body accepted")
	}
	// Wrong graph size.
	b := graph.NewBuilder(0, 0)
	b.AddEdge(0, 1)
	other := b.MustBuild()
	if _, err := Read(bytes.NewReader(good), other); err == nil {
		t.Fatal("graph size mismatch accepted")
	}
}

// TestLinearGrowth sanity-checks the linear space/time claim at small
// scale: doubling n should not quadruple index size.
func TestLinearGrowth(t *testing.T) {
	g1 := gen.GNM(2000, 8000, 3)
	g2 := gen.GNM(4000, 16000, 3)
	b1 := Build(g1).Bytes()
	b2 := Build(g2).Bytes()
	ratio := float64(b2) / float64(b1)
	if ratio > 3.0 {
		t.Fatalf("index growth ratio %.2f for 2x input: not linear", ratio)
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := gen.GenerateDBLP(gen.SmallDBLPConfig()).Graph
	t1, t2 := Build(g), Build(g)
	var b1, b2 bytes.Buffer
	if _, err := t1.WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two builds of the same graph serialized differently")
	}
}
