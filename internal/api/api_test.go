package api

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/layout"
)

func figure5Explorer(t testing.TB) (*Explorer, *Dataset) {
	t.Helper()
	e := NewExplorer()
	ds, err := e.AddGraph("fig5", gen.Figure5())
	if err != nil {
		t.Fatal(err)
	}
	return e, ds
}

func TestBuiltinsRegistered(t *testing.T) {
	e := NewExplorer()
	cs := strings.Join(e.CSAlgorithms(), ",")
	for _, want := range []string{"ACQ", "Global", "Local", "KTruss"} {
		if !strings.Contains(cs, want) {
			t.Fatalf("CS registry missing %s: %s", want, cs)
		}
	}
	cd := strings.Join(e.CDAlgorithms(), ",")
	if !strings.Contains(cd, "CODICIL") {
		t.Fatalf("CD registry missing CODICIL: %s", cd)
	}
}

func TestSearchACQ(t *testing.T) {
	e, _ := figure5Explorer(t)
	comms, err := e.Search(context.Background(), "fig5", "ACQ", Query{Vertices: []int32{0}, K: 2, Keywords: []string{"w", "x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != 1 {
		t.Fatalf("communities = %+v", comms)
	}
	c := comms[0]
	if c.Method != "ACQ" || len(c.Vertices) != 3 {
		t.Fatalf("community = %+v", c)
	}
	if len(c.SharedKeywords) != 2 {
		t.Fatalf("shared = %v", c.SharedKeywords)
	}
	if len(c.Theme) == 0 {
		t.Fatal("no theme")
	}
}

func TestSearchACQMultiVertex(t *testing.T) {
	e, _ := figure5Explorer(t)
	comms, err := e.Search(context.Background(), "fig5", "ACQ", Query{Vertices: []int32{0, 3}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != 1 || len(comms[0].Vertices) != 3 {
		t.Fatalf("multi = %+v", comms)
	}
}

func TestSearchUnknownKeywordsFallBack(t *testing.T) {
	e, _ := figure5Explorer(t)
	// Nonexistent keyword: ACQ treats it as an empty S → keywordless k-core.
	comms, err := e.Search(context.Background(), "fig5", "ACQ", Query{Vertices: []int32{0}, K: 2, Keywords: []string{"nosuch"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != 1 || len(comms[0].SharedKeywords) != 0 {
		t.Fatalf("fallback = %+v", comms)
	}
}

func TestSearchGlobalLocalKTruss(t *testing.T) {
	e, _ := figure5Explorer(t)
	for _, algo := range []string{"Global", "Local", "KTruss"} {
		comms, err := e.Search(context.Background(), "fig5", algo, Query{Vertices: []int32{0}, K: 3})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(comms) == 0 {
			t.Fatalf("%s returned nothing", algo)
		}
		if comms[0].Method != algo {
			t.Fatalf("%s: method = %q", algo, comms[0].Method)
		}
		// All should find the K4 for A at k=3 (KTruss interprets k as truss).
		if len(comms[0].Vertices) < 4 {
			t.Fatalf("%s: vertices = %v", algo, comms[0].Vertices)
		}
	}
}

func TestSearchErrors(t *testing.T) {
	e, _ := figure5Explorer(t)
	if _, err := e.Search(context.Background(), "nope", "ACQ", Query{Vertices: []int32{0}}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := e.Search(context.Background(), "fig5", "nope", Query{Vertices: []int32{0}}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := e.Search(context.Background(), "fig5", "ACQ", Query{}); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestDetectCODICIL(t *testing.T) {
	e, _ := figure5Explorer(t)
	comms, err := e.Detect(context.Background(), "fig5", "CODICIL")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, c := range comms {
		for _, v := range c.Vertices {
			if seen[v] {
				t.Fatalf("vertex %d in two communities", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("partition covers %d vertices", len(seen))
	}
	if _, err := e.Detect(context.Background(), "fig5", "nope"); err == nil {
		t.Fatal("unknown CD accepted")
	}
}

func TestAnalyze(t *testing.T) {
	e, _ := figure5Explorer(t)
	a, err := e.Analyze(context.Background(), "fig5", Community{Method: "ACQ", Vertices: []int32{0, 2, 3}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPJ <= 0 || a.CMF <= 0 {
		t.Fatalf("metrics = %+v", a)
	}
	if a.Stats.Vertices != 3 || a.Stats.Edges != 3 {
		t.Fatalf("stats = %+v", a.Stats)
	}
	if _, err := e.Analyze(context.Background(), "fig5", Community{}, -1); err == nil {
		t.Fatal("bad q accepted")
	}
	if _, err := e.Analyze(context.Background(), "nope", Community{}, 0); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestDisplay(t *testing.T) {
	e, _ := figure5Explorer(t)
	pl, err := e.Display(context.Background(), "fig5", Community{Vertices: []int32{0, 1, 2, 3}}, layout.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Points) != 4 || len(pl.Vertices) != 4 || len(pl.Names) != 4 {
		t.Fatalf("placement = %+v", pl)
	}
	if len(pl.Edges) != 6 {
		t.Fatalf("K4 edges = %d", len(pl.Edges))
	}
	if pl.Names[0] != "A" {
		t.Fatalf("names = %v", pl.Names)
	}
	if _, err := e.Display(context.Background(), "nope", Community{}, layout.Options{}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestUploadJSON(t *testing.T) {
	e := NewExplorer()
	jg := gen.Figure5().ToJSONGraph("fig5")
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(jg); err != nil {
		t.Fatal(err)
	}
	ds, err := e.Upload("uploaded", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.N() != 10 {
		t.Fatalf("uploaded N = %d", ds.Graph.N())
	}
	if got := e.Datasets(); len(got) != 1 || got[0] != "uploaded" {
		t.Fatalf("datasets = %v", got)
	}
	if _, err := e.Upload("bad", strings.NewReader("{")); err == nil {
		t.Fatal("bad json accepted")
	}
	if _, err := e.AddGraph("", gen.Figure5()); err == nil {
		t.Fatal("empty name accepted")
	}
}

// customCS is a user plugin: returns q's neighborhood as the community —
// the "plug in her own CR solution" path of §1.
type customCS struct{}

func (customCS) Name() string { return "Neighborhood" }

func (customCS) Search(ctx context.Context, ds *Dataset, q Query) ([]Community, error) {
	v := q.Vertices[0]
	vs := append([]int32{v}, ds.Graph.Neighbors(v)...)
	return []Community{{Method: "Neighborhood", Vertices: vs}}, nil
}

func TestCustomPluginRegistration(t *testing.T) {
	e, _ := figure5Explorer(t)
	e.RegisterCS(customCS{})
	comms, err := e.Search(context.Background(), "fig5", "Neighborhood", Query{Vertices: []int32{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != 1 || len(comms[0].Vertices) != 5 { // A + B,C,D,G
		t.Fatalf("plugin result = %+v", comms)
	}
}

func TestDatasetLazyIndexes(t *testing.T) {
	g := gen.Figure5()
	ds := NewDataset("x", g)
	if tr := ds.Tree(); tr == nil || tr.NumNodes() == 0 {
		t.Fatal("Tree not built")
	}
	if c := ds.CoreNumbers(); len(c) != g.N() {
		t.Fatal("CoreNumbers wrong")
	}
	if td := ds.Truss(); td.MaxTruss() != 4 {
		t.Fatal("Truss wrong")
	}
	// Second calls hit the cache (same pointer).
	if ds.Tree() != ds.Tree() {
		t.Fatal("Tree not cached")
	}
}

func TestVertexNameResolutionViaGraph(t *testing.T) {
	var _ *graph.Graph = gen.Figure5() // type sanity
}
