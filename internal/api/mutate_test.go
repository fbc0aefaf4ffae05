package api

import (
	"context"
	"errors"
	"slices"
	"testing"

	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
)

func TestDatasetMutateSuccessor(t *testing.T) {
	g := gen.GNMAttributed(30, 60, 8, 1)
	ds := NewDataset("d", g)
	ds.CoreNumbers()
	ds.Tree()

	// Pick a definitely-absent edge.
	var u, v int32 = -1, -1
findEdge:
	for a := int32(0); a < int32(g.N()); a++ {
		for b := a + 1; b < int32(g.N()); b++ {
			if !g.HasEdge(a, b) {
				u, v = a, b
				break findEdge
			}
		}
	}

	next, res, err := ds.Mutate(context.Background(), []Mutation{{Op: OpAddEdge, U: u, V: v}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || next.Version != 1 {
		t.Errorf("version = %d/%d, want 1", res.Version, next.Version)
	}
	if res.Edges != g.M()+1 || next.Graph.M() != g.M()+1 {
		t.Errorf("edge count: res %d, graph %d, want %d", res.Edges, next.Graph.M(), g.M()+1)
	}
	if res.TreeRepair != "shared" && res.TreeRepair != "rebuilt" {
		t.Errorf("tree repair %q with resident indexes", res.TreeRepair)
	}

	// Receiver untouched: same graph, same version, edge still absent.
	if ds.Graph.HasEdge(u, v) || ds.Version != 0 {
		t.Errorf("receiver mutated: HasEdge=%v version=%d", ds.Graph.HasEdge(u, v), ds.Version)
	}
	if !next.Graph.HasEdge(u, v) {
		t.Errorf("successor missing the inserted edge")
	}

	// Successor's pre-seeded indexes agree with from-scratch computation.
	if !slices.Equal(next.CoreNumbers(), kcore.Decompose(next.Graph)) {
		t.Errorf("successor core numbers diverge from rebuild")
	}
	if err := next.Tree().Validate(); err != nil {
		t.Errorf("successor tree invalid: %v", err)
	}
	if next.Indexes().Truss {
		t.Errorf("truss must be invalidated, not carried over")
	}
}

func TestDatasetMutateLazyWhenUnindexed(t *testing.T) {
	ds := NewDataset("d", gen.GNMAttributed(20, 40, 5, 2))
	next, res, err := ds.Mutate(context.Background(), []Mutation{{Op: OpAddVertex, Name: "n", Keywords: []string{"z"}}})
	if err != nil {
		t.Fatal(err)
	}
	if st := next.Indexes(); st.Core || st.CLTree || st.Truss {
		t.Errorf("unindexed base must yield unindexed successor, got %+v", st)
	}
	if res.TreeRepair != "lazy" {
		t.Errorf("tree repair %q, want lazy", res.TreeRepair)
	}
	if next.Graph.N() != ds.Graph.N()+1 {
		t.Errorf("vertex not added")
	}
	// Lazy indexes still build correctly on the successor.
	if err := next.Tree().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetMutateTypedErrors(t *testing.T) {
	ds := NewDataset("d", gen.GNMAttributed(10, 20, 5, 3))
	ctx := context.Background()
	cases := []struct {
		name string
		ops  []Mutation
		want error
	}{
		{"empty batch", nil, ErrInvalidMutation},
		{"unknown op", []Mutation{{Op: "explode"}}, ErrInvalidMutation},
		{"self loop", []Mutation{{Op: OpAddEdge, U: 1, V: 1}}, ErrInvalidMutation},
		{"out of range", []Mutation{{Op: OpAddEdge, U: 0, V: 99}}, ErrInvalidMutation},
		{"remove missing", []Mutation{{Op: OpRemoveEdge, U: 0, V: removeMissingV(ds)}}, ErrMutationConflict},
	}
	for _, tc := range cases {
		if _, _, err := ds.Mutate(ctx, tc.ops); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Duplicate insert conflicts; the batch is all-or-nothing, so an op
	// before the failure must not leak into a successor.
	g := ds.Graph
	var eu, ev int32
	g.Edges(func(a, b int32) bool { eu, ev = a, b; return false })
	_, _, err := ds.Mutate(ctx, []Mutation{
		{Op: OpAddVertex, Name: "ghost"},
		{Op: OpAddEdge, U: eu, V: ev},
	})
	if !errors.Is(err, ErrMutationConflict) {
		t.Fatalf("duplicate insert: got %v, want ErrMutationConflict", err)
	}
	if ds.Graph.N() != 10 || ds.Version != 0 {
		t.Errorf("failed batch leaked into the dataset")
	}
}

func removeMissingV(ds *Dataset) int32 {
	for v := int32(1); v < int32(ds.Graph.N()); v++ {
		if !ds.Graph.HasEdge(0, v) {
			return v
		}
	}
	return 0
}

func TestExplorerMutatePublishesAndPins(t *testing.T) {
	exp := NewExplorer()
	g := gen.GNMAttributed(40, 100, 8, 4)
	if _, err := exp.AddGraph("d", g); err != nil {
		t.Fatal(err)
	}
	before, _ := exp.Dataset("d")
	before.CoreNumbers()
	before.Tree()

	var u, v int32 = -1, -1
findEdge:
	for a := int32(0); a < int32(g.N()); a++ {
		for b := a + 1; b < int32(g.N()); b++ {
			if !g.HasEdge(a, b) {
				u, v = a, b
				break findEdge
			}
		}
	}
	res, err := exp.Mutate(context.Background(), "d", []Mutation{{Op: OpAddEdge, U: u, V: v}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 {
		t.Fatalf("version %d, want 1", res.Version)
	}
	after, _ := exp.Dataset("d")
	if after == before {
		t.Fatal("Mutate did not publish a successor")
	}
	if before.Graph.HasEdge(u, v) {
		t.Error("pinned pre-mutation dataset sees the new edge")
	}
	if !after.Graph.HasEdge(u, v) {
		t.Error("published dataset missing the new edge")
	}

	// The unknown-dataset path.
	if _, err := exp.Mutate(context.Background(), "nope", []Mutation{{Op: OpAddVertex}}); !errors.Is(err, ErrDatasetNotFound) {
		t.Errorf("unknown dataset: got %v", err)
	}

	// A search on the new version returns vertices of the new graph and the
	// old version keeps serving its own.
	comms, err := exp.Search(context.Background(), "d", "Global", Query{Vertices: []int32{u}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	_ = comms
}

func TestExplorerMutateVersionChain(t *testing.T) {
	exp := NewExplorer()
	if _, err := exp.AddGraph("d", gen.GNMAttributed(15, 20, 4, 5)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		res, err := exp.Mutate(context.Background(), "d", []Mutation{{Op: OpAddVertex}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != uint64(i) {
			t.Fatalf("batch %d produced version %d", i, res.Version)
		}
	}
	ds, _ := exp.Dataset("d")
	if ds.Graph.N() != 20 {
		t.Errorf("vertex count %d, want 20", ds.Graph.N())
	}
}

// TestNameFormFollowsTheNames: a form derived from the name table is built
// once, handed to a successor that adds no vertex, and rebuilt for one that
// does.
func TestNameFormFollowsTheNames(t *testing.T) {
	builds := 0
	count := func(g *graph.Graph) any { builds++; return g.N() }
	ds := NewDataset("d", gen.Figure5())
	if ds.NameForm(count) != 10 || ds.NameForm(count) != 10 || builds != 1 {
		t.Fatalf("built %d times on one version, want once", builds)
	}
	ctx := context.Background()
	edged, _, err := ds.Mutate(ctx, []Mutation{{Op: OpAddEdge, U: 5, V: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if edged.NameForm(count) != 10 || builds != 1 {
		t.Errorf("an edge-only successor rebuilt the form (%d builds)", builds)
	}
	grown, _, err := edged.Mutate(ctx, []Mutation{{Op: OpAddVertex, Name: "K"}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.NameForm(count) != 11 || builds != 2 {
		t.Errorf("a successor with a new vertex kept the old form (%d builds)", builds)
	}
}
