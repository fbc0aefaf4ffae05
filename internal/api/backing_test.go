package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"cexplorer/internal/gen"
	"cexplorer/internal/layout"
	"cexplorer/internal/snapshot"
)

// openMmapDataset persists ds as a v3 snapshot and reopens it strictly
// mmap-backed, skipping the test where the platform has no mmap.
func openMmapDataset(t *testing.T, ds *Dataset) *Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.cxsnap")
	if _, err := ds.WriteSnapshotFile(path); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	got, err := OpenSnapshotFileMode("", path, snapshot.OpenMmap)
	if err != nil {
		if _, _, merr := snapshot.OpenFile(path, snapshot.OpenMmap); merr != nil && !errors.Is(merr, snapshot.ErrNotZeroCopy) {
			t.Skipf("mmap unavailable: %v", merr)
		}
		t.Fatalf("mmap open: %v", err)
	}
	return got
}

// searchJSON runs one ACQ search and returns the marshaled answer.
func searchJSON(t *testing.T, e *Explorer, dataset string, q Query) []byte {
	t.Helper()
	comms, err := e.Search(context.Background(), dataset, "ACQ", q)
	if err != nil {
		t.Fatalf("search %s: %v", dataset, err)
	}
	out, _ := json.Marshal(comms)
	return out
}

func TestMmapDatasetServesQueries(t *testing.T) {
	heap := NewDataset("g", gen.Figure5())
	mapped := openMmapDataset(t, heap)
	defer mapped.Close()

	if mapped.Info.OpenMode != "mmap" || mapped.Info.MappedBytes <= 0 {
		t.Fatalf("Info = mode %q, %d mapped bytes", mapped.Info.OpenMode, mapped.Info.MappedBytes)
	}
	if mb := mapped.MappedBytes(); mb != mapped.Info.MappedBytes {
		t.Fatalf("MappedBytes() = %d, Info says %d", mb, mapped.Info.MappedBytes)
	}
	if !mapped.Graph.Borrowed() {
		t.Fatalf("mmap-opened graph not borrowed")
	}

	exp := NewExplorer()
	for _, ds := range []*Dataset{heap, mapped} {
		if err := exp.AddDataset(ds); err != nil {
			t.Fatalf("add %s: %v", ds.Name, err)
		}
	}
	// Same answers off the mapping as off the heap, across entry points
	// that touch adjacency, keyword arenas, and name contents.
	q := Query{Vertices: []int32{0}, K: 2}
	if want, got := searchJSON(t, exp, "g", q), searchJSON(t, exp, "g", q); !bytes.Equal(want, got) {
		t.Fatalf("mmap search diverges from heap:\n%s\n%s", want, got)
	}
	comms, err := exp.Search(context.Background(), "g", "ACQ", q)
	if err != nil || len(comms) == 0 {
		t.Fatalf("search for analyze: %v (%d communities)", err, len(comms))
	}
	if _, err := exp.Analyze(context.Background(), "g", comms[0], 0); err != nil {
		t.Fatalf("analyze on mmap dataset: %v", err)
	}
	if _, err := exp.Display(context.Background(), "g", comms[0], layout.Options{}); err != nil {
		t.Fatalf("display on mmap dataset: %v", err)
	}
}

func TestPinAfterCloseFails(t *testing.T) {
	mapped := openMmapDataset(t, NewDataset("g", gen.Figure5()))
	unpin, err := mapped.Pin()
	if err != nil {
		t.Fatalf("pin live dataset: %v", err)
	}
	unpin()
	unpin() // release must be idempotent

	if err := mapped.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := mapped.Pin(); !errors.Is(err, ErrDatasetClosed) {
		t.Fatalf("pin after close = %v, want ErrDatasetClosed", err)
	} else if ErrorCode(err) != "dataset_closed" {
		t.Fatalf("error code = %q", ErrorCode(err))
	}
	if mb := mapped.MappedBytes(); mb != 0 {
		t.Fatalf("MappedBytes after close = %d", mb)
	}

	// The explorer front door surfaces the typed error too.
	exp := NewExplorer()
	if err := exp.AddDataset(mapped); err != nil {
		t.Fatalf("add: %v", err)
	}
	_, err = exp.Search(context.Background(), "g", "ACQ", Query{Vertices: []int32{0}, K: 2})
	if !errors.Is(err, ErrDatasetClosed) {
		t.Fatalf("search on closed dataset = %v, want ErrDatasetClosed", err)
	}
}

// TestCloseWhilePinnedRace hammers searches while Close lands mid-flight:
// every request must either finish normally (it pinned the mapping first)
// or fail with the typed closed error — never touch unmapped pages. Run
// with -race to check the pin/close handoff.
func TestCloseWhilePinnedRace(t *testing.T) {
	mapped := openMmapDataset(t, NewDataset("g", gen.Figure5()))
	exp := NewExplorer()
	if err := exp.AddDataset(mapped); err != nil {
		t.Fatalf("add: %v", err)
	}

	const searchers = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
	)
	start.Add(1)
	done.Add(searchers)
	errs := make(chan error, searchers*64)
	for i := 0; i < searchers; i++ {
		go func(seed int) {
			defer done.Done()
			start.Wait()
			for j := 0; j < 64; j++ {
				q := Query{Vertices: []int32{int32((seed + j) % 6)}, K: 2}
				if _, err := exp.Search(context.Background(), "g", "ACQ", q); err != nil && !errors.Is(err, ErrDatasetClosed) {
					errs <- err
					return
				}
			}
		}(i)
	}
	start.Done()
	mapped.Close()
	done.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("search during close: %v", err)
	}
}

// TestMutateDetachesFromMapping proves a mutation successor owns all of its
// memory: after the mapped base is closed (and its pages gone), the
// successor keeps answering, identically to a heap-built twin — including
// the k-truss search over the truss it carried from the mapped base.
func TestMutateDetachesFromMapping(t *testing.T) {
	g := gen.Figure5()
	mapped := openMmapDataset(t, NewDataset("g", g))
	if st := mapped.Indexes(); !st.CLTree || !st.Truss {
		t.Fatalf("mapped base holds no tree or truss: %+v", st)
	}
	ops := []Mutation{
		{Op: OpAddVertex, Name: "newcomer", Keywords: []string{"db"}},
		{Op: OpAddEdge, U: 0, V: int32(g.N())},
		{Op: OpRemoveEdge, U: 0, V: 1},
	}
	next, res, err := mapped.Mutate(context.Background(), ops)
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	if res.Applied != len(ops) {
		t.Fatalf("applied %d of %d ops", res.Applied, len(ops))
	}
	// The mapped base holds a tree, but Repair is skipped on a borrowed
	// base: the successor's tree stays lazy and rebuilds on the heap.
	if res.TreeRepair != "lazy" || next.Indexes().CLTree {
		t.Fatalf("borrowed base: treeRepair %q, successor indexes %+v; want lazy, no tree", res.TreeRepair, next.Indexes())
	}
	if !next.Indexes().Truss {
		t.Fatalf("successor of a truss-resident mapped base carries no truss")
	}
	if next.Graph.Borrowed() {
		t.Fatalf("successor graph still borrows the mapping")
	}
	if next.Info.OpenMode != "" || next.Info.MappedBytes != 0 || next.MappedBytes() != 0 {
		t.Fatalf("successor Info claims a mapping: mode %q, %d bytes", next.Info.OpenMode, next.Info.MappedBytes)
	}

	// Heap twin: same base graph, same ops, never near a mapping.
	twin, _, err := NewDataset("g", g).Mutate(context.Background(), ops)
	if err != nil {
		t.Fatalf("twin mutate: %v", err)
	}

	// Unmap the base, then touch everything the successor has: adjacency,
	// names, keywords, and a fresh index build.
	mapped.Close()
	if err := next.Graph.Validate(); err != nil {
		t.Fatalf("successor graph invalid after base close: %v", err)
	}
	exp := NewExplorer()
	if err := exp.AddDataset(next); err != nil {
		t.Fatalf("add successor: %v", err)
	}
	expTwin := NewExplorer()
	if err := expTwin.AddDataset(twin); err != nil {
		t.Fatalf("add twin: %v", err)
	}
	for q := 0; q < next.Graph.N(); q += 2 {
		query := Query{Vertices: []int32{int32(q)}, K: 2}
		got := searchJSON(t, exp, "g", query)
		want := searchJSON(t, expTwin, "g", query)
		if !bytes.Equal(got, want) {
			t.Fatalf("q=%d: successor diverges from heap twin:\n%s\n%s", q, got, want)
		}
	}
	nc, err := exp.Search(context.Background(), "g", "ACQ", Query{Vertices: []int32{int32(g.N())}, K: 1})
	if err != nil || len(nc) == 0 {
		t.Fatalf("search from new vertex: %v (%d communities)", err, len(nc))
	}
	if _, err := exp.Display(context.Background(), "g", nc[0], layout.Options{}); err != nil {
		t.Fatalf("display touching new vertex name: %v", err)
	}
	// The carried truss survives the unmap: it equals a rebuild and answers
	// k-truss searches exactly as the twin's lazily built one does.
	checkCarriedTruss(t, next, "successor after base close")
	for q := 0; q < next.Graph.N(); q++ {
		for k := 2; k <= 4; k++ {
			query := Query{Vertices: []int32{int32(q)}, K: k}
			got, err := exp.Search(context.Background(), "g", "KTruss", query)
			if err != nil {
				t.Fatalf("ktruss q=%d k=%d: %v", q, k, err)
			}
			want, err := expTwin.Search(context.Background(), "g", "KTruss", query)
			if err != nil {
				t.Fatalf("twin ktruss q=%d k=%d: %v", q, k, err)
			}
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("ktruss q=%d k=%d: successor diverges from heap twin:\n%s\n%s", q, k, gotJSON, wantJSON)
			}
		}
	}
}

// TestMutateLeavesTrussLazyWithoutOne: a base holding no truss — heap-built
// with only the core indexes, or mapped from a snapshot that carries none —
// yields a successor with none, and Mutate builds none.
func TestMutateLeavesTrussLazyWithoutOne(t *testing.T) {
	heap := NewDataset("g", gen.GNMAttributed(200, 900, 8, 4))
	heap.Tree()
	heap.CoreNumbers()
	path := filepath.Join(t.TempDir(), "resident.cxsnap")
	if _, err := heap.WriteResidentSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSnapshotFileMode("", path, snapshot.OpenAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	var u, v int32
	heap.Graph.Edges(func(a, b int32) bool { u, v = a, b; return false })
	for _, base := range []*Dataset{heap, mapped} {
		if base.Indexes().Truss {
			t.Fatalf("%q base holds a truss", base.Info.OpenMode)
		}
		built := BuildTotals().TrussMS
		next, _, err := base.Mutate(context.Background(), []Mutation{{Op: OpRemoveEdge, U: u, V: v}, {Op: OpAddEdge, U: u, V: v}})
		if err != nil {
			t.Fatal(err)
		}
		if next.Indexes().Truss || base.Indexes().Truss {
			t.Fatalf("%q base: Mutate left a truss (base %v, successor %v)", base.Info.OpenMode, base.Indexes().Truss, next.Indexes().Truss)
		}
		if now := BuildTotals().TrussMS; now != built {
			t.Fatalf("%q base: Mutate built a truss (totals %.2f -> %.2f ms)", base.Info.OpenMode, built, now)
		}
	}
}

// TestExploreSessionOutlivesClose pins the mapping through an exploration
// session: the session took its own pin at creation, so closing the dataset
// does not pull pages out from under subsequent steps.
func TestExploreSessionOutlivesClose(t *testing.T) {
	mapped := openMmapDataset(t, NewDataset("g", gen.Figure5()))
	exp := NewExplorer()
	if err := exp.AddDataset(mapped); err != nil {
		t.Fatalf("add: %v", err)
	}
	st, err := exp.Explore(context.Background(), "g", Query{Vertices: []int32{0}, K: 2})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	mapped.Close()
	if _, err := exp.ExploreStep(context.Background(), "g", st.ID, "expand", 0); err != nil {
		t.Fatalf("step after dataset close: %v", err)
	}
	if err := exp.ExploreClose("g", st.ID); err != nil {
		t.Fatalf("close session: %v", err)
	}
	// New sessions on the closed dataset must fail typed, not crash.
	if _, err := exp.Explore(context.Background(), "g", Query{Vertices: []int32{0}, K: 2}); !errors.Is(err, ErrDatasetClosed) {
		t.Fatalf("explore on closed dataset = %v, want ErrDatasetClosed", err)
	}
}
