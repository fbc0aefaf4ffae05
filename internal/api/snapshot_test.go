package api

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"cexplorer/internal/core"
	"cexplorer/internal/gen"
)

// roundTrip freezes ds to a snapshot and opens it back as a new dataset.
func roundTrip(t *testing.T, ds *Dataset) *Dataset {
	t.Helper()
	var buf bytes.Buffer
	n, err := ds.WriteSnapshot(&buf)
	if err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("write reported %d bytes, buffer has %d", n, buf.Len())
	}
	got, err := OpenSnapshot("", &buf)
	if err != nil {
		t.Fatalf("open snapshot: %v", err)
	}
	return got
}

// TestSnapshotRoundTripSearchFidelity is the round-trip acceptance test:
// upload → snapshot → reload must yield a graph that passes Validate and
// gives byte-identical results for every search algorithm, against both the
// worked example and a DBLP-like graph.
func TestSnapshotRoundTripSearchFidelity(t *testing.T) {
	cfg := gen.DefaultDBLPConfig()
	cfg.Authors = 1500
	cfg.Seed = 5
	for _, tc := range []struct {
		name string
		ds   *Dataset
		k    int
	}{
		{"figure5", NewDataset("figure5", gen.Figure5()), 2},
		{"dblp", NewDataset("dblp", gen.GenerateDBLP(cfg).Graph), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := tc.ds
			loaded := roundTrip(t, orig)

			if loaded.Name != tc.name {
				t.Fatalf("loaded name = %q, want %q", loaded.Name, tc.name)
			}
			if loaded.Info.Source != "snapshot" {
				t.Fatalf("loaded source = %q", loaded.Info.Source)
			}
			st := loaded.Indexes()
			if !st.CLTree || !st.Core || !st.Truss {
				t.Fatalf("loaded dataset indexes not pre-seeded: %+v", st)
			}
			if err := loaded.Graph.Validate(); err != nil {
				t.Fatalf("loaded graph invalid: %v", err)
			}
			if err := loaded.Tree().Validate(); err != nil {
				t.Fatalf("loaded CL-tree invalid: %v", err)
			}

			algos := []CSAlgorithm{
				&ACQAlgorithm{Variant: core.Dec},
				&ACQAlgorithm{Variant: core.IncS},
				&ACQAlgorithm{Variant: core.IncT},
				GlobalAlgorithm{},
				KTrussAlgorithm{},
			}
			n := orig.Graph.N()
			stride := n/7 + 1
			for _, a := range algos {
				for q := 0; q < n; q += stride {
					query := Query{Vertices: []int32{int32(q)}, K: tc.k}
					want, werr := a.Search(context.Background(), orig, query)
					got, gerr := a.Search(context.Background(), loaded, query)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("%s q=%d: error mismatch: %v vs %v", a.Name(), q, werr, gerr)
					}
					if werr != nil {
						continue
					}
					wj, _ := json.Marshal(want)
					gj, _ := json.Marshal(got)
					if !bytes.Equal(wj, gj) {
						t.Fatalf("%s q=%d: results differ:\noriginal: %s\nreloaded: %s",
							a.Name(), q, wj, gj)
					}
				}
			}
		})
	}
}

// TestWarmOpenDoesNoIndexBuildWork: a dataset opened from a snapshot arrives
// with every index pre-seeded and pays no build — not at open, not when the
// first search of each kind reaches for its index. (The wall-clock side of
// this, warm open vs cold start, is the harness's snapshot.warm_vs_cold_ratio.)
func TestWarmOpenDoesNoIndexBuildWork(t *testing.T) {
	cfg := gen.DefaultDBLPConfig()
	cfg.Authors = 1500
	cfg.Seed = 5
	loaded := roundTrip(t, NewDataset("dblp", gen.GenerateDBLP(cfg).Graph))
	if st := loaded.Indexes(); !st.CLTree || !st.Core || !st.Truss {
		t.Fatalf("indexes not pre-seeded: %+v", st)
	}
	for _, a := range []CSAlgorithm{&ACQAlgorithm{}, GlobalAlgorithm{}, LocalAlgorithm{}, KTrussAlgorithm{}} {
		if _, err := a.Search(context.Background(), loaded, Query{Vertices: []int32{0}, K: 3}); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
	}
	loaded.BuildIndexes()
	if got := loaded.BuildTimings(); got != (IndexTimings{}) {
		t.Fatalf("warm-opened dataset spent time building indexes: %+v", got)
	}
}

// TestOpenSnapshotNameOverride checks the name precedence rules.
func TestOpenSnapshotNameOverride(t *testing.T) {
	ds := NewDataset("embedded", gen.Figure5())
	var buf bytes.Buffer
	if _, err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	data := buf.Bytes()

	got, err := OpenSnapshot("", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got.Name != "embedded" {
		t.Fatalf("name = %q, want embedded", got.Name)
	}
	got, err = OpenSnapshot("override", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got.Name != "override" {
		t.Fatalf("name = %q, want override", got.Name)
	}
}

// TestAddDataset registers a snapshot-loaded dataset and searches through
// the Explorer front door.
func TestAddDataset(t *testing.T) {
	exp := NewExplorer()
	src, err := exp.AddGraph("g", gen.Figure5())
	if err != nil {
		t.Fatalf("add graph: %v", err)
	}
	loaded := roundTrip(t, src)
	if err := exp.AddDataset(loaded); err != nil {
		t.Fatalf("add dataset: %v", err)
	}
	ds, ok := exp.Dataset("g")
	if !ok || ds != loaded {
		t.Fatalf("registered dataset not returned")
	}
	comms, err := exp.Search(context.Background(), "g", "ACQ", Query{Vertices: []int32{0}, K: 2})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if len(comms) == 0 {
		t.Fatalf("no communities from snapshot-loaded dataset")
	}
	if err := exp.AddDataset(nil); err == nil {
		t.Fatalf("AddDataset(nil) succeeded")
	}
	if err := exp.AddDataset(&Dataset{Name: "x"}); err == nil {
		t.Fatalf("AddDataset with nil graph succeeded")
	}
}

// TestLazyBuildStillWorks pins the "load if present, else build" behavior:
// a dataset built in process reports no indexes until they are first used.
func TestLazyBuildStillWorks(t *testing.T) {
	ds := NewDataset("lazy", gen.Figure5())
	if st := ds.Indexes(); st.CLTree || st.Core || st.Truss {
		t.Fatalf("fresh dataset claims resident indexes: %+v", st)
	}
	ds.Tree()
	if st := ds.Indexes(); !st.CLTree || st.Truss {
		t.Fatalf("after Tree(): %+v", st)
	}
	ds.BuildIndexes()
	if st := ds.Indexes(); !st.CLTree || !st.Core || !st.Truss {
		t.Fatalf("after BuildIndexes(): %+v", st)
	}
}
