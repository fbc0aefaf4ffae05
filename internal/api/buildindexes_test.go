package api

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"cexplorer/internal/gen"
	"cexplorer/internal/ktruss"
	"cexplorer/internal/par"
	"cexplorer/internal/snapshot"
)

// TestBuildIndexesConcurrentWithSearches races an eager BuildIndexes (which
// builds CL-tree, core, and truss concurrently) against searches that
// trigger the same lazy builds on their own goroutines. Every combination
// must produce consistent results — each index's slot is filled once, which
// is the contract — and the run is meaningful under -race, where any
// unsynchronized build would trip the detector.
func TestBuildIndexesConcurrentWithSearches(t *testing.T) {
	d := gen.GenerateDBLP(gen.SmallDBLPConfig())
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par.SetWorkers(workers)
			defer par.SetWorkers(0)
			ds := NewDataset("dblp", d.Graph)

			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for i := 0; i < 3; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ds.BuildIndexes()
				}()
			}
			algos := []CSAlgorithm{
				&ACQAlgorithm{},
				GlobalAlgorithm{},
				KTrussAlgorithm{},
			}
			for i := 0; i < 9; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					q := Query{Vertices: []int32{int32((i * 131) % ds.Graph.N())}, K: 2 + i%3}
					if _, err := algos[i%len(algos)].Search(context.Background(), ds, q); err != nil {
						errs <- fmt.Errorf("search %d: %w", i, err)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			st := ds.Indexes()
			if !st.CLTree || !st.Core || !st.Truss {
				t.Fatalf("indexes not all resident after BuildIndexes: %+v", st)
			}
			tm := ds.BuildTimings()
			if tm.CLTreeMS <= 0 || tm.CoreMS <= 0 || tm.TrussMS <= 0 {
				t.Fatalf("build timings not recorded: %+v", tm)
			}

			// The concurrently built truss must equal a serial rebuild.
			want, err := ktruss.DecomposeParallel(context.Background(), d.Graph, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, gotTruss := ds.Truss().Parts()
			_, wantTruss := want.Parts()
			for id := range gotTruss {
				if gotTruss[id] != wantTruss[id] {
					t.Fatalf("edge %d: concurrent build trussness %d, serial %d", id, gotTruss[id], wantTruss[id])
				}
			}
		})
	}
}

// TestSuccessorPaysOnlyForWhatItRebuilds: a fresh dataset reports zero
// build cost; a mutation successor of a fully indexed base arrives with the
// tree, core numbers and truss all carried from its predecessor at zero
// build cost, so it rebuilds nothing — per version or in the process totals
// — and reads a resident index without allocating. A successor's lazily
// built index still reports its own cost.
func TestSuccessorPaysOnlyForWhatItRebuilds(t *testing.T) {
	ds := NewDataset("d", gen.GNMAttributed(300, 1200, 8, 3))
	if tm := ds.BuildTimings(); tm != (IndexTimings{}) {
		t.Fatalf("fresh dataset reports nonzero timings: %+v", tm)
	}
	ds.BuildIndexes()
	var eu, ev int32
	ds.Graph.Edges(func(a, b int32) bool { eu, ev = a, b; return false })
	before := BuildTotals()
	next, _, err := ds.Mutate(context.Background(), []Mutation{{Op: OpRemoveEdge, U: eu, V: ev}})
	if err != nil {
		t.Fatal(err)
	}
	if st := next.Indexes(); st != (IndexStatus{CLTree: true, Core: true, Truss: true}) {
		t.Fatalf("successor indexes %+v, want CLTree, Core and Truss carried", st)
	}
	next.Tree()
	next.CoreNumbers()
	next.Truss()
	if tm := next.BuildTimings(); tm != (IndexTimings{}) {
		t.Fatalf("successor reports build cost for carried indexes: %+v", tm)
	}
	if after := BuildTotals(); after != before {
		t.Fatalf("build totals %+v -> %+v across a write and reads of carried indexes, want unchanged", before, after)
	}

	if n := testing.AllocsPerRun(100, func() {
		next.Tree()
		next.CoreNumbers()
		next.Truss()
	}); n != 0 {
		t.Fatalf("resident index reads allocate %.1f times per run, want 0", n)
	}

	// A base holding no truss leaves its successor's lazy: the successor
	// pays, per version and in the totals, for that build alone.
	bare := NewDataset("d", ds.Graph)
	bare.Tree()
	bare.CoreNumbers()
	lazy, _, err := bare.Mutate(context.Background(), []Mutation{{Op: OpRemoveEdge, U: eu, V: ev}})
	if err != nil {
		t.Fatal(err)
	}
	if st := lazy.Indexes(); st != (IndexStatus{CLTree: true, Core: true}) {
		t.Fatalf("successor of a truss-less base: indexes %+v, want CLTree and Core only", st)
	}
	before = BuildTotals()
	lazy.Truss()
	if tm := lazy.BuildTimings(); tm.TrussMS <= 0 || tm.CLTreeMS != 0 || tm.CoreMS != 0 {
		t.Fatalf("successor timings after Truss(): %+v, want only TrussMS > 0", tm)
	}
	after := BuildTotals()
	if after.TrussMS <= before.TrussMS || after.CLTreeMS != before.CLTreeMS || after.CoreMS != before.CoreMS {
		t.Fatalf("build totals %+v -> %+v, want only TrussMS to grow", before, after)
	}
}

// TestResidentReadsRaceLazyBuilds races the no-build readers — the
// resident-index snapshot, Indexes and BuildTimings — against BuildIndexes.
// Every snapshot taken must decode and carry an index only if it was
// resident: always when it was resident before the write, never when it was
// not resident after.
func TestResidentReadsRaceLazyBuilds(t *testing.T) {
	ds := NewDataset("d", gen.GNMAttributed(2000, 8000, 16, 5))
	built := make(chan struct{})
	go func() {
		defer close(built)
		ds.BuildIndexes()
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Snapshot throughout the builds, then once more after them.
			for i, last := 0, false; !last; i++ {
				select {
				case <-built:
					last = true
				default:
				}
				ds.BuildTimings()
				pre := ds.Indexes()
				var buf bytes.Buffer
				if _, err := ds.WriteResidentSnapshot(&buf); err != nil {
					errs <- err
					return
				}
				post := ds.Indexes()
				s, err := snapshot.Read(&buf)
				if err != nil {
					errs <- fmt.Errorf("snapshot %d does not decode: %w", i, err)
					return
				}
				got := IndexStatus{CLTree: s.Tree != nil, Core: s.Core != nil, Truss: s.Truss != nil}
				for _, c := range []struct {
					name           string
					pre, got, post bool
				}{
					{"cltree", pre.CLTree, got.CLTree, post.CLTree},
					{"core", pre.Core, got.Core, post.Core},
					{"truss", pre.Truss, got.Truss, post.Truss},
				} {
					if (c.pre && !c.got) || (c.got && !c.post) {
						errs <- fmt.Errorf("snapshot %d: %s resident before %v, carried %v, resident after %v", i, c.name, c.pre, c.got, c.post)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := ds.Indexes(); st != (IndexStatus{CLTree: true, Core: true, Truss: true}) {
		t.Fatalf("indexes after BuildIndexes: %+v", st)
	}
}
