package api

// Serve-time speed layer benchmarks (numbers in the speed-layer entry of
// CHANGES.md):
//
// BenchmarkHotQueryUncached vs BenchmarkHotQueryCached: throughput of a
// repeated ACQ query with and without the result cache. The cached run also
// proves singleflight: the computation count must equal the number of
// distinct (version, query) pairs the run touched (here: 1).
//
// The batched-ingestion counterpart lives in internal/server — batching's
// win is at the serving layer (one journal fsync per batch).
//
// Run: go test -bench HotQuery -cpu 1,2 ./internal/api

import (
	"context"
	"testing"

	"cexplorer/internal/gen"
)

// benchExplorer serves a mid-sized random attributed graph.
func benchExplorer(b *testing.B, cached bool) *Explorer {
	b.Helper()
	e := NewExplorer()
	g := gen.GNMAttributed(20000, 60000, 32, 1)
	if _, err := e.AddGraph("bench", g); err != nil {
		b.Fatal(err)
	}
	if cached {
		e.SetCache(NewServeCache(4096, 64<<20, 0))
	}
	// Build the indexes up front so both variants measure query serving,
	// not lazy index construction.
	ds, _ := e.Dataset("bench")
	ds.Tree()
	ds.CoreNumbers()
	return e
}

var hotQuery = Query{Vertices: []int32{17}, K: 4, Keywords: []string{"w0", "w1"}}

func BenchmarkHotQueryUncached(b *testing.B) {
	e := benchExplorer(b, false)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Search(ctx, "bench", "ACQ", hotQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHotQueryCached(b *testing.B) {
	e := benchExplorer(b, true)
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Search(ctx, "bench", "ACQ", hotQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	// Singleflight proof: one distinct (version, query) pair was served, so
	// exactly one computation may have run, no matter how parallel the herd.
	if st := e.Cache().Stats(); st.Computations != 1 {
		b.Fatalf("singleflight violated: %d computations for 1 distinct (version, query) pair", st.Computations)
	}
}
