package server

// Batched-ingestion benchmark (numbers in the speed-layer entry of
// CHANGES.md): per-op cost of the full
// serving write path — engine apply plus durable journal append — with one
// op per call versus 64-op batches. This is the path the MutationBatcher
// fronts: each applyMutations call fsyncs one journal record whatever the
// batch size, so coalescing 64 concurrent single-op requests into one batch
// divides the dominant fsync cost by 64.
//
// Run: go test -bench Ingest -cpu 1,2 ./internal/server

import (
	"context"
	"fmt"
	"testing"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
)

// benchIngestOps emits n addEdge ops absent from g and mutually distinct,
// walking a deterministic prime stride so no randomness is needed.
func benchIngestOps(b *testing.B, g interface {
	N() int
	HasEdge(u, v int32) bool
}, n int) []api.Mutation {
	b.Helper()
	nv := int32(g.N())
	ops := make([]api.Mutation, 0, n)
	var u, v int32 = 0, 1
	for len(ops) < n {
		v += 7919
		if v >= nv {
			u++
			v = u + 1 + (v % 97)
			if u >= nv-1 {
				b.Fatalf("generated only %d of %d ops", len(ops), n)
			}
		}
		if u != v && v < nv && !g.HasEdge(u, v) {
			ops = append(ops, api.Mutation{Op: api.OpAddEdge, U: u, V: v})
		}
	}
	return ops
}

func benchIngest(b *testing.B, batchSize int) {
	exp := api.NewExplorer()
	g := gen.GNMAttributed(20000, 60000, 32, 1)
	if _, err := exp.AddGraph("bench", g); err != nil {
		b.Fatal(err)
	}
	s := New(exp, nil)
	if err := s.SetDataDir(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	ops := benchIngestOps(b, g, b.N)
	ctx := context.Background()
	b.ResetTimer()
	for off := 0; off < len(ops); off += batchSize {
		end := min(off+batchSize, len(ops))
		res, err := s.applyMutations(ctx, "bench", ops[off:end])
		if err != nil {
			b.Fatal(fmt.Errorf("batch at %d: %w", off, err))
		}
		if !res.Journaled {
			b.Fatal("write path did not journal")
		}
	}
}

func BenchmarkIngestSingleOps(b *testing.B) { benchIngest(b, 1) }
func BenchmarkIngestBatched64(b *testing.B) { benchIngest(b, 64) }
