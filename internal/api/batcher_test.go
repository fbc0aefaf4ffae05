package api

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// batcherOverExplorer wires a MutationBatcher straight onto Explorer.Mutate
// — the embedded (no journaling) configuration.
func batcherOverExplorer(e *Explorer, opts BatcherOptions) *MutationBatcher {
	return NewMutationBatcher(opts, func(ctx context.Context, dataset string, ops []Mutation) (*MutationResult, error) {
		return e.Mutate(ctx, dataset, ops)
	})
}

func TestBatcherSingleSubmission(t *testing.T) {
	e, ds := figure5Explorer(t)
	b := batcherOverExplorer(e, BatcherOptions{MaxOps: 64, MaxWait: 5 * time.Millisecond})
	res, err := b.Mutate(context.Background(), "fig5", []Mutation{{Op: OpAddEdge, U: 5, V: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Version != ds.Version+1 || res.Coalesced != 0 {
		t.Fatalf("res = %+v", res)
	}
	st := b.Stats()
	if st.Submissions != 1 || st.Batches != 1 || st.Ops != 1 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBatcherEmptySubmission(t *testing.T) {
	e, _ := figure5Explorer(t)
	b := batcherOverExplorer(e, BatcherOptions{})
	if _, err := b.Mutate(context.Background(), "fig5", nil); !errors.Is(err, ErrInvalidMutation) {
		t.Fatalf("err = %v", err)
	}
}

// TestBatcherSizeTriggerCoalesces proves deterministic coalescing: with
// MaxOps = 4 and a maxWait far beyond the test, nothing flushes until the
// fourth single-op submission arrives, so all four share one applied batch.
func TestBatcherSizeTriggerCoalesces(t *testing.T) {
	e, _ := figure5Explorer(t)
	b := batcherOverExplorer(e, BatcherOptions{MaxOps: 4, MaxWait: time.Hour})
	// Four distinct valid edges on figure 5 (J is isolated; H–I is a dyad).
	edges := [][2]int32{{5, 9}, {6, 9}, {7, 9}, {8, 9}}
	var wg sync.WaitGroup
	results := make([]*MutationResult, len(edges))
	for i, uv := range edges {
		wg.Add(1)
		go func(i int, uv [2]int32) {
			defer wg.Done()
			res, err := b.Mutate(context.Background(), "fig5", []Mutation{{Op: OpAddEdge, U: uv[0], V: uv[1]}})
			if err != nil {
				t.Errorf("sub %d: %v", i, err)
				return
			}
			results[i] = res
		}(i, uv)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.Fatalf("sub %d: no result", i)
		}
		// Applied answers for the caller's own single op even though four
		// submissions shared one applied batch.
		if res.Coalesced != 4 || res.Applied != 1 {
			t.Fatalf("sub %d: res = %+v", i, res)
		}
	}
	st := b.Stats()
	if st.Submissions != 4 || st.Batches != 1 || st.Ops != 4 || st.Coalesced != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgOpsPerBatch != 4 {
		t.Fatalf("avg ops per batch = %v", st.AvgOpsPerBatch)
	}
	// One version advance for the whole coalesced batch.
	ds, _ := e.Dataset("fig5")
	if ds.Version != 1 {
		t.Fatalf("version = %d", ds.Version)
	}
}

func TestBatcherMaxWaitFlushes(t *testing.T) {
	e, _ := figure5Explorer(t)
	b := batcherOverExplorer(e, BatcherOptions{MaxOps: 1 << 20, MaxWait: 2 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := b.Mutate(context.Background(), "fig5", []Mutation{{Op: OpAddEdge, U: 5, V: 9}})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("maxWait flush never fired")
	}
}

// TestBatcherFallbackIsolation: one submission's conflicting op poisons the
// combined all-or-nothing batch; the batcher re-applies per submission so
// the innocent caller still succeeds and only the conflicting one fails.
func TestBatcherFallbackIsolation(t *testing.T) {
	e, _ := figure5Explorer(t)
	b := batcherOverExplorer(e, BatcherOptions{MaxOps: 2, MaxWait: time.Hour})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	ops := [][]Mutation{
		{{Op: OpAddEdge, U: 5, V: 9}}, // valid: F–J is a new edge
		{{Op: OpAddEdge, U: 0, V: 1}}, // conflict: A–B already exists
	}
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Mutate(context.Background(), "fig5", ops[i])
		}(i)
	}
	wg.Wait()
	if errs[0] != nil {
		t.Fatalf("valid submission failed: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrMutationConflict) {
		t.Fatalf("conflicting submission: %v", errs[1])
	}
	st := b.Stats()
	if st.Fallbacks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	ds, _ := e.Dataset("fig5")
	if ds.Version != 1 {
		t.Fatalf("version = %d (want exactly the valid batch applied)", ds.Version)
	}
}

// TestBatcherSharedFailureAppliesOnce: a combined batch that fails for a
// reason no one submission caused (here the dataset is gone) answers every
// submitter with that error after one apply, with no per-submission
// fallback.
func TestBatcherSharedFailureAppliesOnce(t *testing.T) {
	var calls atomic.Int32
	b := NewMutationBatcher(BatcherOptions{MaxOps: 3, MaxWait: time.Hour},
		func(context.Context, string, []Mutation) (*MutationResult, error) {
			calls.Add(1)
			return nil, ErrDatasetNotFound
		})
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = b.Mutate(context.Background(), "fig5", []Mutation{{Op: OpAddEdge, U: 5, V: int32(6 + i)}})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrDatasetNotFound) {
			t.Fatalf("submission %d: err = %v, want ErrDatasetNotFound", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("apply called %d times for one combined batch, want 1", n)
	}
	if st := b.Stats(); st.Fallbacks != 0 {
		t.Fatalf("stats = %+v, want no fallback", st)
	}
}

func TestBatcherCanceledCallerOpsStillApply(t *testing.T) {
	e, _ := figure5Explorer(t)
	b := batcherOverExplorer(e, BatcherOptions{MaxOps: 1 << 20, MaxWait: 50 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.Mutate(ctx, "fig5", []Mutation{{Op: OpAddEdge, U: 5, V: 9}}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestBatcherConcurrentLoad hammers one dataset from many goroutines and
// checks conservation: every acknowledged op is in the final graph.
func TestBatcherConcurrentLoad(t *testing.T) {
	e, _ := figure5Explorer(t)
	b := batcherOverExplorer(e, BatcherOptions{MaxOps: 8, MaxWait: time.Millisecond})
	const writers = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer adds one fresh vertex; addVertex never conflicts.
			if _, err := b.Mutate(context.Background(), "fig5",
				[]Mutation{{Op: OpAddVertex, Name: "W", Keywords: []string{"z"}}}); err != nil {
				t.Errorf("writer %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	ds, _ := e.Dataset("fig5")
	if got := ds.Graph.N(); got != 10+writers {
		t.Fatalf("vertices = %d, want %d", got, 10+writers)
	}
	st := b.Stats()
	if st.Submissions != writers || st.Ops != writers {
		t.Fatalf("stats = %+v", st)
	}
	if st.Batches > st.Submissions {
		t.Fatalf("more batches than submissions: %+v", st)
	}
}
