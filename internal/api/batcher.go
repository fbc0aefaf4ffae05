package api

// The write-side half of the serve-time speed layer: a mutation batcher
// that coalesces concurrent single-op mutation requests into one atomic
// Mutate batch. PR 4 measured batched incremental maintenance at ~2x the
// per-op throughput (one overlay materialization and one CL-tree repair
// amortize over the whole batch), so under concurrent write load, batching
// is free speedup. The idiom is the audit-log batcher's: a per-dataset
// pending buffer with a size trigger and a maxWait deadline, and a
// per-caller result channel each submission blocks on.
//
// Semantics: Dataset.Mutate is all-or-nothing per batch, but callers
// submitted independent requests — one caller's conflicting op must not
// reject its neighbors. When an invalid or conflicting op fails a combined
// batch, each submission is re-applied alone, so every caller gets its
// unbatched result (at per-op cost for that rare batch); other failures
// answer every caller as they are. Ops within one submission stay
// contiguous and ordered; submissions are combined in arrival order.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Batching defaults: flush at DefaultBatchMaxOps pending ops or
// DefaultBatchMaxWait after the first pending submission, whichever first.
const (
	DefaultBatchMaxOps  = 64
	DefaultBatchMaxWait = 2 * time.Millisecond
)

// BatcherOptions tunes a MutationBatcher; zero values take the defaults.
type BatcherOptions struct {
	// MaxOps flushes the pending buffer once it holds this many ops.
	MaxOps int
	// MaxWait flushes the pending buffer this long after its first
	// submission arrived, so a lone mutation is never delayed by more than
	// this bound waiting for company.
	MaxWait time.Duration
}

// ApplyFunc applies one op batch to a dataset and reports the result — the
// seam between the batcher and the serving stack. The HTTP layer supplies a
// closure over Explorer.Mutate plus journaling; embedded users can pass
// Explorer.Mutate directly.
type ApplyFunc func(ctx context.Context, dataset string, ops []Mutation) (*MutationResult, error)

// BatcherStats is the counter snapshot surfaced at /api/stats.
type BatcherStats struct {
	// Submissions counts caller-level Mutate calls; Batches counts apply
	// invocations that reached the engine. Batches < Submissions means
	// coalescing is happening.
	Submissions int64 `json:"submissions"`
	Batches     int64 `json:"batches"`
	// Ops counts ops applied across all batches.
	Ops int64 `json:"ops"`
	// Coalesced counts submissions that shared their apply with at least
	// one other submission.
	Coalesced int64 `json:"coalesced"`
	// Fallbacks counts combined batches that an invalid or conflicting op
	// failed, re-applied per submission to isolate the failing caller.
	Fallbacks int64 `json:"fallbacks,omitempty"`
	// AvgOpsPerBatch is Ops/Batches — the amortization factor.
	AvgOpsPerBatch float64 `json:"avgOpsPerBatch"`
}

type batchOut struct {
	res *MutationResult
	err error
}

type batchSub struct {
	ops []Mutation
	ch  chan batchOut
}

type pendingBatch struct {
	dataset string
	subs    []*batchSub
	opCount int
	timer   *time.Timer
}

// MutationBatcher coalesces concurrent mutation submissions per dataset.
// Safe for concurrent use.
type MutationBatcher struct {
	apply ApplyFunc
	opts  BatcherOptions

	mu      sync.Mutex
	pending map[string]*pendingBatch

	submissions, batches, ops    atomic.Int64
	coalescedSubs, fallbackCount atomic.Int64
}

// NewMutationBatcher wraps apply with batching. apply is invoked with a
// background context: a batch speaks for several callers, so no single
// caller's cancellation may abort it.
func NewMutationBatcher(opts BatcherOptions, apply ApplyFunc) *MutationBatcher {
	if opts.MaxOps <= 0 {
		opts.MaxOps = DefaultBatchMaxOps
	}
	if opts.MaxWait <= 0 {
		opts.MaxWait = DefaultBatchMaxWait
	}
	return &MutationBatcher{
		apply:   apply,
		opts:    opts,
		pending: make(map[string]*pendingBatch),
	}
}

// Mutate submits ops for the dataset and blocks until the batch containing
// them is applied (or ctx is done). The result's Coalesced field reports
// how many submissions shared the applied batch. A caller that gives up
// (ctx done) stops waiting, but its ops remain in the batch and may still
// apply — the usual contract for an acknowledged-after-cancel write.
func (b *MutationBatcher) Mutate(ctx context.Context, dataset string, ops []Mutation) (*MutationResult, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrInvalidMutation)
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapContextErr(err)
	}
	b.submissions.Add(1)
	sub := &batchSub{ops: ops, ch: make(chan batchOut, 1)}

	b.mu.Lock()
	pb := b.pending[dataset]
	if pb == nil {
		pb = &pendingBatch{dataset: dataset}
		b.pending[dataset] = pb
		pb.timer = time.AfterFunc(b.opts.MaxWait, func() { b.flushIfPending(dataset, pb) })
	}
	pb.subs = append(pb.subs, sub)
	pb.opCount += len(ops)
	var flushNow *pendingBatch
	if pb.opCount >= b.opts.MaxOps {
		delete(b.pending, dataset)
		pb.timer.Stop()
		flushNow = pb
	}
	b.mu.Unlock()

	if flushNow != nil {
		b.flush(flushNow)
	}
	select {
	case out := <-sub.ch:
		return out.res, out.err
	case <-ctx.Done():
		return nil, wrapContextErr(ctx.Err())
	}
}

// flushIfPending is the maxWait trigger: flush pb unless the size trigger
// already detached it.
func (b *MutationBatcher) flushIfPending(dataset string, pb *pendingBatch) {
	b.mu.Lock()
	if b.pending[dataset] != pb {
		b.mu.Unlock()
		return
	}
	delete(b.pending, dataset)
	b.mu.Unlock()
	b.flush(pb)
}

// flush applies a detached batch and fans results out to its submitters.
func (b *MutationBatcher) flush(pb *pendingBatch) {
	ctx := context.Background()
	if len(pb.subs) == 1 {
		sub := pb.subs[0]
		res, err := b.applyOne(ctx, pb.dataset, sub.ops)
		sub.ch <- batchOut{res, err}
		return
	}
	combined := make([]Mutation, 0, pb.opCount)
	for _, sub := range pb.subs {
		combined = append(combined, sub.ops...)
	}
	res, err := b.applyOne(ctx, pb.dataset, combined)
	if err == nil {
		b.coalescedSubs.Add(int64(len(pb.subs)))
		for _, sub := range pb.subs {
			// Each caller gets its own copy: Applied answers for the
			// caller's own ops (so applied == len(ops) holds whether or not
			// the request was coalesced), while Version, the graph sizes,
			// and CoreChanged describe the state after the combined batch.
			out := *res
			out.Applied = len(sub.ops)
			out.Coalesced = len(pb.subs)
			sub.ch <- batchOut{&out, nil}
		}
		return
	}
	if !errors.Is(err, ErrInvalidMutation) && !errors.Is(err, ErrMutationConflict) {
		// No one submission is at fault: the error is every caller's answer.
		for _, sub := range pb.subs {
			sub.ch <- batchOut{nil, err}
		}
		return
	}
	// One submission's op poisoned the all-or-nothing combined batch.
	// Re-apply each submission in isolation so every caller gets its
	// unbatched outcome.
	b.fallbackCount.Add(1)
	for _, sub := range pb.subs {
		res, err := b.applyOne(ctx, pb.dataset, sub.ops)
		sub.ch <- batchOut{res, err}
	}
}

// applyOne runs the apply seam and keeps the throughput counters.
func (b *MutationBatcher) applyOne(ctx context.Context, dataset string, ops []Mutation) (*MutationResult, error) {
	res, err := b.apply(ctx, dataset, ops)
	if err == nil {
		b.batches.Add(1)
		b.ops.Add(int64(len(ops)))
	}
	return res, err
}

// Stats snapshots the batcher counters.
func (b *MutationBatcher) Stats() BatcherStats {
	st := BatcherStats{
		Submissions: b.submissions.Load(),
		Batches:     b.batches.Load(),
		Ops:         b.ops.Load(),
		Coalesced:   b.coalescedSubs.Load(),
		Fallbacks:   b.fallbackCount.Load(),
	}
	if st.Batches > 0 {
		st.AvgOpsPerBatch = float64(st.Ops) / float64(st.Batches)
	}
	return st
}
