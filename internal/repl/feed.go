package repl

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"cexplorer/internal/snapshot"
)

// Feed buffer defaults: how many applied batches a primary keeps shippable
// per dataset before old records are trimmed and slow replicas must
// re-bootstrap. Records are whole mutation batches, so 8192 records at the
// default batch sizes is hours of sustained write load.
const (
	DefaultFeedRecords = 8192
	DefaultFeedBytes   = 64 << 20
)

// FeedOptions bound the per-dataset replication buffer.
type FeedOptions struct {
	MaxRecords int   // ring capacity in records (default DefaultFeedRecords)
	MaxBytes   int64 // ring capacity in frame bytes (default DefaultFeedBytes)
}

// Feed is the primary-side replication buffer: per dataset, a bounded ring
// of pre-encoded journal frames covering sequences (base, head], plus the
// epoch that scopes them. Every write reaches it at its commit point (a
// batch publishes its frame, in version order; an upload or delete resets
// the dataset), and Ship serves the frames to replicas with long-poll support.
type Feed struct {
	lookup     func(name string) (version uint64, ok bool)
	maxRecords int
	maxBytes   int64

	// epochSalt makes each epoch unique across process boots: a replica
	// that tails a restarted primary must fence, because the in-memory
	// buffer it was promised is gone.
	epochSalt  uint64
	epochCount atomic.Uint64

	mu       sync.Mutex
	states   map[string]*feedState
	draining bool
	resets   uint64 // Reset calls; a state seeded from an older lookup is stale

	published      atomic.Int64
	publishedOps   atomic.Int64
	shippedRecords atomic.Int64
	shippedBytes   atomic.Int64
	fences         atomic.Int64
	activeTails    atomic.Int64
}

type feedState struct {
	epoch uint64
	base  uint64 // newest sequence NOT available; buffer covers base+1..head
	head  uint64
	recs  []feedRec // recs[i] is sequence base+1+i
	bytes int64
	// notify is closed and replaced on every publish and reset, waking
	// long-pollers to re-examine the state.
	notify chan struct{}
}

type feedRec struct {
	frame []byte
	ops   int
}

// NewFeed builds a feed. lookup resolves a dataset's current Version (used
// to seed a state lazily the first time a replica asks about a dataset that
// has not been mutated since boot).
func NewFeed(lookup func(name string) (uint64, bool), opt FeedOptions) *Feed {
	if opt.MaxRecords <= 0 {
		opt.MaxRecords = DefaultFeedRecords
	}
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = DefaultFeedBytes
	}
	return &Feed{
		lookup:     lookup,
		maxRecords: opt.MaxRecords,
		maxBytes:   opt.MaxBytes,
		epochSalt:  uint64(time.Now().UnixNano()) << 16,
		states:     map[string]*feedState{},
	}
}

func (f *Feed) newEpoch() uint64 {
	return f.epochSalt + f.epochCount.Add(1)
}

// locked; seeds a state whose buffer starts empty at the given version.
func (f *Feed) ensureLocked(name string, version uint64) *feedState {
	st := f.states[name]
	if st == nil {
		st = &feedState{
			epoch:  f.newEpoch(),
			base:   version,
			head:   version,
			notify: make(chan struct{}),
		}
		f.states[name] = st
	}
	return st
}

// Publish records the ops that produce Version `version` of dataset `name`,
// before that version is applied; calls arrive in version order per
// dataset. A duplicate or older version is dropped; a gap resets the buffer
// so replicas fence and re-bootstrap rather than read past a hole. After
// Drain it returns false and leaves the buffer untouched: do not apply.
func (f *Feed) Publish(name string, version uint64, ops []snapshot.JournalOp) bool {
	if version == 0 {
		return true
	}
	frame := snapshot.EncodeJournalFrame(snapshot.JournalRecord{Version: version, Ops: ops})
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining {
		return false
	}
	st := f.ensureLocked(name, version-1)
	switch {
	case version <= st.head:
		return true
	case version != st.head+1:
		st.recs = nil
		st.bytes = 0
		st.base = version - 1
		st.head = version - 1
	}
	st.recs = append(st.recs, feedRec{frame: frame, ops: len(ops)})
	st.bytes += int64(len(frame))
	st.head = version
	for (len(st.recs) > f.maxRecords || st.bytes > f.maxBytes) && len(st.recs) > 1 {
		st.bytes -= int64(len(st.recs[0].frame))
		st.recs[0].frame = nil
		st.recs = st.recs[1:]
		st.base++
	}
	close(st.notify)
	st.notify = make(chan struct{})
	f.published.Add(1)
	f.publishedOps.Add(int64(len(ops)))
	return true
}

// Reset discards a dataset's buffer and epoch before its lineage is
// replaced or deleted: parked long-pollers fence, the next touch re-seeds a
// fresh epoch. After Drain it returns false and changes nothing, like Publish.
func (f *Feed) Reset(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining {
		return false
	}
	f.resets++
	if st := f.states[name]; st != nil {
		close(st.notify)
		delete(f.states, name)
	}
	return true
}

// Epoch returns the dataset's current epoch, lazily seeding feed state at
// the dataset's current version. ok is false when the dataset is unknown
// to the Explorer.
func (f *Feed) Epoch(name string) (epoch uint64, ok bool) {
	st, ok := f.lockState(name)
	if !ok {
		return 0, false
	}
	defer f.mu.Unlock()
	return st.epoch, true
}

// lockState returns the dataset's state with f.mu held, seeding it at the
// current version on first touch; false (f.mu not held) when the dataset is
// unknown. Writes commit under the Explorer's registry lock, so the lookup
// runs outside f.mu; a Reset meanwhile voids it (it may have read the
// lineage being replaced).
func (f *Feed) lockState(name string) (*feedState, bool) {
	f.mu.Lock()
	for f.states[name] == nil {
		resets := f.resets
		f.mu.Unlock()
		v, ok := f.lookup(name)
		if !ok {
			return nil, false
		}
		f.mu.Lock()
		if f.resets == resets {
			f.ensureLocked(name, v)
		}
	}
	return f.states[name], true
}

// ShipResult is one journal-shipping response: either Fenced (the cursor
// cannot be served contiguously) or zero or more frames starting at the
// requested sequence.
type ShipResult struct {
	Epoch  uint64
	Base   uint64 // oldest shippable sequence is Base+1
	Head   uint64
	Frames [][]byte
	Ops    int
	Fenced bool
}

// Ship serves frames for dataset `name` starting at fromSeq (≥ 1). epoch 0
// skips the epoch check (a debugging convenience); any other mismatch
// fences. If the cursor is exactly at the head and wait > 0, Ship parks up
// to wait for a publish. maxRecords/maxBytes bound one response (0 =
// feed defaults).
func (f *Feed) Ship(ctx context.Context, name string, epoch, fromSeq uint64, maxRecords int, maxBytes int64, wait time.Duration) (ShipResult, bool) {
	if maxRecords <= 0 {
		maxRecords = f.maxRecords
	}
	if maxBytes <= 0 {
		maxBytes = f.maxBytes
	}
	var deadline <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		deadline = t.C
	}
	f.activeTails.Add(1)
	defer f.activeTails.Add(-1)
	for {
		st, ok := f.lockState(name)
		if !ok {
			return ShipResult{}, false
		}
		res := ShipResult{Epoch: st.epoch, Base: st.base, Head: st.head}
		switch {
		case epoch != 0 && epoch != st.epoch,
			fromSeq == 0,
			fromSeq <= st.base,
			fromSeq > st.head+1:
			// Stranded cursor: stale epoch, trimmed-past position, or a
			// position ahead of the head (a rollback the replica cannot
			// see). One answer for all of them: fence.
			f.mu.Unlock()
			res.Fenced = true
			f.fences.Add(1)
			return res, true
		case fromSeq <= st.head:
			idx := int(fromSeq - st.base - 1)
			var bytes int64
			for _, r := range st.recs[idx:] {
				if len(res.Frames) >= maxRecords || (bytes > 0 && bytes+int64(len(r.frame)) > maxBytes) {
					break
				}
				res.Frames = append(res.Frames, r.frame)
				res.Ops += r.ops
				bytes += int64(len(r.frame))
			}
			f.mu.Unlock()
			f.shippedRecords.Add(int64(len(res.Frames)))
			f.shippedBytes.Add(bytes)
			return res, true
		}
		// Caught up: long-poll or return empty.
		notify := st.notify
		draining := f.draining
		f.mu.Unlock()
		if wait <= 0 || draining {
			return res, true
		}
		select {
		case <-ctx.Done():
			return res, true
		case <-deadline:
			return res, true
		case <-notify:
			// Re-examine: a publish extended the head, or a reset fenced us.
		}
	}
}

// Drain releases every parked long-poller and makes subsequent Ship calls
// answer immediately instead of parking. Call on graceful shutdown (so
// replicas' in-flight long-polls return within one round trip, not after
// PollWait) and on demotion. It is also the write fence: every later
// Publish is refused, so no write is applied unpublished. No un-drain.
func (f *Feed) Drain() {
	f.mu.Lock()
	if !f.draining {
		f.draining = true
		for _, st := range f.states {
			close(st.notify)
			st.notify = make(chan struct{})
		}
	}
	f.mu.Unlock()
}

// FeedStats is the primary-side replication counter block for /api/stats.
type FeedStats struct {
	Datasets        int   `json:"datasets"`
	Published       int64 `json:"published"`
	PublishedOps    int64 `json:"publishedOps"`
	ShippedRecords  int64 `json:"shippedRecords"`
	ShippedBytes    int64 `json:"shippedBytes"`
	Fences          int64 `json:"fences"`
	ActiveTails     int64 `json:"activeTails"`
	BufferedRecords int   `json:"bufferedRecords"`
	BufferedBytes   int64 `json:"bufferedBytes"`
}

// Stats snapshots the feed counters.
func (f *Feed) Stats() FeedStats {
	s := FeedStats{
		Published:      f.published.Load(),
		PublishedOps:   f.publishedOps.Load(),
		ShippedRecords: f.shippedRecords.Load(),
		ShippedBytes:   f.shippedBytes.Load(),
		Fences:         f.fences.Load(),
		ActiveTails:    f.activeTails.Load(),
	}
	f.mu.Lock()
	s.Datasets = len(f.states)
	for _, st := range f.states {
		s.BufferedRecords += len(st.recs)
		s.BufferedBytes += st.bytes
	}
	f.mu.Unlock()
	return s
}

// FeedStatus is one dataset's shipping position (for dataset resources).
type FeedStatus struct {
	Epoch uint64
	Base  uint64
	Head  uint64
}

// Status reports a dataset's feed position without creating state.
func (f *Feed) Status(name string) (FeedStatus, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.states[name]
	if st == nil {
		return FeedStatus{}, false
	}
	return FeedStatus{Epoch: st.epoch, Base: st.base, Head: st.head}, true
}
