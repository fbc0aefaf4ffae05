package repl

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cexplorer/internal/snapshot"
)

// testFeed builds a feed over a fixed lookup table.
func testFeed(opt FeedOptions, versions map[string]uint64) *Feed {
	return NewFeed(func(name string) (uint64, bool) {
		v, ok := versions[name]
		return v, ok
	}, opt)
}

func ops(n int) []snapshot.JournalOp {
	out := make([]snapshot.JournalOp, n)
	for i := range out {
		out[i] = snapshot.JournalOp{Kind: snapshot.JournalAddEdge, U: int32(i), V: int32(i + 1)}
	}
	return out
}

// shipVersions decodes the frames of a ship result into record versions.
func shipVersions(t *testing.T, res ShipResult) []uint64 {
	t.Helper()
	var vs []uint64
	for _, frame := range res.Frames {
		rec, err := snapshot.NewFrameReader(bytes.NewReader(frame)).Next()
		if err != nil {
			t.Fatalf("decode shipped frame: %v", err)
		}
		vs = append(vs, rec.Version)
	}
	return vs
}

func TestFeedPublishAndShip(t *testing.T) {
	f := testFeed(FeedOptions{}, map[string]uint64{"d": 0})
	for v := uint64(1); v <= 5; v++ {
		f.Publish("d", v, ops(2))
	}
	res, ok := f.Ship(context.Background(), "d", 0, 1, 0, 0, 0)
	if !ok || res.Fenced {
		t.Fatalf("ship from 1: ok=%v fenced=%v", ok, res.Fenced)
	}
	if got := shipVersions(t, res); len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("shipped versions %v", got)
	}
	if res.Ops != 10 || res.Head != 5 || res.Base != 0 {
		t.Fatalf("ship result %+v", res)
	}

	// Mid-stream cursor.
	res, _ = f.Ship(context.Background(), "d", res.Epoch, 4, 0, 0, 0)
	if got := shipVersions(t, res); len(got) != 2 || got[0] != 4 {
		t.Fatalf("ship from 4: versions %v", got)
	}

	// Caught up, no wait: empty but not fenced.
	res, _ = f.Ship(context.Background(), "d", res.Epoch, 6, 0, 0, 0)
	if res.Fenced || len(res.Frames) != 0 {
		t.Fatalf("caught-up ship: %+v", res)
	}

	// maxRecords bounds one response but never to zero frames.
	res, _ = f.Ship(context.Background(), "d", res.Epoch, 1, 2, 0, 0)
	if got := shipVersions(t, res); len(got) != 2 {
		t.Fatalf("capped ship: versions %v", got)
	}
	// A byte cap below one frame still ships the first frame.
	res, _ = f.Ship(context.Background(), "d", res.Epoch, 1, 0, 1, 0)
	if got := shipVersions(t, res); len(got) != 1 {
		t.Fatalf("byte-capped ship: versions %v", got)
	}
}

func TestFeedUnknownDataset(t *testing.T) {
	f := testFeed(FeedOptions{}, nil)
	if _, ok := f.Ship(context.Background(), "nope", 0, 1, 0, 0, 0); ok {
		t.Fatal("ship of unknown dataset reported ok")
	}
	if _, ok := f.Epoch("nope"); ok {
		t.Fatal("epoch of unknown dataset reported ok")
	}
}

func TestFeedTrimFencesOldCursors(t *testing.T) {
	f := testFeed(FeedOptions{MaxRecords: 3}, map[string]uint64{"d": 0})
	for v := uint64(1); v <= 10; v++ {
		f.Publish("d", v, ops(1))
	}
	// Ring keeps the newest 3: base=7, head=10.
	res, _ := f.Ship(context.Background(), "d", 0, 5, 0, 0, 0)
	if !res.Fenced {
		t.Fatalf("trimmed cursor not fenced: %+v", res)
	}
	if res.Base != 7 || res.Head != 10 {
		t.Fatalf("window %d..%d, want 7..10", res.Base, res.Head)
	}
	res, _ = f.Ship(context.Background(), "d", 0, 8, 0, 0, 0)
	if res.Fenced || len(res.Frames) != 3 {
		t.Fatalf("in-window ship: %+v", res)
	}
	if f.Stats().Fences == 0 {
		t.Fatal("fence not counted")
	}
}

func TestFeedEpochMismatchAndAheadFence(t *testing.T) {
	f := testFeed(FeedOptions{}, map[string]uint64{"d": 0})
	f.Publish("d", 1, ops(1))
	epoch, _ := f.Epoch("d")
	if res, _ := f.Ship(context.Background(), "d", epoch+1, 1, 0, 0, 0); !res.Fenced {
		t.Fatal("stale epoch not fenced")
	}
	// A cursor ahead of the head means the replica saw versions this
	// primary never published (rollback): fence.
	if res, _ := f.Ship(context.Background(), "d", epoch, 3, 0, 0, 0); !res.Fenced {
		t.Fatal("ahead-of-head cursor not fenced")
	}
	if res, _ := f.Ship(context.Background(), "d", epoch, 0, 0, 0, 0); !res.Fenced {
		t.Fatal("fromSeq=0 not fenced")
	}
}

func TestFeedGapResetsBuffer(t *testing.T) {
	f := testFeed(FeedOptions{}, map[string]uint64{"d": 0})
	f.Publish("d", 1, ops(1))
	f.Publish("d", 5, ops(1)) // versions 2..4 never seen: buffer must not bridge the hole
	res, _ := f.Ship(context.Background(), "d", 0, 2, 0, 0, 0)
	if !res.Fenced {
		t.Fatalf("cursor across gap not fenced: %+v", res)
	}
	res, _ = f.Ship(context.Background(), "d", 0, 5, 0, 0, 0)
	if res.Fenced || len(res.Frames) != 1 {
		t.Fatalf("post-gap ship: %+v", res)
	}
	if got := shipVersions(t, res); got[0] != 5 {
		t.Fatalf("post-gap version %d", got[0])
	}
}

func TestFeedDuplicatePublishDropped(t *testing.T) {
	f := testFeed(FeedOptions{}, map[string]uint64{"d": 0})
	f.Publish("d", 1, ops(1))
	f.Publish("d", 1, ops(1))
	res, _ := f.Ship(context.Background(), "d", 0, 1, 0, 0, 0)
	if len(res.Frames) != 1 || res.Head != 1 {
		t.Fatalf("duplicate publish extended the buffer: %+v", res)
	}
}

func TestFeedLongPollWakesOnPublish(t *testing.T) {
	f := testFeed(FeedOptions{}, map[string]uint64{"d": 0})
	f.Publish("d", 1, ops(1))
	epoch, _ := f.Epoch("d")
	done := make(chan ShipResult, 1)
	go func() {
		res, _ := f.Ship(context.Background(), "d", epoch, 2, 0, 0, 5*time.Second)
		done <- res
	}()
	time.Sleep(20 * time.Millisecond) // let the poller park
	f.Publish("d", 2, ops(3))
	select {
	case res := <-done:
		if res.Fenced || len(res.Frames) != 1 || res.Ops != 3 {
			t.Fatalf("woken poll: %+v", res)
		}
		if got := shipVersions(t, res); got[0] != 2 {
			t.Fatalf("woken poll shipped version %d", got[0])
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long-poll did not wake on publish")
	}
}

func TestFeedResetFencesParkedPollers(t *testing.T) {
	f := testFeed(FeedOptions{}, map[string]uint64{"d": 3})
	e1, _ := f.Epoch("d")
	done := make(chan ShipResult, 1)
	go func() {
		res, _ := f.Ship(context.Background(), "d", e1, 4, 0, 0, 5*time.Second)
		done <- res
	}()
	time.Sleep(20 * time.Millisecond)
	f.Reset("d") // re-upload: lineage replaced wholesale
	select {
	case res := <-done:
		if !res.Fenced {
			t.Fatalf("poller across reset not fenced: %+v", res)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long-poll did not wake on reset")
	}
	e2, ok := f.Epoch("d")
	if !ok || e2 == e1 {
		t.Fatalf("epoch across reset: %d -> %d, ok=%v", e1, e2, ok)
	}
}

func TestFeedLongPollDeadline(t *testing.T) {
	f := testFeed(FeedOptions{}, map[string]uint64{"d": 0})
	start := time.Now()
	res, _ := f.Ship(context.Background(), "d", 0, 1, 0, 0, 50*time.Millisecond)
	if res.Fenced || len(res.Frames) != 0 {
		t.Fatalf("deadline poll: %+v", res)
	}
	// A hang-catcher: a poll that ignored its 50ms deadline would park for
	// good, so the bound only has to outlast a slow machine.
	if time.Since(start) > 30*time.Second {
		t.Fatal("deadline poll overstayed")
	}
	// ctx cancellation also unparks.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		f.Ship(ctx, "d", 0, 1, 0, 0, time.Minute)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("canceled poll did not return")
	}
}

func TestFeedStats(t *testing.T) {
	f := testFeed(FeedOptions{}, map[string]uint64{"a": 0, "b": 0})
	f.Publish("a", 1, ops(2))
	f.Publish("b", 1, ops(3))
	f.Ship(context.Background(), "a", 0, 1, 0, 0, 0)
	s := f.Stats()
	if s.Datasets != 2 || s.Published != 2 || s.PublishedOps != 5 {
		t.Fatalf("publish stats %+v", s)
	}
	if s.ShippedRecords != 1 || s.ShippedBytes == 0 || s.BufferedRecords != 2 {
		t.Fatalf("ship stats %+v", s)
	}
	st, ok := f.Status("a")
	if !ok || st.Head != 1 || st.Base != 0 || st.Epoch == 0 {
		t.Fatalf("status %+v ok=%v", st, ok)
	}
	if _, ok := f.Status("never-touched"); ok {
		t.Fatal("status created state")
	}
}

func TestFeedEpochsDistinctAcrossDatasets(t *testing.T) {
	f := testFeed(FeedOptions{}, map[string]uint64{})
	seen := map[uint64]string{}
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("d%d", i)
		f.Publish(name, 1, ops(1))
		e, _ := f.Epoch(name)
		if prev, dup := seen[e]; dup {
			t.Fatalf("epoch %d reused by %s and %s", e, prev, name)
		}
		seen[e] = name
	}
}

// TestFeedPublishAfterDrainRefused: Drain is the write fence. A publish
// after it answers false and leaves the buffer and the counters untouched,
// so the caller knows not to apply the batch.
func TestFeedPublishAfterDrainRefused(t *testing.T) {
	f := testFeed(FeedOptions{}, map[string]uint64{"d": 0})
	if !f.Publish("d", 1, ops(1)) {
		t.Fatal("publish before Drain refused")
	}
	f.Drain()
	before, _ := f.Status("d")
	published := f.Stats().Published
	if f.Publish("d", 2, ops(1)) {
		t.Fatal("publish after Drain accepted")
	}
	if after, _ := f.Status("d"); after.Head != before.Head || f.Stats().Published != published {
		t.Fatalf("refused publish moved the feed: head %d -> %d, published %d -> %d",
			before.Head, after.Head, published, f.Stats().Published)
	}
}

// TestFeedLookupRunsOutsideItsLock: writes publish while holding the
// Explorer's registry lock, and the feed's lookup takes that same lock, so
// seeding a state must not hold the feed's lock across the lookup. Here the
// registry lock is held by the publisher while a concurrent Epoch sits in
// its lookup; the publish must still complete.
func TestFeedLookupRunsOutsideItsLock(t *testing.T) {
	var registry sync.Mutex
	inLookup := make(chan struct{})
	f := NewFeed(func(string) (uint64, bool) {
		close(inLookup)
		registry.Lock()
		defer registry.Unlock()
		return 0, true
	}, FeedOptions{})
	registry.Lock()
	epoch := make(chan uint64)
	go func() {
		e, _ := f.Epoch("seeded")
		epoch <- e
	}()
	<-inLookup
	published := make(chan bool)
	go func() { published <- f.Publish("other", 1, ops(1)) }()
	select {
	case ok := <-published:
		if !ok {
			t.Fatal("publish refused")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked behind a lookup waiting for the publisher's lock")
	}
	registry.Unlock()
	if <-epoch == 0 {
		t.Fatal("Epoch did not seed the dataset")
	}
}

// TestFeedSeedDiscardsLookupRacingReset: a lookup that read the old lineage
// before a re-upload's Reset must not seed the new lineage's state at the
// old version (every write of the new lineage up to it would be dropped as
// a duplicate); the feed looks up again.
func TestFeedSeedDiscardsLookupRacingReset(t *testing.T) {
	var f *Feed
	lookups := 0
	f = NewFeed(func(string) (uint64, bool) {
		lookups++
		if lookups == 1 {
			f.Reset("d") // the re-upload lands between lookup and seed
			return 5, true
		}
		return 0, true
	}, FeedOptions{})
	if _, ok := f.Epoch("d"); !ok {
		t.Fatal("Epoch: dataset unknown")
	}
	if st, _ := f.Status("d"); st.Head != 0 || lookups != 2 {
		t.Fatalf("seeded at head %d after %d lookups, want head 0 after 2", st.Head, lookups)
	}
}
