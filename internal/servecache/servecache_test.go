package servecache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var errNotFound = errors.New("not found")
var errFlaky = errors.New("flaky")

func newTest(cfg Config) *Cache {
	if cfg.Cacheable == nil {
		cfg.Cacheable = func(err error) bool { return errors.Is(err, errNotFound) }
	}
	if cfg.Transient == nil {
		cfg.Transient = func(err error) bool { return errors.Is(err, context.Canceled) }
	}
	return New(cfg)
}

func TestHitMissAndVersionKeying(t *testing.T) {
	c := newTest(Config{})
	ctx := context.Background()
	calls := 0
	compute := func(context.Context) (any, int64, error) {
		calls++
		return fmt.Sprintf("result-%d", calls), 8, nil
	}
	v1, err := c.Do(ctx, "ds", 1, 0, "q", compute)
	if err != nil || v1 != "result-1" {
		t.Fatalf("first Do = %v, %v", v1, err)
	}
	v2, err := c.Do(ctx, "ds", 1, 0, "q", compute)
	if err != nil || v2 != "result-1" {
		t.Fatalf("second Do = %v, %v (want cached result-1)", v2, err)
	}
	// A version bump makes the old entry unreachable: fresh computation.
	v3, err := c.Do(ctx, "ds", 1, 1, "q", compute)
	if err != nil || v3 != "result-2" {
		t.Fatalf("post-mutation Do = %v, %v (want result-2)", v3, err)
	}
	// ...and the old version's entry still answers if asked for explicitly.
	if v, _, ok := c.Get("ds", 1, 0, "q"); !ok || v != "result-1" {
		t.Fatalf("Get(v0) = %v, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Computations != 2 {
		t.Fatalf("stats = %+v (want 2 hits, 2 misses, 2 computations)", st)
	}
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
}

func TestNegativeCaching(t *testing.T) {
	c := newTest(Config{})
	ctx := context.Background()
	calls := 0
	compute := func(context.Context) (any, int64, error) {
		calls++
		return nil, 0, fmt.Errorf("%w: vertex 99", errNotFound)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Do(ctx, "ds", 1, 0, "bad", compute); !errors.Is(err, errNotFound) {
			t.Fatalf("Do #%d: err = %v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("computed %d times, want 1 (negative cache)", calls)
	}
	if st := c.Stats(); st.NegativeHits != 2 {
		t.Fatalf("negativeHits = %d, want 2", st.NegativeHits)
	}
}

func TestUncacheableErrorNotCached(t *testing.T) {
	c := newTest(Config{})
	ctx := context.Background()
	calls := 0
	compute := func(context.Context) (any, int64, error) {
		calls++
		return nil, 0, errFlaky // neither cacheable nor transient
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Do(ctx, "ds", 1, 0, "q", compute); !errors.Is(err, errFlaky) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 3 {
		t.Fatalf("computed %d times, want 3 (error must not cache)", calls)
	}
}

func TestSingleflightCoalescing(t *testing.T) {
	c := newTest(Config{})
	ctx := context.Background()
	var computations atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	compute := func(context.Context) (any, int64, error) {
		computations.Add(1)
		close(started)
		<-release
		return "shared", 8, nil
	}
	const herd = 16
	var wg sync.WaitGroup
	results := make([]any, herd)
	errs := make([]error, herd)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = c.Do(ctx, "ds", 1, 3, "hot", compute)
	}()
	<-started // leader is computing; everyone else must coalesce
	for i := 1; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Do(ctx, "ds", 1, 3, "hot", func(context.Context) (any, int64, error) {
				computations.Add(1)
				return "should-not-run", 8, nil
			})
		}(i)
	}
	// Give followers time to join the in-flight call before releasing.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := computations.Load(); n != 1 {
		t.Fatalf("computations = %d, want 1", n)
	}
	for i := range results {
		if errs[i] != nil || results[i] != "shared" {
			t.Fatalf("caller %d: %v, %v", i, results[i], errs[i])
		}
	}
	if st := c.Stats(); st.Coalesced != herd-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, herd-1)
	}
}

func TestTransientLeaderDoesNotPoisonFollowers(t *testing.T) {
	c := newTest(Config{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Do(leaderCtx, "ds", 1, 0, "q", func(ctx context.Context) (any, int64, error) {
			close(started)
			<-ctx.Done()
			return nil, 0, ctx.Err()
		})
		leaderDone <- err
	}()
	<-started
	followerDone := make(chan struct{})
	var followerVal any
	var followerErr error
	go func() {
		defer close(followerDone)
		followerVal, followerErr = c.Do(context.Background(), "ds", 1, 0, "q",
			func(context.Context) (any, int64, error) { return "recomputed", 8, nil })
	}()
	time.Sleep(10 * time.Millisecond) // let the follower join the in-flight call
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v", err)
	}
	<-followerDone
	if followerErr != nil || followerVal != "recomputed" {
		t.Fatalf("follower = %v, %v (want retry success)", followerVal, followerErr)
	}
	// The canceled result must not have been cached.
	if _, _, ok := c.Get("ds", 1, 0, "never"); ok {
		t.Fatal("unexpected entry")
	}
	if v, err, ok := c.Get("ds", 1, 0, "q"); !ok || err != nil || v != "recomputed" {
		t.Fatalf("cached = %v, %v, %v (want follower's recomputed value)", v, err, ok)
	}
}

func TestCanceledFollowerReturnsPromptly(t *testing.T) {
	c := newTest(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), "ds", 1, 0, "slow", func(context.Context) (any, int64, error) {
		close(started)
		<-release
		return "late", 8, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Do(ctx, "ds", 1, 0, "slow", nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
}

func TestAdmissionControlSheds(t *testing.T) {
	c := newTest(Config{MaxInflight: 2})
	c.SetComputeLimit(4) // room for the blocked pair and the other dataset's leader on any host
	ctx := context.Background()
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(2)
	for i := 0; i < 2; i++ {
		q := fmt.Sprintf("q%d", i)
		go c.Do(ctx, "ds", 1, 0, q, func(context.Context) (any, int64, error) {
			started.Done()
			<-release
			return "v", 8, nil
		})
	}
	started.Wait()
	// Third distinct query on the same dataset: over the bound, shed.
	_, err := c.Do(ctx, "ds", 1, 0, "q2", func(context.Context) (any, int64, error) {
		return "v", 8, nil
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	// A different dataset is not affected: the bound is per dataset.
	if _, err := c.Do(ctx, "other", 1, 0, "q", func(context.Context) (any, int64, error) {
		return "v", 8, nil
	}); err != nil {
		t.Fatalf("other dataset shed: %v", err)
	}
	// Joining an in-flight computation is never shed.
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		if v, err := c.Do(ctx, "ds", 1, 0, "q0", nil); err != nil || v != "v" {
			t.Errorf("follower = %v, %v", v, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-joined
	if st := c.Stats(); st.Shedded != 1 {
		t.Fatalf("shedded = %d, want 1", st.Shedded)
	}
	// With the computations drained, the dataset admits work again.
	if _, err := c.Do(ctx, "ds", 1, 0, "q3", func(context.Context) (any, int64, error) {
		return "v", 8, nil
	}); err != nil {
		t.Fatalf("post-drain Do: %v", err)
	}
}

// TestLeadersWaitForComputeSlot holds the only compute slot and checks the
// admission rules around it: a hit and a coalesced follower never wait, a
// new leader waits until its ctx is done and fails transiently, and its
// follower takes over as leader and computes once the slot frees.
func TestLeadersWaitForComputeSlot(t *testing.T) {
	c := newTest(Config{})
	c.SetComputeLimit(1)
	ctx := context.Background()
	if _, err := c.Do(ctx, "ds", 1, 0, "hot", func(context.Context) (any, int64, error) { return "hot", 8, nil }); err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	holder := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, "ds", 1, 0, "slow", func(context.Context) (any, int64, error) {
			close(started)
			<-release
			return "slow", 8, nil
		})
		holder <- err
	}()
	<-started
	if st := c.Stats(); st.InFlight != 1 || st.ComputeLimit != 1 {
		t.Fatalf("while held: %+v", st)
	}
	if v, err := c.Do(ctx, "ds", 1, 0, "hot", nil); err != nil || v != "hot" {
		t.Fatalf("hit = %v, %v", v, err)
	}
	joined := make(chan any, 1)
	go func() {
		v, _ := c.Do(ctx, "ds", 1, 0, "slow", nil)
		joined <- v
	}()

	// A new leader waits; its follower outlives it.
	waitCtx, cancel := context.WithCancel(ctx)
	waiting := make(chan error, 1)
	go func() {
		_, err := c.Do(waitCtx, "ds", 1, 0, "cold", func(context.Context) (any, int64, error) {
			return nil, 0, errors.New("the waiting leader must not compute")
		})
		waiting <- err
	}()
	for c.Stats().Misses < 3 { // "hot", "slow", then "cold" is registered
		time.Sleep(time.Millisecond)
	}
	follower := make(chan any, 1)
	go func() {
		v, _ := c.Do(ctx, "ds", 1, 0, "cold", func(context.Context) (any, int64, error) { return "cold", 8, nil })
		follower <- v
	}()
	for c.Stats().Coalesced < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting leader err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Computations != 2 {
		t.Fatalf("computations while the slot is held = %d, want 2", st.Computations)
	}

	close(release)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if v := <-joined; v != "slow" {
		t.Fatalf("coalesced follower = %v", v)
	}
	if v := <-follower; v != "cold" {
		t.Fatalf("retrying follower = %v", v)
	}
	if st := c.Stats(); st.InFlight != 0 {
		t.Fatalf("after release: %+v", st)
	}
}

func TestLRUEvictionByEntries(t *testing.T) {
	c := newTest(Config{MaxEntries: 3})
	ctx := context.Background()
	mk := func(q string) {
		c.Do(ctx, "ds", 1, 0, q, func(context.Context) (any, int64, error) { return q, 8, nil })
	}
	mk("a")
	mk("b")
	mk("c")
	c.Get("ds", 1, 0, "a") // refresh a; b is now LRU
	mk("d")                // evicts b
	if _, _, ok := c.Get("ds", 1, 0, "b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, q := range []string{"a", "c", "d"} {
		if _, _, ok := c.Get("ds", 1, 0, q); !ok {
			t.Fatalf("%s missing", q)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	c := newTest(Config{MaxEntries: 1000, MaxBytes: 3 * 1024})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("q%d", i)
		c.Do(ctx, "ds", 1, 0, q, func(context.Context) (any, int64, error) { return q, 700, nil })
	}
	st := c.Stats()
	if st.Bytes > 3*1024 {
		t.Fatalf("bytes = %d, over the cap", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("expected byte-cap evictions")
	}
	// An entry bigger than the whole cache is refused, not force-fitted.
	c.Do(ctx, "ds", 1, 0, "huge", func(context.Context) (any, int64, error) { return "big", 1 << 20, nil })
	if _, _, ok := c.Get("ds", 1, 0, "huge"); ok {
		t.Fatal("oversized entry should not be cached")
	}
}

func TestPurgeDataset(t *testing.T) {
	c := newTest(Config{})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		q := fmt.Sprintf("q%d", i)
		c.Do(ctx, "a", 1, uint64(i), q, func(context.Context) (any, int64, error) { return q, 8, nil })
		c.Do(ctx, "b", 1, 0, q, func(context.Context) (any, int64, error) { return q, 8, nil })
	}
	if ds := c.DatasetStats("a"); ds.Entries != 4 || ds.Bytes == 0 {
		t.Fatalf("dataset a stats = %+v", ds)
	}
	if n := c.Purge("a"); n != 4 {
		t.Fatalf("purged %d, want 4", n)
	}
	if ds := c.DatasetStats("a"); ds.Entries != 0 || ds.Bytes != 0 {
		t.Fatalf("post-purge a stats = %+v", ds)
	}
	if ds := c.DatasetStats("b"); ds.Entries != 4 {
		t.Fatalf("purge leaked into b: %+v", ds)
	}
	if st := c.Stats(); st.Purged != 4 || st.Entries != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestComputePanicReleasesCall: a panicking compute (net/http recovers per
// request, so the process lives on) must not leave a dead in-flight call
// behind. Followers blocked on the leader retry as new leaders, and the
// dataset's admission slot is released — with MaxInflight = 1, a wedged
// slot would reject every future request for the dataset.
func TestComputePanicReleasesCall(t *testing.T) {
	c := newTest(Config{MaxInflight: 1})
	ctx := context.Background()
	started := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the leader")
			}
		}()
		c.Do(ctx, "ds", 1, 0, "q", func(context.Context) (any, int64, error) {
			close(started)
			<-release
			panic("kernel bug")
		})
	}()
	<-started

	// Follower joins while the doomed leader is computing.
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		v, err := c.Do(ctx, "ds", 1, 0, "q", func(context.Context) (any, int64, error) {
			return "recovered", 8, nil
		})
		if err != nil || v != "recovered" {
			t.Errorf("follower after panic: %v, %v", v, err)
		}
	}()
	// Let the leader panic only once the follower has provably coalesced.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never coalesced onto the leader")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-leaderDone

	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never unblocked after the leader panicked")
	}
	// The admission slot must be free again: a fresh leader computes.
	v, err := c.Do(ctx, "ds", 1, 0, "q2", func(context.Context) (any, int64, error) {
		return "alive", 8, nil
	})
	if err != nil || v != "alive" {
		t.Fatalf("post-panic Do = %v, %v (admission slot wedged?)", v, err)
	}
}

// TestLineagesNeverShareEntries: a re-registered dataset starts a new
// lineage whose Version counter restarts at 0. A lookup on the new lineage
// must neither join the old lineage's in-flight computation nor, once that
// computation fills late, read its entry. No purge is involved.
func TestLineagesNeverShareEntries(t *testing.T) {
	c := newTest(Config{})
	ctx := context.Background()
	started := make(chan struct{})
	release := make(chan struct{})
	oldDone := make(chan struct{})
	go func() {
		defer close(oldDone)
		v, err := c.Do(ctx, "ds", 1, 0, "q", func(context.Context) (any, int64, error) {
			close(started)
			<-release
			return "old-lineage", 8, nil
		})
		// The leader itself still gets its own (old-lineage) answer.
		if err != nil || v != "old-lineage" {
			t.Errorf("old leader: %v, %v", v, err)
		}
	}()
	<-started

	// A request for the same (name, version, query) on the new lineage must
	// not join the old lineage's in-flight call.
	newDone := make(chan any, 1)
	go func() {
		v, err := c.Do(ctx, "ds", 2, 0, "q", func(context.Context) (any, int64, error) {
			return "new-lineage", 8, nil
		})
		if err != nil {
			t.Errorf("new lineage Do: %v", err)
		}
		newDone <- v
	}()
	select {
	case v := <-newDone:
		if v != "new-lineage" {
			t.Fatalf("new-lineage Do = %v, want new-lineage", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("new-lineage Do coalesced onto the old lineage's call")
	}

	close(release)
	<-oldDone
	// The late fill is stored under its own lineage only.
	if v, _, ok := c.Get("ds", 2, 0, "q"); !ok || v != "new-lineage" {
		t.Fatalf("new-lineage Get after late fill = %v, %v", v, ok)
	}
	if v, _, ok := c.Get("ds", 1, 0, "q"); !ok || v != "old-lineage" {
		t.Fatalf("old-lineage Get = %v, %v", v, ok)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	c := newTest(Config{MaxEntries: 64, MaxBytes: 1 << 20, MaxInflight: 4})
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("q%d", i%10)
				v, err := c.Do(ctx, "ds", 1, uint64(i%3), q, func(context.Context) (any, int64, error) {
					return q, 32, nil
				})
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if err == nil && v != q {
					t.Errorf("worker %d: got %v want %v", w, v, q)
					return
				}
				if i%17 == 0 {
					c.Purge("ds")
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses+st.Coalesced == 0 {
		t.Fatal("no traffic recorded")
	}
}
