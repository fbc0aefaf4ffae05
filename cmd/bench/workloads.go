package main

// The four workloads. Each drives the router the way a class of users
// would; why each exists is recorded in BENCHMARK.json and README.md.

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/core"
	"cexplorer/internal/repl"
	"cexplorer/internal/snapshot"
)

// rateBrowseHot is browse_hot's open-loop rate in requests per second. It is
// a constant, calibrated once on the commit that introduced the benchmark
// (`-closed` reproduces the measurement: two closed-loop clients complete
// 484/s on the same mix) and never derived at run time: both sides of a
// later comparison must face the same offered load. It is a quarter of that
// capacity, not half: with two clients at half, a third of the requests wait
// for a free client, and a phase in which the machine runs 1.3 times slower
// raised the median by 29% (on the closed loops, by 5%).
const rateBrowseHot = 120.0

const (
	batchOps    = 64 // ops per request of ingest_restart's batch writer
	verifyEvery = 50 // one search in verifyEvery is re-answered in process
	// tailBatches is the journal tail ingest_restart's restarts replay.
	tailBatches = 16
	// tailSeed generates that tail: the same ops on every run, whatever the
	// run's seed, because what a batch costs to replay depends on its ops
	// (31 to 120 ms for 64 ops) and sixteen batches do not average that out.
	tailSeed = 1
)

var workloadNames = []string{"browse_hot", "browse_cold", "mixed_95_5", "ingest_restart"}

// algorithms are the built-in searches as api.NewExplorer registers them,
// for answering a query in process on one pinned dataset version with the
// result cache bypassed.
var algorithms = map[string]api.CSAlgorithm{
	"ACQ":    &api.ACQAlgorithm{Variant: core.Dec},
	"Global": api.GlobalAlgorithm{},
	"Local":  api.LocalAlgorithm{},
	"KTruss": api.KTrussAlgorithm{},
}

// run is one workload execution against a booted fleet.
type run struct {
	f       *fleet
	c       *client
	rec     *recorder
	clients int
	closed  bool // drive open-loop workloads closed-loop (rate calibration)
	tr      *tracer

	warm, window time.Duration
	t0           time.Time // start of the measured window
	atStart      counters  // the fleet's counters when the clock was opened
	// atTrace is the counters when tracing began, half-way through a traced
	// window: cache ratios are taken up to here, before the replays, which
	// are all cache hits, could inflate them.
	atTrace   counters
	atTraceMu sync.Mutex

	streamMu sync.Mutex
	streams  []*mutationStream

	lagWG    sync.WaitGroup
	lagMu    sync.Mutex
	lagByRep [2][]float64 // ack → applied per replica, ms

	checkMu    sync.Mutex
	checks     []check
	verified   int
	unverified int       // sampled, but the version moved under the read
	respBytes  []float64 // guarded by checkMu
	restartMS  []float64
	replayMS   []float64
}

// check is one sampled answer held for verification after the window, so
// re-answering it costs the measured fleet nothing.
type check struct {
	q          *query
	body       []byte
	candidates []*api.Dataset // primary versions the answer may be from
}

// timed runs fn as one attempted operation due at `due` and records its
// latency from that instant, or its failure.
func (r *run) timed(class int, due time.Time, units int, fn func() error) error {
	if err := fn(); err != nil {
		r.rec.fail(err)
		return err
	}
	r.rec.add(sample{class: class, at: due.Sub(r.t0), lat: time.Since(due), units: units})
	return nil
}

// openLoop sends n slots at a fixed rate starting at start: slot i is due at
// start + i/rate whatever happened to earlier slots. At most r.clients
// requests are in flight, one connection each; a slot that finds every
// client busy is sent late, and both its latency (counted from its due time)
// and the recorded lateness show it.
func (r *run) openLoop(start time.Time, rate float64, n int, do func(slot int, due time.Time)) {
	r.forEach(n, func(i int) {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if r.closed {
			due = time.Now()
		} else if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		r.rec.lateness(time.Since(due))
		do(i, due)
	})
}

// forEach runs do(i) for i in [0,n) on r.clients clients, each taking the
// next unclaimed index.
func (r *run) forEach(n int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// closedLoop runs do on r.clients clients back to back until end; i counts
// calls across all clients.
func (r *run) closedLoop(end time.Time, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				do(int(next.Add(1) - 1))
			}
		}()
	}
	wg.Wait()
}

// begin opens the run's clock: warm-up from start, then the measured window.
// A traced run samples only the window's second half; the first half is the
// untraced comparison that gives the tracing overhead.
func (r *run) begin(start time.Time) {
	r.atStart = r.f.counters()
	r.t0 = start.Add(r.warm)
	if r.tr != nil {
		r.tr.from, r.tr.until = r.t0.Add(r.window/2), r.t0.Add(r.window)
		time.AfterFunc(time.Until(r.tr.from), func() {
			c := r.f.counters()
			r.atTraceMu.Lock()
			r.atTrace = c
			r.atTraceMu.Unlock()
		})
	}
}

// slots is how many open-loop slots cover warm-up plus window.
func (r *run) slots(rate float64) int {
	return int((r.warm + r.window).Seconds() * rate)
}

func (r *run) primaryDataset() *api.Dataset {
	ds, _ := r.f.primary.exp.Dataset(datasetName)
	return ds
}

// --- reads ---

// routedSearch sends q through the router as one timed read. When verify is
// set the answer is kept, with the primary's dataset as captured before and
// after the request, for verification after the window.
func (r *run) routedSearch(q *query, due time.Time, minVersion uint64, verify bool) (rep reply, err error) {
	traced := r.tr.sample(false)
	var before *api.Dataset
	if verify {
		before = r.primaryDataset()
	}
	err = r.timed(classRead, due, 1, func() error {
		start := time.Now()
		rep, err = r.c.search(r.f.front.url, q, minVersion, verify)
		if err == nil {
			r.tr.span(traced, "read", "router", "", start, time.Now())
		}
		return err
	})
	if err != nil {
		return rep, err
	}
	r.checkMu.Lock()
	r.respBytes = append(r.respBytes, float64(rep.bytes))
	if verify {
		c := check{q: q, body: rep.body, candidates: []*api.Dataset{before}}
		if after := r.primaryDataset(); after != before {
			c.candidates = append(c.candidates, after)
		}
		r.checks = append(r.checks, c)
	}
	r.checkMu.Unlock()
	if traced != 0 {
		r.traceRead(traced, q)
	}
	return rep, nil
}

// verifyAll re-answers every sampled search in process on the primary, at
// the dataset version the routed answer was computed on, and requires the
// community vertex sets to match. An ungated read may be served by a
// replica one version behind, so only reads whose candidates pin the
// version are sampled (all reads of a read-only workload; on a mutating one
// the reads gated on an acknowledged version).
func (r *run) verifyAll() {
	type key struct {
		ds *api.Dataset
		q  *query
	}
	answers := map[key][]api.Community{}
	for _, c := range r.checks {
		got, err := decodeCommunities(c.body)
		if err != nil {
			r.rec.fail(err)
			continue
		}
		matched := false
		for _, ds := range c.candidates {
			want, ok := answers[key{ds, c.q}]
			if !ok {
				if want, err = algorithms[c.q.Algorithm].Search(context.Background(), ds, c.q.apiQuery()); err != nil {
					r.rec.fail(fmt.Errorf("verify %s on primary: %w", c.q.Algorithm, err))
					break
				}
				answers[key{ds, c.q}] = want
			}
			if matched = sameCommunities(got, want); matched {
				break
			}
		}
		lo, hi := c.candidates[0].Version, c.candidates[len(c.candidates)-1].Version
		switch {
		case matched:
			r.verified++
		case hi > lo+1:
			// Several versions landed while the read was in flight; the
			// replica may have answered on one nobody captured.
			r.unverified++
		default:
			r.rec.fail(fmt.Errorf("wrong answer: routed %s(v=%d,k=%d) differs from the primary's in-process answer at version %d..%d",
				c.q.Algorithm, c.q.Vertices[0], c.q.K, lo, hi))
		}
	}
	r.checks = nil
}

func sameCommunities(got []wireCommunity, want []api.Community) bool {
	if len(got) != len(want) {
		return false
	}
	a := make([][]int32, len(got))
	b := make([][]int32, len(want))
	for i := range got {
		a[i], b[i] = slices.Clone(got[i].Vertices), slices.Clone(want[i].Vertices)
		slices.Sort(a[i])
		slices.Sort(b[i])
	}
	slices.SortFunc(a, slices.Compare)
	slices.SortFunc(b, slices.Compare)
	return slices.EqualFunc(a, b, func(x, y []int32) bool { return slices.Equal(x, y) })
}

// prefill sends every hot query once so the measured window starts on a
// filled result cache. Its samples fall before the window.
func (r *run) prefill() {
	r.t0 = time.Now().Add(time.Hour)
	r.forEach(len(r.f.in.Hot), func(i int) {
		r.routedSearch(&r.f.in.Hot[i], time.Now(), 0, false)
	})
}

func (r *run) browseHot(seed int64) {
	r.prefill()
	n := r.slots(rateBrowseHot)
	sched := hotSchedule(seed, n)
	start := time.Now()
	r.begin(start)
	r.openLoop(start, rateBrowseHot, n, func(i int, due time.Time) {
		r.routedSearch(&r.f.in.Hot[sched[i]], due, 0, i%verifyEvery == 0)
	})
}

func (r *run) browseCold(int64) {
	r.begin(time.Now())
	front := r.f.front.url
	r.closedLoop(r.t0.Add(r.window), func(i int) {
		if i >= len(r.f.in.Cold) {
			r.rec.fail(errors.New("browse_cold panel exhausted: the run outlasted its distinct queries"))
			time.Sleep(10 * time.Millisecond)
			return
		}
		it := &r.f.in.Cold[i]
		if it.Session {
			r.session(&it.Query)
			return
		}
		rep, err := r.routedSearch(&it.Query, time.Now(), 0, it.Analyze || i%verifyEvery == 0)
		if err != nil || !it.Analyze {
			return
		}
		comms, err := decodeCommunities(rep.body)
		if err != nil {
			r.rec.fail(err)
			return
		}
		if len(comms) == 0 {
			return // core(q) ≥ k, yet no community shares the keywords
		}
		vs := comms[0].Vertices
		if len(vs) > displayCap {
			vs = vs[:displayCap]
		}
		r.timed(classRead, time.Now(), 1, func() error {
			_, err := r.c.analyze(front, vs, it.Query.Vertices[0])
			return err
		})
		r.timed(classRead, time.Now(), 1, func() error {
			_, err := r.c.display(front, vs)
			return err
		})
	})
}

// session is one exploration: open → expand → expand → contract → close,
// every call one step sample.
func (r *run) session(q *query) {
	front := r.f.front.url
	var id string
	if r.timed(classStep, time.Now(), 1, func() (err error) {
		id, err = r.c.exploreOpen(front, q)
		return err
	}) != nil {
		return
	}
	for _, action := range []string{"expand", "expand", "contract"} {
		r.timed(classStep, time.Now(), 1, func() error { return r.c.exploreStep(front, id, action) })
	}
	r.timed(classStep, time.Now(), 1, func() error { return r.c.exploreClose(front, id) })
}

// --- writes ---

// routedWrite posts ops through the router as one timed write and starts
// the clocks that measure how long the acknowledged version takes to become
// visible on each replica.
func (r *run) routedWrite(stream int, ops []api.Mutation, due time.Time) (*api.MutationResult, error) {
	var res *api.MutationResult
	// Only a single edge op can be replayed: it has an inverse.
	var traced int64
	if len(ops) == 1 && ops[0].Op != api.OpAddVertex {
		traced = r.tr.sample(true)
	}
	err := r.timed(classWrite, due, len(ops), func() (err error) {
		start := time.Now()
		res, err = r.c.mutate(r.f.front.url, ops)
		if err == nil {
			r.tr.span(traced, "write", "router", "", start, time.Now())
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	acked := time.Now()
	var both sync.WaitGroup
	for i, rep := range r.f.replicas {
		both.Add(1)
		r.lagWG.Add(1)
		go func() {
			defer r.lagWG.Done()
			defer both.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := rep.rep.WaitVersion(ctx, datasetName, res.Version); err != nil {
				r.rec.fail(fmt.Errorf("version %d never became visible on replica %d: %w", res.Version, i, err))
				return
			}
			r.lagMu.Lock()
			r.lagByRep[i] = append(r.lagByRep[i], ms(time.Since(acked)))
			r.lagMu.Unlock()
		}()
	}
	r.lagWG.Add(1)
	go func() {
		defer r.lagWG.Done()
		both.Wait()
		end := time.Now()
		r.rec.add(sample{class: classLag, at: acked.Sub(r.t0), lat: end.Sub(acked), units: 1})
		r.tr.span(traced, "write", "visible", "router", acked, end)
	}()
	if traced != 0 {
		r.traceWrite(traced, stream, ops[0])
	}
	return res, nil
}

// nextOps draws n ops from a stream. Streams are shared by the clients of an
// open loop, hence the lock.
func (r *run) nextOps(stream, n int) []api.Mutation {
	r.streamMu.Lock()
	defer r.streamMu.Unlock()
	if n == 1 {
		return []api.Mutation{r.streams[stream].next(true)}
	}
	return r.streams[stream].batch(n)
}

// mixed is closed-loop: an open loop at half the closed-loop rate was tried
// and gave 375 samples a window with bursts queued behind 250 ms truss
// rebuilds, and spreads of 23% to 38% across seeds.
func (r *run) mixed(seed int64) {
	r.streams = []*mutationStream{newMutationStream(r.f.data, seed, 0, 1)}
	r.prefill()
	reads := hotSchedule(seed, 1<<14)
	r.begin(time.Now())
	r.closedLoop(r.t0.Add(r.window), func(i int) {
		q := &r.f.in.Hot[reads[i%len(reads)]]
		if !isWriteSlot(i) {
			r.routedSearch(q, time.Now(), 0, false)
			return
		}
		// A write, then read-your-writes: the follow-up read carries the
		// acknowledged version, and is the read this workload verifies.
		if res, err := r.routedWrite(0, r.nextOps(0, 1), time.Now()); err == nil {
			r.routedSearch(q, time.Now(), res.Version, true)
		}
	})
	r.lagWG.Wait()
}

func (r *run) ingest(seed int64) {
	// The third share of the vertex pairs belongs to the restart tail.
	r.streams = []*mutationStream{
		newMutationStream(r.f.data, seed, 0, 3),
		newMutationStream(r.f.data, seed, 1, 3),
	}
	r.begin(time.Now())
	end := r.t0.Add(r.window)
	// Two writers whatever the client count: one posts single ops, one
	// posts batches, so the batcher sees both shapes at once.
	var wg sync.WaitGroup
	for stream, n := range []int{1, batchOps} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				r.routedWrite(stream, r.nextOps(stream, n), time.Now())
			}
		}()
	}
	wg.Wait()
	r.lagWG.Wait()
}

// --- after the window ---

// converged waits for both replicas to apply the primary's version and then
// requires their graphs to equal the primary's, and the primary's size to
// equal what the mutation streams' own model predicts.
//
// dyntest.CheckConverged is the oracle the repl tests use, but its index
// layer enumerates every k-cover of every vertex and runs ktruss.Naive: fine
// on 60 vertices, hours on 100,000. The graph comparison below is its first
// half; answer equality is what the sampled verification covers.
func (r *run) converged() error {
	pds := r.primaryDataset()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, rep := range r.f.replicas {
		if err := rep.rep.WaitVersion(ctx, datasetName, pds.Version); err != nil {
			return fmt.Errorf("replica %d never reached version %d: %w", i, pds.Version, err)
		}
		rds, _ := rep.exp.Dataset(datasetName)
		if err := sameGraph(pds, rds); err != nil {
			return fmt.Errorf("replica %d diverged: %w", i, err)
		}
	}
	wantN, wantM := r.f.data.Graph.N(), r.f.data.Graph.M()
	for _, s := range r.streams {
		wantN += s.Vertices
		wantM += s.Edges
	}
	if pds.Graph.N() != wantN || pds.Graph.M() != wantM {
		return fmt.Errorf("primary holds %d vertices / %d edges, the generator's model says %d / %d",
			pds.Graph.N(), pds.Graph.M(), wantN, wantM)
	}
	return nil
}

func sameGraph(p, q *api.Dataset) error {
	if p.Version != q.Version {
		return fmt.Errorf("version %d vs %d", p.Version, q.Version)
	}
	pg, qg := p.Graph, q.Graph
	if pg.N() != qg.N() || pg.M() != qg.M() {
		return fmt.Errorf("size %d/%d vs %d/%d", pg.N(), pg.M(), qg.N(), qg.M())
	}
	sorted := func(vs []int32) []int32 {
		if slices.IsSorted(vs) {
			return vs
		}
		vs = slices.Clone(vs)
		slices.Sort(vs)
		return vs
	}
	for v := int32(0); int(v) < pg.N(); v++ {
		if pg.Name(v) != qg.Name(v) {
			return fmt.Errorf("name of vertex %d: %q vs %q", v, pg.Name(v), qg.Name(v))
		}
		if !slices.Equal(sorted(pg.Neighbors(v)), sorted(qg.Neighbors(v))) {
			return fmt.Errorf("adjacency of vertex %d differs", v)
		}
		pw, qw := slices.Clone(pg.KeywordStrings(v)), slices.Clone(qg.KeywordStrings(v))
		slices.Sort(pw)
		slices.Sort(qw)
		if !slices.Equal(pw, qw) {
			return fmt.Errorf("keywords of vertex %d differ", v)
		}
	}
	return nil
}

// restarts measures a cold restart of the primary: a fresh server over the
// data dir a compaction at the end of the workload would leave (the resident
// snapshot of the primary's current version), from server.New until its
// first search is answered. With tail set, the dir also holds a journal of
// tailBatches batches for the restart to replay. Where in the 4096-op
// compaction cycle a window ends is chance, so the primary's own journal is
// not used.
//
// The first search is a Global query at k=3: its answer is the giant 3-core
// whichever vertex asks, so it costs the same on every run and the
// differences are the restart's.
func (r *run) restarts(tail bool) error {
	// A restart with nothing to replay takes a tenth of a second and is
	// noisy, so more of them are taken.
	cycles := 9
	if tail {
		cycles = 3
	}
	dir := filepath.Join(r.f.dir, "restart")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	pds := r.primaryDataset()
	file := filepath.Join(dir, url.PathEscape(datasetName)+snapshot.FileExt)
	if _, err := pds.WriteResidentSnapshotFile(file); err != nil {
		return err
	}
	if tail {
		s := newMutationStream(r.f.data, tailSeed, 2, 3)
		for i := range tailBatches {
			rec := snapshot.JournalRecord{Version: pds.Version + 1 + uint64(i), Ops: repl.ToJournalOps(s.batch(batchOps))}
			if err := snapshot.AppendJournal(file+snapshot.JournalExt, rec); err != nil {
				return err
			}
		}
	}
	q := &query{Algorithm: "Global", Vertices: r.f.in.Hot[0].Vertices, K: ks[0]}
	q.body = mustJSON(q)
	for range cycles {
		runtime.GC() // so that no collection of the workload's garbage lands inside the restart
		start := time.Now()
		n, err := startPrimary(dir, nil, nil)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		loaded := time.Since(start)
		_, err = r.c.search(n.url, q, 0, false)
		took := time.Since(start)
		st := n.srv.Stats()
		rds, _ := n.exp.Dataset(datasetName)
		n.stop()
		if err != nil {
			return fmt.Errorf("restart: first search: %w", err)
		}
		if want := pds.Version + uint64(tailBatches*btoi(tail)); rds.Version != want {
			return fmt.Errorf("restart came back at version %d, the data dir holds version %d", rds.Version, want)
		}
		r.restartMS = append(r.restartMS, ms(took))
		// LoadSnapshots is open + register (which the server's own counter
		// times) + journal replay; the remainder is the replay.
		r.replayMS = append(r.replayMS, max(0, ms(loaded)-st.SnapshotLoadMS))
	}
	return nil
}
