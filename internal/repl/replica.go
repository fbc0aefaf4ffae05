package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/snapshot"
)

// Replica phases (surfaced in dataset resources and stats).
const (
	PhaseBootstrapping = "bootstrapping"
	PhaseTailing       = "tailing"
	PhaseDegraded      = "degraded" // primary unreachable; serving last-applied version
)

// ReplicaOptions tune a replica's tailing behavior. Zero values take the
// defaults noted per field.
type ReplicaOptions struct {
	Client     *http.Client  // transport (default: a fresh timeout-free client; see below)
	PollWait   time.Duration // long-poll wait per journal request (default 20s)
	Refresh    time.Duration // dataset-discovery period (default 15s)
	MaxRecords int           // records per journal request (default 512)
	BackoffMin time.Duration // first retry delay after an error (default 100ms)
	BackoffMax time.Duration // retry delay cap (default 5s)
	// HeaderTimeout bounds the connect-through-response-headers phase of
	// every request the replica issues (default 5s). Journal long-polls get
	// PollWait on top, since the primary legitimately parks them. This —
	// not Client.Timeout — is what keeps a blackholed primary from wedging
	// a tailer: a whole-request timeout would also kill slow-but-live
	// snapshot streams, so the replica bounds each phase instead.
	HeaderTimeout time.Duration
	// StallTimeout bounds the gap between successive body reads once the
	// headers are in (default 10s): a response that stops making progress
	// mid-stream is aborted and retried with backoff, however large the
	// snapshot behind it.
	StallTimeout time.Duration
	// MissingLimit is how many consecutive dataset-missing answers (404
	// from the journal or snapshot endpoint) a tailer tolerates before it
	// un-claims the dataset and drops it from the local explorer (default
	// 3). A dataset deleted at the primary thus disappears here too instead
	// of being served stale forever; if the name reappears at the primary,
	// the discovery loop re-claims and re-bootstraps it.
	MissingLimit int
	Logf         func(format string, args ...any)
}

// Replica tails one primary: it discovers datasets, bootstraps each from
// the primary's snapshot endpoint, then applies journal records through
// Explorer.Mutate — the apply-from-stream seam that bypasses the write
// batcher and local journaling but reuses the full incremental-maintenance
// and conflict-typing path. The wrapped Explorer stays a normal read-serving
// Explorer throughout; when the primary is unreachable the replica simply
// stops advancing and keeps serving its last-applied version.
type Replica struct {
	exp *api.Explorer
	opt ReplicaOptions

	mu      sync.Mutex
	primary string
	// gen counts re-targets. Each tailer loop snapshots it; a mismatch on
	// the next iteration means the primary changed underfoot, so the tailer
	// re-bootstraps from the new one instead of trusting a position that
	// belongs to the old lineage.
	gen    uint64
	states map[string]*replicaState

	applied    atomic.Int64
	appliedOps atomic.Int64
	bootstraps atomic.Int64
	fences     atomic.Int64
	netErrors  atomic.Int64
	dropped    atomic.Int64
	retargets  atomic.Int64
}

type replicaState struct {
	epoch   uint64
	applied uint64 // last applied sequence == served Version
	head    uint64 // last observed primary head
	phase   string
	// missing counts consecutive dataset-missing (404) answers from the
	// primary; at MissingLimit the tailer un-claims and drops the dataset.
	missing int
	// notify is closed and replaced on every apply; WaitVersion parks on it.
	notify chan struct{}
}

// errDatasetMissing marks a 404 from the journal or snapshot endpoint: the
// primary is reachable but no longer has the dataset.
var errDatasetMissing = errors.New("dataset missing at primary")

// NewReplica wraps exp as a replica of the primary at primaryURL (base URL,
// e.g. "http://primary:8080"). Call Run to start tailing.
func NewReplica(exp *api.Explorer, primaryURL string, opt ReplicaOptions) *Replica {
	if opt.Client == nil {
		// Deliberately no Client.Timeout: per-phase bounds (HeaderTimeout,
		// StallTimeout, PollWait) govern instead, so a multi-second snapshot
		// stream that is making progress is never killed by a blanket cap.
		opt.Client = &http.Client{}
	}
	if opt.PollWait <= 0 {
		opt.PollWait = 20 * time.Second
	}
	if opt.Refresh <= 0 {
		opt.Refresh = 15 * time.Second
	}
	if opt.MaxRecords <= 0 {
		opt.MaxRecords = 512
	}
	if opt.BackoffMin <= 0 {
		opt.BackoffMin = 100 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 5 * time.Second
	}
	if opt.HeaderTimeout <= 0 {
		opt.HeaderTimeout = 5 * time.Second
	}
	if opt.StallTimeout <= 0 {
		opt.StallTimeout = 10 * time.Second
	}
	if opt.MissingLimit <= 0 {
		opt.MissingLimit = 3
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	return &Replica{
		exp:     exp,
		primary: strings.TrimRight(primaryURL, "/"),
		opt:     opt,
		states:  map[string]*replicaState{},
	}
}

// Primary returns the primary base URL this replica currently tails.
func (r *Replica) Primary() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary
}

func (r *Replica) generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// Retarget points the replica at a new primary (the promotion protocol's
// re-target step). Every dataset tailer observes the generation bump on its
// next iteration and re-bootstraps from the new primary — its old position
// belongs to the dead primary's feed and would fence there anyway. A no-op
// when the URL already matches.
func (r *Replica) Retarget(primaryURL string) {
	primaryURL = strings.TrimRight(primaryURL, "/")
	r.mu.Lock()
	if r.primary == primaryURL {
		r.mu.Unlock()
		return
	}
	r.primary = primaryURL
	r.gen++
	for _, st := range r.states {
		st.missing = 0
	}
	r.mu.Unlock()
	r.retargets.Add(1)
	r.opt.Logf("repl: re-targeted to primary %s", primaryURL)
}

// Run discovers datasets and tails each until ctx is canceled. It blocks;
// run it on its own goroutine. Discovery failures are retried on the
// refresh cadence — the replica keeps serving whatever it has.
func (r *Replica) Run(ctx context.Context) {
	var wg sync.WaitGroup
	defer wg.Wait()
	tick := time.NewTicker(r.opt.Refresh)
	defer tick.Stop()
	for {
		names, err := r.discover(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			r.netErrors.Add(1)
			r.opt.Logf("repl: discovery against %s: %v", r.Primary(), err)
		}
		for _, name := range names {
			if r.claim(name) {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					r.tailDataset(ctx, name)
				}(name)
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// claim registers a state for name; false if a tailer already owns it.
func (r *Replica) claim(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.states[name]; ok {
		return false
	}
	r.states[name] = &replicaState{phase: PhaseBootstrapping, notify: make(chan struct{})}
	return true
}

// boundedGet issues a GET whose every phase has a deadline: headerBudget
// covers connect + request + response headers (the phase a blackholed
// primary stalls forever), and once headers are in, each body read must
// complete within the stall budget or the request is aborted. The returned
// release cancels the watchdog and the request context; call it exactly
// once, after the body is drained (drain calls Close, not release — both
// are needed).
func (r *Replica) boundedGet(ctx context.Context, url string, headerBudget time.Duration) (*http.Response, func(), error) {
	rctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(rctx, "GET", url, nil)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	watchdog := time.AfterFunc(headerBudget, cancel)
	resp, err := r.opt.Client.Do(req)
	if err != nil {
		watchdog.Stop()
		cancel()
		return nil, nil, err
	}
	watchdog.Reset(r.opt.StallTimeout)
	resp.Body = &stalledBody{ReadCloser: resp.Body, watchdog: watchdog, stall: r.opt.StallTimeout}
	return resp, func() { watchdog.Stop(); cancel() }, nil
}

// stalledBody re-arms the request watchdog before every body read: a read
// that blocks past the stall budget fires the watchdog, which cancels the
// request context and unwedges the read with an error.
type stalledBody struct {
	io.ReadCloser
	watchdog *time.Timer
	stall    time.Duration
}

func (b *stalledBody) Read(p []byte) (int, error) {
	b.watchdog.Reset(b.stall)
	return b.ReadCloser.Read(p)
}

func (r *Replica) discover(ctx context.Context) ([]string, error) {
	resp, release, err := r.boundedGet(ctx, r.Primary()+"/api/v1/datasets", r.opt.HeaderTimeout)
	if err != nil {
		return nil, err
	}
	defer release()
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("list datasets: status %d", resp.StatusCode)
	}
	var body struct {
		Datasets []struct {
			Name string `json:"name"`
		} `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(body.Datasets))
	for _, d := range body.Datasets {
		if d.Name != "" {
			names = append(names, d.Name)
		}
	}
	return names, nil
}

// tailDataset is one dataset's replication loop: bootstrap, tail, and on
// any fence or divergence, bootstrap again. Transport errors back off
// exponentially; the dataset keeps serving its last-applied version.
func (r *Replica) tailDataset(ctx context.Context, name string) {
	backoff := r.opt.BackoffMin
	sleep := func() bool {
		r.setPhase(name, PhaseDegraded)
		select {
		case <-ctx.Done():
			return false
		case <-time.After(backoff):
		}
		backoff = min(backoff*2, r.opt.BackoffMax)
		return true
	}
	needBootstrap := true
	gen := r.generation()
	for ctx.Err() == nil {
		if g := r.generation(); g != gen {
			// Re-targeted to a new primary: the tail position belongs to the
			// old one. Start over against the new primary immediately.
			gen = g
			needBootstrap = true
			backoff = r.opt.BackoffMin
			r.setPhase(name, PhaseBootstrapping)
		}
		if needBootstrap {
			if err := r.bootstrap(ctx, name); err != nil {
				if ctx.Err() != nil {
					return
				}
				r.netErrors.Add(1)
				r.opt.Logf("repl: bootstrap %q: %v", name, err)
				if r.noteMissing(name, err) {
					r.unclaim(name)
					return
				}
				if !sleep() {
					return
				}
				continue
			}
			needBootstrap = false
			backoff = r.opt.BackoffMin
		}
		fenced, err := r.tailOnce(ctx, name)
		switch {
		case ctx.Err() != nil:
			return
		case fenced:
			// The primary cannot serve our position contiguously (buffer
			// trimmed, re-upload, restart) or our applied version diverged.
			r.fences.Add(1)
			needBootstrap = true
			r.setPhase(name, PhaseBootstrapping)
		case err != nil:
			r.netErrors.Add(1)
			r.opt.Logf("repl: tail %q: %v", name, err)
			if r.noteMissing(name, err) {
				r.unclaim(name)
				return
			}
			if !sleep() {
				return
			}
		default:
			backoff = r.opt.BackoffMin
			r.clearMissing(name)
			r.setPhase(name, PhaseTailing)
		}
	}
}

// noteMissing records one more consecutive dataset-missing (404) answer
// when err wraps the sentinel — any other error resets the streak — and
// reports true once the streak reaches MissingLimit: the dataset is gone at
// the primary, not merely unreachable, and must be dropped.
func (r *Replica) noteMissing(name string, err error) (drop bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.states[name]
	if st == nil {
		return false
	}
	if !errors.Is(err, errDatasetMissing) {
		st.missing = 0
		return false
	}
	st.missing++
	return st.missing >= r.opt.MissingLimit
}

func (r *Replica) clearMissing(name string) {
	r.mu.Lock()
	if st := r.states[name]; st != nil {
		st.missing = 0
	}
	r.mu.Unlock()
}

// unclaim withdraws the tailer's claim and removes the dataset from the
// local explorer: the primary no longer serves it, so keeping it would mean
// serving an indefinitely stale ghost (and hammering the journal endpoint
// with 404s every backoff). Parked WaitVersion callers wake, observe the
// dataset as unknown, and time out as lagging. If the name reappears at the
// primary, the discovery loop re-claims and re-bootstraps it fresh.
func (r *Replica) unclaim(name string) {
	r.mu.Lock()
	st := r.states[name]
	delete(r.states, name)
	if st != nil {
		close(st.notify)
	}
	r.mu.Unlock()
	r.exp.RemoveDataset(name)
	r.dropped.Add(1)
	r.opt.Logf("repl: %q: missing at primary; un-claimed and dropped", name)
}

// bootstrap fetches the primary's snapshot and (re)registers the dataset.
// The snapshot opens as a new lineage, so no result cached for the dataset
// it replaces can be served for it.
func (r *Replica) bootstrap(ctx context.Context, name string) error {
	u := r.Primary() + "/api/v1/datasets/" + url.PathEscape(name) + "/snapshot"
	resp, release, err := r.boundedGet(ctx, u, r.opt.HeaderTimeout)
	if err != nil {
		return err
	}
	defer release()
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return fmt.Errorf("snapshot fetch: %w", errDatasetMissing)
	default:
		return fmt.Errorf("snapshot fetch: status %d", resp.StatusCode)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(HeaderEpoch), 10, 64)
	if err != nil {
		return fmt.Errorf("snapshot fetch: bad %s header: %v", HeaderEpoch, err)
	}
	ds, err := api.OpenSnapshot(name, resp.Body)
	if err != nil {
		return fmt.Errorf("snapshot decode: %w", err)
	}
	if err := r.exp.AddDataset(ds); err != nil {
		return err
	}
	r.mu.Lock()
	st := r.states[name]
	st.epoch = epoch
	st.applied = ds.Version
	if st.head < ds.Version {
		st.head = ds.Version
	}
	st.phase = PhaseTailing
	close(st.notify)
	st.notify = make(chan struct{})
	r.mu.Unlock()
	r.bootstraps.Add(1)
	r.opt.Logf("repl: bootstrapped %q at version %d (epoch %d)", name, ds.Version, epoch)
	return nil
}

// tailOnce issues one journal-shipping request and applies every record it
// returns. fenced=true demands a re-bootstrap; err is a retryable
// transport/primary failure; (false, nil) means the poll simply elapsed or
// records were applied cleanly.
func (r *Replica) tailOnce(ctx context.Context, name string) (fenced bool, err error) {
	r.mu.Lock()
	st := r.states[name]
	epoch, applied := st.epoch, st.applied
	r.mu.Unlock()

	u := fmt.Sprintf("%s/api/v1/datasets/%s/journal?fromSeq=%d&epoch=%d&wait=%s&maxRecords=%d",
		r.Primary(), url.PathEscape(name), applied+1, epoch, r.opt.PollWait, r.opt.MaxRecords)
	// The primary legitimately parks a long-poll for up to PollWait before
	// the first header byte, so the header budget is PollWait plus the
	// ordinary headroom; a blackholed primary still stalls the tailer for
	// at most that bound, never forever.
	resp, release, err := r.boundedGet(ctx, u, r.opt.PollWait+r.opt.HeaderTimeout)
	if err != nil {
		return false, err
	}
	defer release()
	defer drain(resp)
	if head, err := strconv.ParseUint(resp.Header.Get(HeaderHeadSeq), 10, 64); err == nil {
		r.mu.Lock()
		if head > st.head {
			st.head = head
		}
		r.mu.Unlock()
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict:
		return true, nil // epoch_fenced
	case http.StatusNotFound:
		// Dataset dropped at the primary (or the primary restarted without
		// it). tailDataset counts consecutive misses and un-claims at the
		// limit rather than serving the stale dataset forever.
		return false, fmt.Errorf("journal: %w", errDatasetMissing)
	default:
		return false, fmt.Errorf("journal: status %d", resp.StatusCode)
	}

	fr := snapshot.NewFrameReader(resp.Body)
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return false, nil
		}
		if err != nil {
			// Mid-frame truncation or corruption: reconnect from the last
			// applied sequence; nothing past it was applied.
			return false, err
		}
		if rec.Version <= applied {
			continue // duplicate delivery; already applied
		}
		if rec.Version != applied+1 {
			// A hole in the stream — the feed should fence instead, but
			// never apply around a gap. Re-bootstrap.
			r.opt.Logf("repl: %q: gap: have %d, got record %d", name, applied, rec.Version)
			return true, nil
		}
		res, err := r.exp.Mutate(ctx, name, FromJournalOps(rec.Ops))
		if err != nil {
			if errors.Is(err, api.ErrCanceled) || errors.Is(err, api.ErrTimeout) {
				return false, err
			}
			// A typed conflict (or any apply failure) on a record the
			// primary applied cleanly means our state diverged: the only
			// safe recovery is a fresh snapshot.
			r.opt.Logf("repl: %q: apply of seq %d failed (%v); re-bootstrapping", name, rec.Version, err)
			return true, nil
		}
		if res.Version != rec.Version {
			r.opt.Logf("repl: %q: applied seq %d but dataset is at %d; re-bootstrapping", name, rec.Version, res.Version)
			return true, nil
		}
		applied = rec.Version
		r.applied.Add(1)
		r.appliedOps.Add(int64(len(rec.Ops)))
		r.mu.Lock()
		st.applied = applied
		st.phase = PhaseTailing
		close(st.notify)
		st.notify = make(chan struct{})
		r.mu.Unlock()
	}
}

func (r *Replica) setPhase(name, phase string) {
	r.mu.Lock()
	if st := r.states[name]; st != nil && st.phase != phase {
		st.phase = phase
	}
	r.mu.Unlock()
}

// WaitVersion blocks until dataset `name` has applied at least version v,
// or ctx expires. An unknown dataset counts as lagging (it may not have
// been discovered yet), so callers time out rather than serve a miss.
func (r *Replica) WaitVersion(ctx context.Context, name string, v uint64) error {
	for {
		r.mu.Lock()
		st := r.states[name]
		var applied uint64
		var notify chan struct{}
		if st != nil {
			applied = st.applied
			notify = st.notify
		}
		r.mu.Unlock()
		if st != nil && applied >= v {
			return nil
		}
		if notify == nil {
			// Not discovered yet: poll on a short fuse instead of a wait.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-notify:
		}
	}
}

// DatasetStatus is one dataset's replication position on a replica.
type DatasetStatus struct {
	Epoch      uint64
	AppliedSeq uint64
	HeadSeq    uint64
	Phase      string
}

// Status reports a dataset's replication position.
func (r *Replica) Status(name string) (DatasetStatus, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.states[name]
	if st == nil {
		return DatasetStatus{}, false
	}
	return DatasetStatus{Epoch: st.epoch, AppliedSeq: st.applied, HeadSeq: st.head, Phase: st.phase}, true
}

// ReplicaStats is the replica-side counter block for /api/stats.
type ReplicaStats struct {
	Primary        string `json:"primary"`
	Datasets       int    `json:"datasets"`
	AppliedRecords int64  `json:"appliedRecords"`
	AppliedOps     int64  `json:"appliedOps"`
	Bootstraps     int64  `json:"bootstraps"`
	Fences         int64  `json:"fences"`
	NetErrors      int64  `json:"netErrors"`
	Dropped        int64  `json:"dropped"` // datasets un-claimed after going missing at the primary
	Retargets      int64  `json:"retargets"`
	MaxLag         uint64 `json:"maxLag"`
}

// Stats snapshots the replica counters. MaxLag is the largest
// head−applied across datasets at snapshot time.
func (r *Replica) Stats() ReplicaStats {
	s := ReplicaStats{
		Primary:        r.Primary(),
		AppliedRecords: r.applied.Load(),
		Retargets:      r.retargets.Load(),
		AppliedOps:     r.appliedOps.Load(),
		Bootstraps:     r.bootstraps.Load(),
		Fences:         r.fences.Load(),
		NetErrors:      r.netErrors.Load(),
		Dropped:        r.dropped.Load(),
	}
	r.mu.Lock()
	s.Datasets = len(r.states)
	for _, st := range r.states {
		if lag := st.head - st.applied; st.head > st.applied && lag > s.MaxLag {
			s.MaxLag = lag
		}
	}
	r.mu.Unlock()
	return s
}

func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
