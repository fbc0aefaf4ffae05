package repl_test

// Chaos-convergence suite: the replication fleet (primary + 2 replicas +
// router) with every fleet-internal link behind a deterministic
// fault-injection proxy (internal/chaos). A seeded schedule of drops,
// blackholes, latency, mid-body truncation, corrupt bytes, and synthetic
// 5xx plays against random mutations and routed reads, and the suite
// asserts the three fleet invariants:
//
//	(a) once faults stop, every replica converges to bit-equality with the
//	    primary (graph, cores, CL-tree, truss, ACQ answers);
//	(b) read-your-writes: a routed 200 carrying X-CExplorer-Min-Version
//	    never reports an older version, storm or no storm;
//	(c) nothing wedges: every stall is bounded by a configured deadline —
//	    replica per-phase timeouts, router client timeout, test client
//	    timeout — so the suite finishes on the clock, not on luck.
//
// Schedules are seed-derived (chaos.GenPlan) and ddmin-shrinkable
// (chaos.ShrinkPlan): a failure reports the seed and the schedule, and
// CEXPLORER_CHAOS_SHRINK=1 re-runs the fleet to neutralize every fault the
// failure does not need — the same repro-first discipline as the dyntest
// equivalence harness. The single-fault regression tests in this file are
// the shrunk schedules of the bugs this suite originally surfaced.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/chaos"
	"cexplorer/internal/dyntest"
	"cexplorer/internal/gen"
	"cexplorer/internal/repl"
)

// chaosTail are replica options for chaos runs: fast cadence and tight
// per-phase bounds, so every injected stall resolves on the test's clock.
// Keep-alives are off so each request is one proxied connection and the
// seeded schedule maps onto request order.
func chaosTail() repl.ReplicaOptions {
	return repl.ReplicaOptions{
		Client:        &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		PollWait:      300 * time.Millisecond,
		Refresh:       50 * time.Millisecond,
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    100 * time.Millisecond,
		HeaderTimeout: 250 * time.Millisecond,
		StallTimeout:  500 * time.Millisecond,
	}
}

func chaosProxyOpts(t *testing.T) chaos.Options {
	return chaos.Options{BlackholeHold: 600 * time.Millisecond, Logf: t.Logf}
}

// TestReplicaBoundedAgainstBlackhole is the shrunk regression for the
// unbounded-client bug: ReplicaOptions used to default to http.DefaultClient
// (no timeout), so the first blackholed connection wedged the tailer
// forever. With per-phase deadlines, a run whose first connections are all
// blackholes still discovers, bootstraps, and converges — each stall bounded
// by HeaderTimeout (or PollWait+HeaderTimeout for long-polls), then backoff.
func TestReplicaBoundedAgainstBlackhole(t *testing.T) {
	p := startPrimary(t, repl.FeedOptions{})
	base := gen.GNMAttributed(30, 60, 4, 3)
	if _, err := p.exp.AddGraph("dyn", base); err != nil {
		t.Fatal(err)
	}
	plan := make(chaos.Plan, 4)
	for i := range plan {
		plan[i] = chaos.Fault{Kind: chaos.Blackhole}
	}
	px, err := chaos.NewProxy(p.ts.URL, plan, chaosProxyOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	start := time.Now()
	r := startReplica(t, px.URL(), chaosTail())
	v := postMutations(t, p.ts.URL, "dyn", dyntest.GenOps(base, 10, 3))
	waitForConvergence(t, p.exp, r.exp, "dyn", v)

	// 4 blackholes at ≤ PollWait+HeaderTimeout each, plus the real work.
	// A hang-catcher: a stall with no deadline never ends (a blackhole does
	// not answer), so converging at all proves each was bounded, and the
	// clock only has to outlast a slow machine.
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("converged only after %v behind 4 blackholes", elapsed)
	}
	if px.Injected(chaos.Blackhole) != 4 {
		t.Fatalf("blackholes injected: %d, want 4", px.Injected(chaos.Blackhole))
	}
	if st := r.rep.Stats(); st.NetErrors == 0 {
		t.Fatalf("blackholed requests left no error trace: %+v", st)
	}
}

// deleteDataset drops a dataset through the primary's HTTP surface.
func deleteDataset(t *testing.T, baseURL, name string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, baseURL+"/api/v1/datasets/"+name, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete %q: status %d", name, resp.StatusCode)
	}
}

// TestReplicaDropsDeletedDataset is the divergence regression: a dataset
// deleted at the primary used to 404 the journal poll forever while the
// replica served the ghost stale (netErrors climbing every cycle). Now the
// tailer counts consecutive misses, un-claims at MissingLimit, and drops the
// local copy; a re-created dataset is re-claimed and re-converges.
func TestReplicaDropsDeletedDataset(t *testing.T) {
	p := startPrimary(t, repl.FeedOptions{})
	if _, err := p.exp.AddGraph("keep", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.exp.AddGraph("doomed", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	opt := chaosTail()
	opt.MissingLimit = 3
	r := startReplica(t, p.ts.URL, opt)
	v := postMutations(t, p.ts.URL, "doomed", []api.Mutation{{Op: api.OpAddEdge, U: 0, V: 5}})
	waitApplied(t, r.rep, "doomed", v)
	waitApplied(t, r.rep, "keep", 0)

	deleteDataset(t, p.ts.URL, "doomed")
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, here := r.exp.Dataset("doomed")
		_, claimed := r.rep.Status("doomed")
		if !here && !claimed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica still serves the deleted dataset: registered=%v claimed=%v stats=%+v",
				here, claimed, r.rep.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := r.rep.Stats(); st.Dropped == 0 {
		t.Fatalf("drop left no stats trace: %+v", st)
	}
	if _, ok := r.exp.Dataset("keep"); !ok {
		t.Fatal("unrelated dataset dropped alongside the deleted one")
	}

	// The name comes back at the primary: discovery re-claims, and the
	// replica converges on the new lineage from scratch.
	if _, err := p.exp.AddGraph("doomed", gen.GNMAttributed(20, 40, 3, 9)); err != nil {
		t.Fatal(err)
	}
	v = postMutations(t, p.ts.URL, "doomed", []api.Mutation{{Op: api.OpAddVertex, Name: "back"}})
	waitForConvergence(t, p.exp, r.exp, "doomed", v)
}

// TestReplicaReconnectsOnCorruptFrames: every journal/snapshot response body
// through the proxy gets one byte flipped. The CXJRNL frame CRC (and the
// snapshot checksums) must catch each flip so the replica reconnects and
// re-reads — and never applies a corrupt record. Bit-equality with the
// primary after the storm is the proof: one applied garbage byte would
// diverge the graphs for good.
func TestReplicaReconnectsOnCorruptFrames(t *testing.T) {
	p := startPrimary(t, repl.FeedOptions{})
	base := gen.GNMAttributed(40, 90, 4, 9)
	if _, err := p.exp.AddGraph("dyn", base); err != nil {
		t.Fatal(err)
	}
	plan := make(chaos.Plan, 40)
	for i := range plan {
		// Small offsets so the flip lands inside real payload bytes on
		// journal responses, headers-of-body on snapshots — all CRC-covered.
		plan[i] = chaos.Fault{Kind: chaos.Corrupt, After: (i * 13) % 160}
	}
	px, err := chaos.NewProxy(p.ts.URL, plan, chaosProxyOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	r := startReplica(t, px.URL(), chaosTail())

	ops := dyntest.GenOps(base, 40, 11)
	var v uint64
	for off := 0; off < len(ops); off += 5 {
		v = postMutations(t, p.ts.URL, "dyn", ops[off:min(off+5, len(ops))])
	}
	waitForConvergence(t, p.exp, r.exp, "dyn", v)
	if px.Injected(chaos.Corrupt) == 0 {
		t.Fatal("no corruption was injected; the test proved nothing")
	}
}

// --- the full fleet suite ---

// chaosLinks names the proxied links of the fleet, in schedule order.
var chaosLinks = [4]string{"replica1→primary", "replica2→primary", "router→replica1", "router→replica2"}

// genChaosSchedule derives the per-link schedules from one seed. The
// replication links get the full mix (corrupt bytes included: journal
// frames are CRC-framed, so replicas detect every flip). The router links
// exclude Corrupt — a flipped byte inside a JSON body is undetectable by a
// client with no checksum, so it cannot be part of a read-your-writes
// oracle; every other fault class is visible as an error or a torn
// connection and is scheduled freely.
func genChaosSchedule(seed int64) [4]chaos.Plan {
	replMix := chaos.Mix{None: 5, Drop: 2, Blackhole: 1, Latency: 2, Truncate: 2, Corrupt: 3, Err5xx: 2,
		MaxDelay: 80 * time.Millisecond, MaxAfter: 512}
	routeMix := chaos.Mix{None: 5, Drop: 2, Blackhole: 1, Latency: 2, Truncate: 2, Err5xx: 2,
		MaxDelay: 80 * time.Millisecond, MaxAfter: 512}
	return [4]chaos.Plan{
		chaos.GenPlan(seed+1, 60, replMix),
		chaos.GenPlan(seed+2, 60, replMix),
		chaos.GenPlan(seed+3, 40, routeMix),
		chaos.GenPlan(seed+4, 40, routeMix),
	}
}

// runChaosFleet stands up primary + 2 replicas + router with every
// fleet-internal link behind a fault proxy running its schedule, drives
// mutations (directly at the primary: writes are not faulted, so every
// version the oracle asserts on is a version the primary acknowledged) and
// routed min-version reads through the storm, then disables all faults and
// demands per-version bit-equality. Invariant violations come back as
// errors so a failing schedule can be replayed and shrunk; infrastructure
// failures still fail t directly.
func runChaosFleet(t *testing.T, sched [4]chaos.Plan, seed int64) error {
	t.Helper()
	p := startPrimary(t, repl.FeedOptions{})
	base := gen.GNMAttributed(50, 120, 5, seed)
	if _, err := p.exp.AddGraph("dyn", base); err != nil {
		t.Fatal(err)
	}
	newProxy := func(upstream string, plan chaos.Plan) *chaos.Proxy {
		px, err := chaos.NewProxy(upstream, plan, chaosProxyOpts(t))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(px.Close)
		return px
	}
	pxP1 := newProxy(p.ts.URL, sched[0])
	pxP2 := newProxy(p.ts.URL, sched[1])
	r1 := startReplica(t, pxP1.URL(), chaosTail())
	r2 := startReplica(t, pxP2.URL(), chaosTail())
	pxF1 := newProxy(r1.ts.URL, sched[2])
	pxF2 := newProxy(r2.ts.URL, sched[3])
	proxies := []*chaos.Proxy{pxP1, pxP2, pxF1, pxF2}

	rt := repl.NewRouter(p.ts.URL, []string{pxF1.URL(), pxF2.URL()}, repl.RouterOptions{
		Client: &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}},
		Logf:   t.Logf,
	})
	frontTS := httptest.NewServer(rt.Handler())
	t.Cleanup(frontTS.Close)
	front := frontTS.URL
	client := &http.Client{Timeout: 4 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

	// The storm: mutate, then read back through the faults. Reads may fail
	// in any fault-visible way (transport error, torn body, 5xx) — that is
	// chaos — but a clean 200 must honor the min-version bound, and no
	// request may outlive its client deadline by more than scheduling slack.
	ops := dyntest.GenOps(base, 96, seed*3+1)
	var v uint64
	for off := 0; off < len(ops); off += 4 {
		v = postMutations(t, p.ts.URL, "dyn", ops[off:min(off+4, len(ops))])
		req, _ := http.NewRequest("GET", front+"/api/v1/datasets/dyn", nil)
		req.Header.Set(repl.HeaderMinVersion, fmt.Sprint(v))
		start := time.Now()
		resp, err := client.Do(req)
		elapsed := time.Since(start)
		if elapsed > client.Timeout+2*time.Second {
			return fmt.Errorf("read at version %d stalled %v, past the %v client deadline", v, elapsed, client.Timeout)
		}
		if err != nil {
			continue // fault-visible failure: the storm at work
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue // torn or failed read: also fault-visible
		}
		var info struct {
			Version uint64 `json:"version"`
		}
		if json.Unmarshal(body, &info) != nil {
			continue // truncated-but-readable JSON prefix
		}
		if info.Version < v {
			return fmt.Errorf("read-your-writes violated at version %d: 200 body reports version %d (served by %s)",
				v, info.Version, resp.Header.Get(repl.HeaderServedBy))
		}
	}

	// Storm over: every link transparent, in-flight faults severed. The
	// fleet must now converge to bit-equality, bounded by the wait below.
	for _, px := range proxies {
		px.Disable()
	}
	for i, r := range []*replicaNode{r1, r2} {
		if err := waitConvergedErr(p.exp, r, v, 60*time.Second); err != nil {
			return fmt.Errorf("replica %d after the storm: %w", i+1, err)
		}
	}

	// And the routed read-your-writes path must be clean again end-to-end.
	req, _ := http.NewRequest("GET", front+"/api/v1/datasets/dyn", nil)
	req.Header.Set(repl.HeaderMinVersion, fmt.Sprint(v))
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("post-storm routed read: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("post-storm routed read: status %d", resp.StatusCode)
	}
	return nil
}

// waitConvergedErr is waitForConvergence returning an error instead of
// failing t, so chaos schedules can be replayed during shrinking.
func waitConvergedErr(pexp *api.Explorer, r *replicaNode, v uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		pds, ok1 := pexp.Dataset("dyn")
		rds, ok2 := r.exp.Dataset("dyn")
		if ok1 && ok2 && pds.Version == v && rds.Version == v {
			if last = dyntest.CheckConverged(pds, rds); last == nil {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	if last == nil {
		var got uint64
		if rds, ok := r.exp.Dataset("dyn"); ok {
			got = rds.Version
		}
		last = fmt.Errorf("stuck at version %d, want %d (stats %+v)", got, v, r.rep.Stats())
	}
	return last
}

// TestChaosConvergence runs the seeded storm. On failure it reports the
// seed and, with CEXPLORER_CHAOS_SHRINK=1, ddmin-shrinks each link's
// schedule (neutralizing faults the failure does not need) before reporting
// — fleet replays are whole-cluster runs, so shrinking is opt-in rather
// than burning CI minutes on every red.
func TestChaosConvergence(t *testing.T) {
	const seed = 0xC0FFEE
	sched := genChaosSchedule(seed)
	err := runChaosFleet(t, sched, seed)
	if err == nil {
		return
	}
	if os.Getenv("CEXPLORER_CHAOS_SHRINK") != "" {
		for i := range sched {
			sched[i] = chaos.ShrinkPlan(sched[i], 3, func(cand chaos.Plan) bool {
				trial := sched
				trial[i] = cand
				return runChaosFleet(t, trial, seed) != nil
			})
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos fleet failed (seed %#x): %v\n", seed, err)
	for i, pl := range sched {
		js, _ := json.Marshal(pl)
		fmt.Fprintf(&b, "  %s: %d faults: %s\n", chaosLinks[i], pl.Faults(), js)
	}
	if os.Getenv("CEXPLORER_CHAOS_SHRINK") == "" {
		b.WriteString("  (set CEXPLORER_CHAOS_SHRINK=1 to ddmin the schedule before reporting)\n")
	}
	t.Fatal(b.String())
}
