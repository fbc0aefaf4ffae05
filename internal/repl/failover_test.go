package repl_test

// Failover suite: automatic failover under primary loss. A real primary,
// real replicas (fleet control enabled, so they can be promoted/demoted/
// re-targeted over HTTP), and a router with the health monitor and the
// promotion supervisor running. The tests kill or partition the primary and
// assert the tentpole invariants:
//
//	(a) the fleet recovers without operator intervention: the router detects
//	    the loss, promotes the most-caught-up replica under a fresh fenced
//	    fleet epoch, re-targets the survivors, and writes flow again —
//	    bounded by the test clock, measured as time-to-recovery;
//	(b) during the election window reads keep flowing and writes answer a
//	    typed 503 no_primary with Retry-After, never hang;
//	(c) split-brain is fenced: a blackholed (not killed) primary that comes
//	    back refuses routed writes stamped with the new fleet epoch
//	    (409 epoch_fenced), is demoted into the new lineage, and its
//	    acked-but-unshipped writes vanish — the documented failure model;
//	(d) after every storm the surviving fleet converges to bit-equality
//	    (graph, cores, CL-tree, truss, ACQ answers via dyntest).

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/chaos"
	"cexplorer/internal/dyntest"
	"cexplorer/internal/gen"
	"cexplorer/internal/repl"
	"cexplorer/internal/server"
)

// fleetNode is one fleet-control-enabled server under test (either role).
type fleetNode struct {
	exp *api.Explorer
	srv *server.Server
	ts  *httptest.Server
}

// fleetControl builds the tailer factory a fleet node uses at boot and on
// demotion — the test-speed mirror of the wiring in cmd/cexplorer.
func fleetControl(t *testing.T, exp *api.Explorer, tail func() repl.ReplicaOptions) server.FleetControl {
	return server.FleetControl{
		StartTailer: func(primaryURL string) (server.ReplicaSource, func()) {
			opt := tail()
			opt.Logf = t.Logf
			rep := repl.NewReplica(exp, primaryURL, opt)
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				rep.Run(ctx)
			}()
			return rep, func() {
				cancel()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
				}
			}
		},
		Feed:        repl.FeedOptions{},
		ReplicaWait: 5 * time.Second,
	}
}

func startFleetPrimary(t *testing.T, tail func() repl.ReplicaOptions) *fleetNode {
	t.Helper()
	exp := api.NewExplorer()
	srv := server.New(exp, t.Logf)
	srv.EnableFleet(fleetControl(t, exp, tail))
	srv.EnableReplicationPrimary(repl.FeedOptions{})
	ts := httptest.NewServer(srv.Handler())
	n := &fleetNode{exp: exp, srv: srv, ts: ts}
	t.Cleanup(func() { n.shutdown(); ts.Close() })
	return n
}

func startFleetReplica(t *testing.T, primaryURL string, tail func() repl.ReplicaOptions) *fleetNode {
	t.Helper()
	exp := api.NewExplorer()
	srv := server.New(exp, t.Logf)
	srv.EnableFleet(fleetControl(t, exp, tail))
	srv.StartFleetReplica(primaryURL)
	ts := httptest.NewServer(srv.Handler())
	n := &fleetNode{exp: exp, srv: srv, ts: ts}
	t.Cleanup(func() { n.shutdown(); ts.Close() })
	return n
}

// shutdown stops the node's tailer (whatever role it holds by now) and
// drains its feed, bounded.
func (n *fleetNode) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
}

// startFleetRouter runs a supervising router over the fleet at test cadence.
func startFleetRouter(t *testing.T, primaryURL string, replicas []string, promote bool) (*repl.Router, *httptest.Server) {
	t.Helper()
	rt := repl.NewRouter(primaryURL, replicas, repl.RouterOptions{
		Client: &http.Client{Timeout: 5 * time.Second},
		Logf:   t.Logf,
	})
	rt.EnableSelfHealing(repl.SelfHealOptions{
		Monitor: repl.MonitorOptions{
			Interval:      25 * time.Millisecond,
			Timeout:       250 * time.Millisecond,
			FailThreshold: 3,
			BackoffMax:    200 * time.Millisecond,
			Logf:          t.Logf,
		},
		Promote: promote,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go rt.Run(ctx)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { cancel(); ts.Close() })
	return rt, ts
}

// postOne posts a single mutation and reports (status, envelope code,
// Retry-After, version) without failing the test — outage windows are the
// point here.
func postOne(t *testing.T, client *http.Client, baseURL, name string, m api.Mutation) (status int, code, retryAfter string, version uint64) {
	t.Helper()
	payload, _ := json.Marshal(m)
	req, err := http.NewRequest("POST", baseURL+"/api/v1/datasets/"+name+"/mutations", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", "", 0
	}
	defer resp.Body.Close()
	var out struct {
		Version uint64 `json:"version"`
		Code    string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out.Code, resp.Header.Get("Retry-After"), out.Version
}

// waitEpoch polls the router until its fleet epoch reaches want.
func waitEpoch(t *testing.T, rt *repl.Router, want uint64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if rt.Stats().FleetEpoch >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("router never reached fleet epoch %d (stats %+v)", want, rt.Stats())
}

// waitRole polls a node until it reports the wanted role.
func waitRole(t *testing.T, n *fleetNode, want string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if n.srv.Role() == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node %s never became %q (still %q)", n.ts.URL, want, n.srv.Role())
}

// TestFailoverPromotesMostCaughtUpReplica is the tentpole acceptance test:
// kill the primary under write load and the fleet must recover on its own —
// a replica is promoted at fleet epoch 2, the survivor re-targets, writes
// succeed again within the recovery bound, and the fleet converges
// bit-equal on the new lineage.
func TestFailoverPromotesMostCaughtUpReplica(t *testing.T) {
	p := startFleetPrimary(t, fastTail)
	base := gen.GNMAttributed(40, 90, 4, 9)
	if _, err := p.exp.AddGraph("dyn", base); err != nil {
		t.Fatal(err)
	}
	r1 := startFleetReplica(t, p.ts.URL, fastTail)
	r2 := startFleetReplica(t, p.ts.URL, fastTail)
	rt, rts := startFleetRouter(t, p.ts.URL, []string{r1.ts.URL, r2.ts.URL}, true)

	ops := dyntest.GenOps(base, 80, 7)
	v := postMutations(t, rts.URL, "dyn", ops[:20])
	waitForConvergence(t, p.exp, r1.exp, "dyn", v)
	waitForConvergence(t, p.exp, r2.exp, "dyn", v)

	// Kill the primary (listener down: connection refused, the clean death).
	p.ts.Close()
	killed := time.Now()

	// Drive single-op writes until one lands. Every failure during the
	// outage must be typed and bounded, never a hang.
	client := &http.Client{Timeout: 3 * time.Second}
	var (
		recovered     time.Duration
		sawNoPrimary  bool
		next          = 20
		outageWrites  int
		deadline      = time.Now().Add(30 * time.Second)
		firstRecovery uint64
	)
	for time.Now().Before(deadline) {
		status, code, retryAfter, version := postOne(t, client, rts.URL, "dyn", ops[next])
		if status == http.StatusOK {
			recovered = time.Since(killed)
			firstRecovery = version
			next++
			break
		}
		outageWrites++
		if status == http.StatusServiceUnavailable {
			if code != repl.CodeNoPrimary {
				t.Fatalf("outage 503 carried code %q, want %q", code, repl.CodeNoPrimary)
			}
			if retryAfter == "" {
				t.Fatalf("outage 503 no_primary missing Retry-After")
			}
			sawNoPrimary = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if recovered == 0 {
		t.Fatalf("writes never recovered after primary loss (%d failed attempts)", outageWrites)
	}
	t.Logf("write path recovered in %s (%d failed writes during outage, no_primary observed: %v)",
		recovered.Round(time.Millisecond), outageWrites, sawNoPrimary)
	if recovered > 15*time.Second {
		t.Fatalf("recovery took %s, want < 15s", recovered)
	}

	// The election must have fenced a fresh epoch and promoted a replica.
	st := rt.Stats()
	if st.FleetEpoch != 2 {
		t.Fatalf("fleet epoch after failover = %d, want 2", st.FleetEpoch)
	}
	if st.Promotions < 1 {
		t.Fatalf("router recorded no promotion: %+v", st)
	}
	var winner, survivor *fleetNode
	switch st.Primary {
	case r1.ts.URL:
		winner, survivor = r1, r2
	case r2.ts.URL:
		winner, survivor = r2, r1
	default:
		t.Fatalf("router primary %q is neither replica", st.Primary)
	}
	if got := winner.srv.Role(); got != "primary" {
		t.Fatalf("promoted node role = %q, want primary", got)
	}

	// Post the rest of the workload through the router and require the
	// survivor to converge bit-equal on the new primary's lineage.
	v = firstRecovery
	if next < len(ops) {
		v = postMutations(t, rts.URL, "dyn", ops[next:])
	}
	waitForConvergence(t, winner.exp, survivor.exp, "dyn", v)
}

// TestRouterNoPrimary503 pins the election-window write contract in its
// steady state: with promotion disabled (detection without the coup), a dead
// primary means every routed write answers the typed, retryable 503 while
// reads keep flowing off the replicas.
func TestRouterNoPrimary503(t *testing.T) {
	p := startFleetPrimary(t, fastTail)
	if _, err := p.exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	r1 := startFleetReplica(t, p.ts.URL, fastTail)
	rt, rts := startFleetRouter(t, p.ts.URL, []string{r1.ts.URL}, false)

	v := postMutations(t, rts.URL, "fig5", []api.Mutation{{Op: api.OpAddEdge, U: 0, V: 5}})
	waitForConvergence(t, p.exp, r1.exp, "fig5", v)

	p.ts.Close()

	// Once the breaker opens, writes fail fast with the typed 503.
	client := &http.Client{Timeout: 3 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	got503 := false
	for time.Now().Before(deadline) {
		status, code, retryAfter, _ := postOne(t, client, rts.URL, "fig5", api.Mutation{Op: api.OpAddEdge, U: 1, V: 4})
		if status == http.StatusServiceUnavailable {
			if code != repl.CodeNoPrimary {
				t.Fatalf("503 code %q, want %q", code, repl.CodeNoPrimary)
			}
			if retryAfter == "" {
				t.Fatal("503 no_primary missing Retry-After")
			}
			got503 = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !got503 {
		t.Fatal("router never answered 503 no_primary for writes against a dead primary")
	}
	if rt.Stats().NoPrimary == 0 {
		t.Fatalf("noPrimary counter never moved: %+v", rt.Stats())
	}

	// Reads keep flowing: the replica serves the dataset through the router.
	resp, err := client.Get(rts.URL + "/api/v1/datasets/fig5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read during headless window: status %d, want 200", resp.StatusCode)
	}
	// Promotion was disabled, so nobody was crowned.
	if st := rt.Stats(); st.Promotions != 0 {
		t.Fatalf("promotion happened with Promote=false: %+v", st)
	}

	// The router identifies itself on the same health endpoint every node
	// serves, so fleet tooling can probe it without special-casing.
	hresp, err := client.Get(rts.URL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	var rh repl.HealthStatus
	if err := json.NewDecoder(hresp.Body).Decode(&rh); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if rh.Role != "router" || rh.Primary != p.ts.URL {
		t.Fatalf("router health: role %q primary %q, want router %q", rh.Role, rh.Primary, p.ts.URL)
	}
}

// TestBlackholedPrimaryFencedAndDemoted is the split-brain regression: the
// primary is partitioned (blackholed, not killed), the fleet promotes around
// it, and when the partition heals the old primary (a) refuses writes
// stamped with the new fleet epoch — it can never double-ack a routed write
// — (b) is demoted into the new lineage, and (c) loses the writes it acked
// while partitioned (the documented async-replication failure model).
func TestBlackholedPrimaryFencedAndDemoted(t *testing.T) {
	p := startFleetPrimary(t, chaosTail)
	base := gen.GNMAttributed(30, 60, 4, 3)
	if _, err := p.exp.AddGraph("dyn", base); err != nil {
		t.Fatal(err)
	}
	px, err := chaos.NewProxy(p.ts.URL, nil, chaosProxyOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(px.Close)
	r1 := startFleetReplica(t, px.URL(), chaosTail)
	r2 := startFleetReplica(t, px.URL(), chaosTail)
	rt, rts := startFleetRouter(t, px.URL(), []string{r1.ts.URL, r2.ts.URL}, true)

	ops := dyntest.GenOps(base, 40, 11)
	v := postMutations(t, rts.URL, "dyn", ops[:10])
	waitForConvergence(t, p.exp, r1.exp, "dyn", v)
	waitForConvergence(t, p.exp, r2.exp, "dyn", v)

	// Partition: the primary drops off the fleet's network but stays alive.
	px.Force(chaos.Blackhole)
	waitEpoch(t, rt, 2, 20*time.Second)

	// Split-brain guard: a write stamped with the new fleet epoch must be
	// refused by the old primary (it is still at epoch 1) — 409, unapplied.
	before, _ := p.exp.Dataset("dyn")
	beforeV := before.Version
	payload, _ := json.Marshal(api.Mutation{Op: api.OpAddEdge, U: 2, V: 7})
	req, _ := http.NewRequest("POST", p.ts.URL+"/api/v1/datasets/dyn/mutations", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(repl.HeaderFleetEpoch, "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || env.Code != repl.CodeEpochFenced {
		t.Fatalf("stamped write on stale primary: status %d code %q, want 409 %q",
			resp.StatusCode, env.Code, repl.CodeEpochFenced)
	}
	if after, _ := p.exp.Dataset("dyn"); after.Version != beforeV {
		t.Fatalf("fenced write was applied: version %d → %d", beforeV, after.Version)
	}

	// The failure model's lost write: an UNstamped direct write is still
	// acked by the partitioned primary — and must vanish after demotion.
	status, _, _, _ := postOne(t, http.DefaultClient, p.ts.URL, "dyn", api.Mutation{Op: api.OpAddVertex, Name: "ghost"})
	if status != http.StatusOK {
		t.Fatalf("unstamped write on partitioned primary: status %d, want 200 (the documented lost-write window)", status)
	}

	// Heal the partition: supervision must demote the stale primary into a
	// replica of the new lineage.
	px.Restore()
	waitRole(t, p, "replica", 20*time.Second)
	// The node turns replica while still answering the router's demote
	// call, so the router's count can trail the role by that round trip.
	for deadline := time.Now().Add(5 * time.Second); rt.Stats().Demotions < 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("router recorded no demotion: %+v", rt.Stats())
		}
	}

	// The fleet converges on the new lineage — including the old primary,
	// whose ghost write is gone.
	st := rt.Stats()
	var winner *fleetNode
	switch st.Primary {
	case r1.ts.URL:
		winner = r1
	case r2.ts.URL:
		winner = r2
	default:
		t.Fatalf("router primary %q is neither replica", st.Primary)
	}
	v = postMutations(t, rts.URL, "dyn", ops[10:20])
	waitForConvergence(t, winner.exp, p.exp, "dyn", v)
	pds, _ := p.exp.Dataset("dyn")
	if _, ok := pds.Graph.VertexByName("ghost"); ok {
		t.Fatal("acked-but-unshipped write survived demotion; the new primary's lineage must win")
	}
}

// TestMonitorBreakerTransitions drives the circuit breaker through its full
// cycle against a toggleable health endpoint: closed → (K failures) open →
// (backoff elapses, success) half-open → (success) closed, with the half-open
// → open snap on a relapse in between.
// TestMonitorDefaults pins the zero-option constructor: every knob gets a
// sane default, unknown nodes are available (innocent until probed), and one
// failed probe against a dead address neither opens the breaker nor invents
// health data.
func TestMonitorDefaults(t *testing.T) {
	m := repl.NewMonitor(repl.MonitorOptions{})
	if !m.Available("http://never-probed") {
		t.Fatal("unknown node must be available")
	}
	if st := m.State("http://never-probed"); st != repl.StateClosed {
		t.Fatalf("unknown node state %v, want closed", st)
	}
	const dead = "http://127.0.0.1:1"
	m.Add(dead)
	m.Add(dead) // idempotent
	m.ProbeOnce(context.Background())
	if st := m.State(dead); st != repl.StateClosed {
		t.Fatalf("one failure moved the breaker to %v, want closed (threshold defaults to 3)", st)
	}
	if h := m.Health(dead); h != nil {
		t.Fatalf("failed probe produced health data: %+v", h)
	}
	st := m.Stats()
	if st.Probes != 1 || st.Failures != 1 || st.Opens != 0 {
		t.Fatalf("stats after one failed probe: %+v", st)
	}
	if np, ok := st.Nodes[dead]; !ok || np.LastErr == "" {
		t.Fatalf("node probe view missing the failure: %+v", st.Nodes)
	}
}

func TestMonitorBreakerTransitions(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(repl.HealthStatus{Role: "replica"})
	}))
	defer hs.Close()

	m := repl.NewMonitor(repl.MonitorOptions{
		Interval:      10 * time.Millisecond,
		Timeout:       250 * time.Millisecond,
		FailThreshold: 3,
		BackoffMax:    100 * time.Millisecond,
		Logf:          t.Logf,
	})
	m.Add(hs.URL)
	ctx := context.Background()

	check := func(step string, want repl.BreakerState, available bool) {
		t.Helper()
		if got := m.State(hs.URL); got != want {
			t.Fatalf("%s: state %v, want %v", step, got, want)
		}
		if got := m.Available(hs.URL); got != available {
			t.Fatalf("%s: available %v, want %v", step, got, available)
		}
	}

	m.ProbeOnce(ctx)
	check("healthy", repl.StateClosed, true)
	if m.Health(hs.URL) == nil {
		t.Fatal("no health payload cached after a successful probe")
	}

	healthy.Store(false)
	m.ProbeOnce(ctx)
	m.ProbeOnce(ctx)
	check("two failures", repl.StateClosed, true) // under threshold: still in
	m.ProbeOnce(ctx)
	check("third failure", repl.StateOpen, false)

	// Open nodes are only re-probed after backoff; an immediate round skips.
	m.ProbeOnce(ctx)
	check("open, before due", repl.StateOpen, false)

	// Recovery: after backoff one good probe half-opens, a second closes.
	healthy.Store(true)
	time.Sleep(50 * time.Millisecond)
	m.ProbeOnce(ctx)
	check("first success", repl.StateHalfOpen, true)

	// Relapse from half-open snaps straight back to open.
	healthy.Store(false)
	m.ProbeOnce(ctx)
	check("half-open relapse", repl.StateOpen, false)

	healthy.Store(true)
	time.Sleep(50 * time.Millisecond)
	m.ProbeOnce(ctx)
	check("recovered to half-open", repl.StateHalfOpen, true)
	m.ProbeOnce(ctx)
	check("recovered to closed", repl.StateClosed, true)

	st := m.Stats()
	if st.Probes == 0 || st.Failures == 0 || st.Opens < 2 {
		t.Fatalf("monitor stats %+v", st)
	}
}
