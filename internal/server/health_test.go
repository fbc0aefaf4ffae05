package server

// Node-side fleet-control tests: the health payload per role, the epoch
// fencing matrix of the promote/demote/retarget verbs, the split-brain write
// fence, the Retry-After funnel, and graceful shutdown releasing parked
// journal long-polls. The fleet-wide behavior (election, convergence after
// failover) lives in internal/repl's failover suite; these tests pin the
// single-node contracts it builds on.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/repl"
)

// fakeTailer is a ReplicaSource test double recording retargets.
type fakeTailer struct {
	mu      sync.Mutex
	primary string
	stopped bool
}

func (f *fakeTailer) WaitVersion(ctx context.Context, dataset string, version uint64) error {
	return nil
}
func (f *fakeTailer) Status(dataset string) (repl.DatasetStatus, bool) {
	return repl.DatasetStatus{}, false
}
func (f *fakeTailer) Stats() repl.ReplicaStats { return repl.ReplicaStats{} }
func (f *fakeTailer) Primary() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primary
}
func (f *fakeTailer) Retarget(primaryURL string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.primary = primaryURL
}

// tailerGate is a tailer factory that hands out fakeTailers and records
// every (re)start. Once armed, each call waits until a second call arrives
// or 200 ms pass: the widest window for two racing transitions to
// interleave.
type tailerGate struct {
	mu      sync.Mutex
	made    []*fakeTailer
	armed   bool
	calls   int
	arrived chan struct{}
}

func (g *tailerGate) arm() {
	g.mu.Lock()
	g.armed, g.calls, g.arrived = true, 0, make(chan struct{})
	g.mu.Unlock()
}

func (g *tailerGate) start(primaryURL string) (ReplicaSource, func()) {
	f := &fakeTailer{primary: primaryURL}
	g.mu.Lock()
	g.made = append(g.made, f)
	var wait chan struct{}
	if g.armed {
		g.calls++
		switch g.calls {
		case 1:
			wait = g.arrived
		case 2:
			close(g.arrived)
		}
	}
	g.mu.Unlock()
	if wait != nil {
		select {
		case <-wait:
		case <-time.After(200 * time.Millisecond):
		}
	}
	return f, func() {
		f.mu.Lock()
		f.stopped = true
		f.mu.Unlock()
	}
}

// live counts started tailers that were never stopped.
func (g *tailerGate) live() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, f := range g.made {
		f.mu.Lock()
		if !f.stopped {
			n++
		}
		f.mu.Unlock()
	}
	return n
}

// fleetTestControl is a FleetControl whose tailer factory hands out
// fakeTailers and records every (re)start.
func fleetTestControl() (FleetControl, *[]*fakeTailer) {
	g := &tailerGate{}
	return FleetControl{StartTailer: g.start}, &g.made
}

// fleetNode serves a fig5 node with fleet control over g's tailers.
func fleetNode(t *testing.T, g *tailerGate) (*Server, *httptest.Server) {
	t.Helper()
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	s := New(exp, t.Logf)
	s.EnableFleet(FleetControl{StartTailer: g.start})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postVerb posts a fleet verb and returns the status, envelope code and
// Retry-After header.
func postVerb(t *testing.T, baseURL, path string, body any) (int, string, string) {
	resp, err := http.Post(baseURL+path, "application/json", jsonBody(t, body))
	if err != nil {
		t.Error(err)
		return 0, "", ""
	}
	defer resp.Body.Close()
	var env struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	return resp.StatusCode, env.Code, resp.Header.Get("Retry-After")
}

// hostsFeed reports whether the node serves journal shipping, i.e. holds a
// feed.
func hostsFeed(t *testing.T, baseURL string) bool {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/v1/datasets/fig5/journal?fromSeq=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode != http.StatusServiceUnavailable
}

func getHealth(t *testing.T, baseURL string) repl.HealthStatus {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health: status %d", resp.StatusCode)
	}
	var h repl.HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHealthEndpointPerRole(t *testing.T) {
	// Standalone: role named, epoch zero, positions = dataset versions.
	_, ts := testServer(t)
	h := getHealth(t, ts.URL)
	if h.Role != "standalone" || h.FleetEpoch != 0 {
		t.Fatalf("standalone health: role %q epoch %d", h.Role, h.FleetEpoch)
	}
	d, ok := h.Datasets["fig5"]
	if !ok || d.AppliedSeq != d.HeadSeq {
		t.Fatalf("standalone health datasets: %+v", h.Datasets)
	}

	// Primary: epoch 1 by definition, per-dataset snapshot epoch stamped.
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	s := New(exp, nil)
	s.EnableReplicationPrimary(repl.FeedOptions{})
	pts := httptest.NewServer(s.Handler())
	defer pts.Close()
	h = getHealth(t, pts.URL)
	if h.Role != "primary" || h.FleetEpoch != 1 {
		t.Fatalf("primary health: role %q epoch %d", h.Role, h.FleetEpoch)
	}
	if d := h.Datasets["fig5"]; d.Epoch == 0 {
		t.Fatalf("primary health carries no snapshot epoch: %+v", h.Datasets)
	}
}

// TestFleetFenceOnWrites pins the split-brain guard: a primary at fleet
// epoch 1 refuses writes stamped with any other epoch before applying
// anything, accepts matching or unstamped writes, and 400s garbage.
func TestFleetFenceOnWrites(t *testing.T) {
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	s := New(exp, nil)
	s.EnableReplicationPrimary(repl.FeedOptions{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(epochHdr string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest("POST", ts.URL+"/api/v1/datasets/fig5/mutations",
			jsonBody(t, api.Mutation{Op: api.OpAddVertex, Name: "fence-probe"}))
		req.Header.Set("Content-Type", "application/json")
		if epochHdr != "" {
			req.Header.Set(repl.HeaderFleetEpoch, epochHdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Code string `json:"code"`
		}
		json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Code
	}

	ds, _ := exp.Dataset("fig5")
	before := ds.Version
	if status, code := post("2"); status != http.StatusConflict || code != repl.CodeEpochFenced {
		t.Fatalf("mismatched stamp: status %d code %q, want 409 %q", status, code, repl.CodeEpochFenced)
	}
	if ds, _ := exp.Dataset("fig5"); ds.Version != before {
		t.Fatal("fenced write was applied")
	}
	if status, _ := post("junk"); status != http.StatusBadRequest {
		t.Fatalf("garbage stamp: status %d, want 400", status)
	}
	if status, _ := post("1"); status != http.StatusOK {
		t.Fatalf("matching stamp: status %d, want 200", status)
	}
	if status, _ := post(""); status != http.StatusOK {
		t.Fatalf("unstamped write: status %d, want 200", status)
	}
}

// TestFleetVerbsRequireEnable: promote/demote are 403 fleet_disabled until
// the command layer arms fleet control.
func TestFleetVerbsRequireEnable(t *testing.T) {
	_, ts := testServer(t)
	for _, path := range []string{"/api/v1/promote", "/api/v1/demote"} {
		resp, err := http.Post(ts.URL+path, "application/json",
			jsonBody(t, map[string]any{"epoch": 2, "primary": "http://x"}))
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Code string `json:"code"`
		}
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden || env.Code != "fleet_disabled" {
			t.Fatalf("%s without fleet control: status %d code %q", path, resp.StatusCode, env.Code)
		}
	}
}

// TestPromoteDemoteRetargetMatrix drives one node through the full role
// cycle over HTTP and pins the epoch fencing on every edge: only strictly
// advancing epochs transition, replays are idempotent 200s, stale epochs
// are 409 epoch_fenced, and a candidate behind a reachable peer refuses
// promotion with 409 not_caught_up.
func TestPromoteDemoteRetargetMatrix(t *testing.T) {
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	s := New(exp, t.Logf)
	fc, made := fleetTestControl()
	s.EnableFleet(fc)
	s.StartFleetReplica("http://old-primary")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, body any) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", jsonBody(t, body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Code string `json:"code"`
		}
		json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Code
	}

	// Retarget while a replica: tailer re-pointed, epoch adopted.
	if status, code := post("/api/v1/retarget", map[string]any{"epoch": 0, "primary": "http://other-primary"}); status != http.StatusOK {
		t.Fatalf("retarget: status %d code %q", status, code)
	}
	if got := (*made)[0].Primary(); got != "http://other-primary" {
		t.Fatalf("retarget did not re-point the tailer: %q", got)
	}

	// Promotion needs a positive epoch.
	if status, _ := post("/api/v1/promote", map[string]any{"epoch": 0}); status != http.StatusBadRequest {
		t.Fatalf("promote epoch 0: status %d, want 400", status)
	}

	// A reachable peer further ahead vetoes the promotion.
	ahead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(repl.HealthStatus{
			Role:     "replica",
			Datasets: map[string]repl.DatasetHealth{"fig5": {AppliedSeq: 1000, HeadSeq: 1000}},
		})
	}))
	defer ahead.Close()
	if status, code := post("/api/v1/promote", map[string]any{"epoch": 5, "peers": []string{ahead.URL}}); status != http.StatusConflict || code != repl.CodeNotCaughtUp {
		t.Fatalf("promote behind a peer: status %d code %q, want 409 %q", status, code, repl.CodeNotCaughtUp)
	}
	if s.Role() != "replica" {
		t.Fatalf("vetoed promotion changed role to %q", s.Role())
	}

	// Unreachable peers are skipped (they are what the fleet heals around).
	if status, code := post("/api/v1/promote", map[string]any{"epoch": 5, "peers": []string{"http://127.0.0.1:1"}}); status != http.StatusOK {
		t.Fatalf("promote: status %d code %q", status, code)
	}
	if s.Role() != "primary" || s.FleetEpoch() != 5 {
		t.Fatalf("after promote: role %q epoch %d, want primary 5", s.Role(), s.FleetEpoch())
	}
	if !(*made)[0].stopped {
		t.Fatal("promotion did not stop the old tailer")
	}
	// Promotion replay is idempotent; a stale epoch is fenced.
	if status, _ := post("/api/v1/promote", map[string]any{"epoch": 5}); status != http.StatusOK {
		t.Fatalf("promote replay: status %d, want 200", status)
	}
	if status, code := post("/api/v1/promote", map[string]any{"epoch": 4}); status != http.StatusConflict || code != repl.CodeEpochFenced {
		t.Fatalf("stale promote: status %d code %q, want 409 %q", status, code, repl.CodeEpochFenced)
	}

	// The promoted node serves writes and ships its own journal.
	resp := postJSON(t, ts.URL+"/api/v1/datasets/fig5/mutations", api.Mutation{Op: api.OpAddEdge, U: 0, V: 5}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("write on promoted node: status %d", resp.StatusCode)
	}

	// Retarget is a replica verb: a primary refuses with 409 invalid_role.
	if status, code := post("/api/v1/retarget", map[string]any{"epoch": 5, "primary": "http://x"}); status != http.StatusConflict || code != "invalid_role" {
		t.Fatalf("retarget on primary: status %d code %q, want 409 invalid_role", status, code)
	}

	// Demotion: only a strictly higher epoch fences the primary.
	if status, code := post("/api/v1/demote", map[string]any{"epoch": 5, "primary": "http://new-primary"}); status != http.StatusConflict || code != repl.CodeEpochFenced {
		t.Fatalf("same-epoch demote: status %d code %q, want 409 %q", status, code, repl.CodeEpochFenced)
	}
	if status, code := post("/api/v1/demote", map[string]any{"epoch": 6, "primary": "http://new-primary"}); status != http.StatusOK {
		t.Fatalf("demote: status %d code %q", status, code)
	}
	if s.Role() != "replica" || s.FleetEpoch() != 6 {
		t.Fatalf("after demote: role %q epoch %d, want replica 6", s.Role(), s.FleetEpoch())
	}
	if len(*made) != 2 || (*made)[1].Primary() != "http://new-primary" {
		t.Fatalf("demotion did not start a tailer against the new primary: %d tailers", len(*made))
	}
	// Demote replay with a newer target re-points instead of erroring.
	if status, _ := post("/api/v1/demote", map[string]any{"epoch": 6, "primary": "http://newer-primary"}); status != http.StatusOK {
		t.Fatal("demote replay failed")
	}
	if got := (*made)[1].Primary(); got != "http://newer-primary" {
		t.Fatalf("demote replay did not retarget: %q", got)
	}
	// Retarget fencing on the demoted replica: a target is required, and an
	// epoch below the node's own cannot move its tailer.
	if status, _ := post("/api/v1/retarget", map[string]any{"epoch": 6}); status != http.StatusBadRequest {
		t.Fatalf("retarget without a primary: status %d, want 400", status)
	}
	if status, code := post("/api/v1/retarget", map[string]any{"epoch": 5, "primary": "http://stale"}); status != http.StatusConflict || code != repl.CodeEpochFenced {
		t.Fatalf("stale retarget: status %d code %q, want 409 %q", status, code, repl.CodeEpochFenced)
	}
	if got := (*made)[1].Primary(); got != "http://newer-primary" {
		t.Fatalf("fenced retarget moved the tailer: %q", got)
	}

	// Demoted node: writes 403 read_only, journal shipping 503 no_primary.
	resp = postJSON(t, ts.URL+"/api/v1/datasets/fig5/mutations", api.Mutation{Op: api.OpAddEdge, U: 1, V: 4}, nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("write on demoted node: status %d, want 403", resp.StatusCode)
	}
	shipResp, err := http.Get(ts.URL + "/api/v1/datasets/fig5/journal?fromSeq=1")
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Code string `json:"code"`
	}
	json.NewDecoder(shipResp.Body).Decode(&env)
	shipResp.Body.Close()
	if shipResp.StatusCode != http.StatusServiceUnavailable || env.Code != repl.CodeNoPrimary {
		t.Fatalf("journal ship on demoted node: status %d code %q, want 503 %q",
			shipResp.StatusCode, env.Code, repl.CodeNoPrimary)
	}

	// Health reflects the journey.
	h := getHealth(t, ts.URL)
	if h.Role != "replica" || h.FleetEpoch != 6 || h.Promotions != 1 || h.Demotions != 1 {
		t.Fatalf("health after the cycle: %+v", h)
	}
}

// TestConcurrentTransitionsSerialize races two fleet verbs against one node
// while the tailer factory holds its first call open for the second, and
// checks the node ends as if the verbs had arrived one after the other:
// one live tailer on a replica and none on a primary, a feed only on a
// primary, and a fleet epoch equal to the highest one acknowledged.
func TestConcurrentTransitionsSerialize(t *testing.T) {
	type verb struct {
		path string
		body map[string]any
	}
	cases := []struct {
		name    string
		replica bool
		verbs   [2]verb
	}{
		{"demote-demote on a primary", false, [2]verb{
			{"/api/v1/demote", map[string]any{"epoch": 3, "primary": "http://p3"}},
			{"/api/v1/demote", map[string]any{"epoch": 4, "primary": "http://p4"}},
		}},
		{"promote-demote on a replica", true, [2]verb{
			{"/api/v1/promote", map[string]any{"epoch": 3}},
			{"/api/v1/demote", map[string]any{"epoch": 4, "primary": "http://p4"}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &tailerGate{}
			s, ts := fleetNode(t, g)
			if tc.replica {
				s.StartFleetReplica("http://p1")
			} else {
				s.EnableReplicationPrimary(repl.FeedOptions{})
			}
			g.arm()
			var wg sync.WaitGroup
			var status [2]int
			for i, v := range tc.verbs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					status[i], _, _ = postVerb(t, ts.URL, v.path, v.body)
				}()
			}
			wg.Wait()
			var acked uint64
			for i, v := range tc.verbs {
				if status[i] == http.StatusOK {
					acked = max(acked, uint64(v.body["epoch"].(int)))
				} else if status[i] != http.StatusConflict {
					t.Fatalf("%s: status %d, want 200 or 409", v.path, status[i])
				}
			}
			if acked == 0 {
				t.Fatalf("neither verb succeeded: %v", status)
			}
			role := s.Role()
			wantLive := 0
			if role == "replica" {
				wantLive = 1
			}
			if live := g.live(); live != wantLive {
				t.Fatalf("role %s with %d live tailers, want %d", role, live, wantLive)
			}
			if feed := hostsFeed(t, ts.URL); feed != (role == "primary") {
				t.Fatalf("role %s hosts a feed: %v", role, feed)
			}
			if got := s.FleetEpoch(); got != acked {
				t.Fatalf("fleet epoch %d after acknowledging epoch %d", got, acked)
			}
		})
	}
}

// TestTransitionsAfterShutdown: Shutdown is the final transition. Every
// fleet verb after it answers 503 unavailable with Retry-After, starts no
// tailer and leaves the role as it was.
func TestTransitionsAfterShutdown(t *testing.T) {
	for _, role := range []string{"primary", "replica"} {
		t.Run(role, func(t *testing.T) {
			g := &tailerGate{}
			s, ts := fleetNode(t, g)
			if role == "replica" {
				s.StartFleetReplica("http://p1")
			} else {
				s.EnableReplicationPrimary(repl.FeedOptions{})
			}
			epoch := s.FleetEpoch()
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			started := len(g.made)
			for i, path := range []string{"/api/v1/promote", "/api/v1/demote", "/api/v1/retarget"} {
				status, code, retry := postVerb(t, ts.URL, path, map[string]any{"epoch": 5 + i, "primary": "http://p5"})
				if status != http.StatusServiceUnavailable || code != "unavailable" || retry == "" {
					t.Errorf("%s after Shutdown: status %d code %q Retry-After %q, want 503 unavailable with Retry-After",
						path, status, code, retry)
				}
			}
			if len(g.made) != started || g.live() != 0 {
				t.Errorf("after Shutdown: %d tailers started, %d live", len(g.made)-started, g.live())
			}
			if s.Role() != role || s.FleetEpoch() != epoch {
				t.Errorf("after Shutdown: role %q epoch %d, want %q %d", s.Role(), s.FleetEpoch(), role, epoch)
			}
		})
	}
}

// withCatalog gives s a fresh data dir holding its fig5 at version 0.
func withCatalog(t *testing.T, s *Server) {
	t.Helper()
	if err := s.SetDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	ds, _ := s.exp.Dataset("fig5")
	if _, err := s.PersistDataset(ds); err != nil {
		t.Fatal(err)
	}
}

// TestWriteAdmittedBeforeDemotionIsNeverAckedUnshipped: a write that
// passed writeGate on a primary is either acknowledged, in the feed and in
// the journal, or refused with 503 no_primary and absent locally and on
// disk, whatever demotion or Shutdown lands between its admission and its
// apply — a demotion inside the write's durable step included, after which
// the appended record is truncated off again. Each case drives the seams
// the mutations route uses after writeGate: applyMutations, or the batcher
// over it, on a node with a data dir, and reboots a fresh server from it.
func TestWriteAdmittedBeforeDemotionIsNeverAckedUnshipped(t *testing.T) {
	ctx := context.Background()
	edge := func(u int32) []api.Mutation { return []api.Mutation{{Op: api.OpAddEdge, U: u, V: 9}} }
	primary := func(t *testing.T) (*Server, *httptest.Server, *repl.Feed) {
		s, ts := fleetNode(t, &tailerGate{})
		withCatalog(t, s)
		return s, ts, s.EnableReplicationPrimary(repl.FeedOptions{})
	}
	demote := func(t *testing.T, ts *httptest.Server) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/api/v1/demote",
			jsonBody(t, map[string]any{"epoch": 2, "primary": "http://p2"}))
		ts.Config.Handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("demote: status %d: %s", rec.Code, rec.Body)
		}
	}
	// refused checks that err answers 503 no_primary with Retry-After, and
	// that neither the dataset nor the feed moved.
	refused := func(t *testing.T, s *Server, feed *repl.Feed, err error) {
		t.Helper()
		if err == nil {
			ds, _ := s.exp.Dataset("fig5")
			st, _ := feed.Status("fig5")
			t.Fatalf("write acknowledged at version %d with feed head %d, want 503 no_primary", ds.Version, st.Head)
		}
		rec := httptest.NewRecorder()
		s.writeError(rec, err)
		var env struct {
			Code string `json:"code"`
		}
		json.NewDecoder(rec.Body).Decode(&env)
		if rec.Code != http.StatusServiceUnavailable || env.Code != repl.CodeNoPrimary || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("write answered %d %q (err %v), want 503 no_primary with Retry-After", rec.Code, env.Code, err)
		}
		ds, _ := s.exp.Dataset("fig5")
		st, _ := feed.Status("fig5")
		if ds.Version != 0 || st.Head != 0 {
			t.Fatalf("refused write moved the node: dataset version %d, feed head %d", ds.Version, st.Head)
		}
		if cur, _ := reboot(t, s.DataDir()).Dataset("fig5"); cur.Version != 0 {
			t.Fatalf("refused write left a record: a reboot recovers version %d", cur.Version)
		}
	}
	shipped := func(t *testing.T, s *Server, feed *repl.Feed, res *api.MutationResult) {
		t.Helper()
		if st, _ := feed.Status("fig5"); st.Head != res.Version {
			t.Fatalf("write acknowledged at version %d but the feed head is %d", res.Version, st.Head)
		}
		if cur, _ := reboot(t, s.DataDir()).Dataset("fig5"); cur.Version != res.Version {
			t.Fatalf("write acknowledged at version %d but a reboot recovers version %d", res.Version, cur.Version)
		}
	}

	t.Run("apply then demote", func(t *testing.T) {
		s, ts, feed := primary(t)
		res, err := s.applyMutations(ctx, "fig5", edge(5))
		if err != nil {
			t.Fatal(err)
		}
		demote(t, ts)
		shipped(t, s, feed, res)
	})
	t.Run("demote then apply", func(t *testing.T) {
		s, ts, feed := primary(t)
		demote(t, ts)
		_, err := s.applyMutations(ctx, "fig5", edge(5))
		refused(t, s, feed, err)
	})
	t.Run("demote then apply, batched", func(t *testing.T) {
		s, ts, feed := primary(t)
		s.EnableBatcher(api.BatcherOptions{MaxOps: 2, MaxWait: time.Hour})
		demote(t, ts)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = s.mutationBatcher().Mutate(ctx, "fig5", edge(int32(5+i)))
			}()
		}
		wg.Wait()
		for _, err := range errs {
			refused(t, s, feed, err)
		}
		if st := s.mutationBatcher().Stats(); st.Fallbacks != 0 {
			t.Fatalf("a refusal fell back to per-submission applies: %+v", st)
		}
	})
	t.Run("apply after Shutdown", func(t *testing.T) {
		s, _, feed := primary(t)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		_, err := s.applyMutations(ctx, "fig5", edge(5))
		refused(t, s, feed, err)
	})
	t.Run("apply racing demote", func(t *testing.T) {
		acked := 0
		for range 50 {
			s, ts, feed := primary(t)
			start := make(chan struct{})
			var (
				res *api.MutationResult
				err error
				wg  sync.WaitGroup
			)
			wg.Add(2)
			go func() { defer wg.Done(); <-start; res, err = s.applyMutations(ctx, "fig5", edge(5)) }()
			go func() { defer wg.Done(); <-start; demote(t, ts) }()
			close(start)
			wg.Wait()
			if err != nil {
				refused(t, s, feed, err)
			} else {
				shipped(t, s, feed, res)
				acked++
			}
		}
		t.Logf("%d of 50 racing writes acknowledged and shipped, the rest refused", acked)
	})
	t.Run("demoted inside the durable step", func(t *testing.T) {
		s, ts, feed := primary(t)
		s.beforeDurable = func() { demote(t, ts) }
		_, err := s.applyMutations(ctx, "fig5", edge(5))
		refused(t, s, feed, err)
	})
	t.Run("shut down inside the durable step", func(t *testing.T) {
		s, _, feed := primary(t)
		s.beforeDurable = func() {
			if err := s.Shutdown(ctx); err != nil {
				t.Error(err)
			}
		}
		_, err := s.applyMutations(ctx, "fig5", edge(5))
		refused(t, s, feed, err)
	})
}

// firstRead runs hook, once, on the first Read of the body it wraps.
type firstRead struct {
	io.Reader
	hook func()
}

func (b *firstRead) Read(p []byte) (int, error) {
	if h := b.hook; h != nil {
		b.hook = nil
		h()
	}
	return b.Reader.Read(p)
}

// TestWriteAfterAReplicaTermSurvivesReboot: a primary with a data dir
// writes v1 (edge {5,9}) and is demoted. As a replica it either applies v2
// and v3 as its tailer does (Explorer.Mutate, which journals nothing), or
// re-bootstraps a re-uploaded fig5 of another lineage that reached v1 with
// edge {4,9} of its own. Promoted again, it writes the next version (edge
// {8,9}). The acknowledged write must survive a reboot from the data dir,
// on the graph the node served: a journal record behind a version gap is
// corruption to replay, and one behind another lineage's snapshot replays
// onto a graph the node never served, so the promoted node's first write
// must persist the version it serves before journaling.
func TestWriteAfterAReplicaTermSurvivesReboot(t *testing.T) {
	ctx := context.Background()
	edge := func(u int32) []api.Mutation { return []api.Mutation{{Op: api.OpAddEdge, U: u, V: 9}} }
	for _, tc := range []struct {
		name         string
		replicaTerm  func(t *testing.T, s *Server)
		want, absent []int32 // the ends u of edges {u,9} a reboot must (not) hold
		version      uint64
	}{
		{"applies", func(t *testing.T, s *Server) {
			for _, u := range []int32{6, 7} {
				if _, err := s.exp.Mutate(ctx, "fig5", edge(u)); err != nil {
					t.Fatal(err)
				}
			}
		}, []int32{5, 6, 7, 8}, nil, 4},
		{"re-bootstraps another lineage", func(t *testing.T, s *Server) {
			other := api.NewExplorer()
			if _, err := other.AddGraph("fig5", gen.Figure5()); err != nil {
				t.Fatal(err)
			}
			if _, err := other.Mutate(ctx, "fig5", edge(4)); err != nil {
				t.Fatal(err)
			}
			ds, _ := other.Dataset("fig5")
			s.exp.RemoveDataset("fig5")
			if err := s.exp.AddDataset(ds); err != nil {
				t.Fatal(err)
			}
		}, []int32{4, 8}, []int32{5}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := fleetNode(t, &tailerGate{})
			withCatalog(t, s)
			s.EnableReplicationPrimary(repl.FeedOptions{})
			if _, err := s.applyMutations(ctx, "fig5", edge(5)); err != nil {
				t.Fatal(err)
			}
			if code, env, _ := postVerb(t, ts.URL, "/api/v1/demote", map[string]any{"epoch": 2, "primary": "http://p2"}); code != http.StatusOK {
				t.Fatalf("demote: %d %s", code, env)
			}
			tc.replicaTerm(t, s)
			if code, env, _ := postVerb(t, ts.URL, "/api/v1/promote", map[string]any{"epoch": 3}); code != http.StatusOK {
				t.Fatalf("promote: %d %s", code, env)
			}
			res, err := s.applyMutations(ctx, "fig5", edge(8))
			if err != nil {
				t.Fatal(err)
			}
			if res.Version != tc.version || !res.Journaled {
				t.Fatalf("write acknowledged at version %d (journaled %v), want %d, journaled", res.Version, res.Journaled, tc.version)
			}
			cur, ok := reboot(t, s.DataDir()).Dataset("fig5")
			if !ok {
				t.Fatal("a reboot recovers no fig5")
			}
			if cur.Version != tc.version {
				t.Fatalf("write acknowledged at version %d, a reboot recovers version %d", tc.version, cur.Version)
			}
			for _, u := range tc.want {
				if !cur.Graph.HasEdge(u, 9) {
					t.Errorf("reboot lost edge {%d,9}", u)
				}
			}
			for _, u := range tc.absent {
				if cur.Graph.HasEdge(u, 9) {
					t.Errorf("reboot holds edge {%d,9} of a lineage the node no longer served", u)
				}
			}
		})
	}
}

// TestUploadOrDeleteAdmittedBeforeDemotionIsRefused: an upload or delete
// that passed writeGate on a primary either lands with the dataset's feed
// reset while the node was still a primary, or is refused with 503
// no_primary and leaves the dataset, the feed and the data dir as they
// were, whatever demotion or Shutdown lands between its admission and its
// commit — a demotion inside its durable step included, after which the
// catalog is put back.
func TestUploadOrDeleteAdmittedBeforeDemotionIsRefused(t *testing.T) {
	upload := `{"vertices":[{"id":0,"name":"a","keywords":["x"]},{"id":1,"name":"b","keywords":["x"]}],"edges":[[0,1]]}`
	// primary returns a primary node, with a data dir, whose feed already
	// holds fig5's state.
	primary := func(t *testing.T) (*Server, *httptest.Server, *repl.Feed) {
		s, ts := fleetNode(t, &tailerGate{})
		withCatalog(t, s)
		feed := s.EnableReplicationPrimary(repl.FeedOptions{})
		if _, ok := feed.Epoch("fig5"); !ok {
			t.Fatal("feed does not know fig5")
		}
		return s, ts, feed
	}
	demote := func(t *testing.T, ts *httptest.Server) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/api/v1/demote",
			jsonBody(t, map[string]any{"epoch": 2, "primary": "http://p2"}))
		ts.Config.Handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("demote: status %d: %s", rec.Code, rec.Body)
		}
	}
	put := func(ts *httptest.Server, body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/api/v1/datasets/fig5", body))
		return rec
	}
	// unchanged checks that the answer was 503 no_primary and that neither
	// the dataset nor the feed moved.
	unchanged := func(t *testing.T, s *Server, feed *repl.Feed, ds *api.Dataset, st repl.FeedStatus, rec *httptest.ResponseRecorder) {
		t.Helper()
		var env struct {
			Code string `json:"code"`
		}
		json.NewDecoder(rec.Body).Decode(&env)
		if rec.Code != http.StatusServiceUnavailable || env.Code != repl.CodeNoPrimary {
			t.Fatalf("write answered %d %q, want 503 no_primary", rec.Code, env.Code)
		}
		if cur, ok := s.exp.Dataset("fig5"); !ok || cur != ds {
			t.Fatalf("refused write changed the dataset (registered %v)", ok)
		}
		if now, ok := feed.Status("fig5"); !ok || now != st {
			t.Fatalf("refused write moved the feed: %+v (present %v), was %+v", now, ok, st)
		}
		if cur, ok := reboot(t, s.DataDir()).Dataset("fig5"); !ok || cur.Version != ds.Version || cur.Graph.N() != ds.Graph.N() {
			t.Fatalf("refused write changed the data dir: a reboot recovers fig5 %v", ok)
		}
	}
	before := func(s *Server, feed *repl.Feed) (*api.Dataset, repl.FeedStatus) {
		ds, _ := s.exp.Dataset("fig5")
		st, _ := feed.Status("fig5")
		return ds, st
	}

	t.Run("PUT demoted while reading its body", func(t *testing.T) {
		s, ts, feed := primary(t)
		ds, st := before(s, feed)
		rec := put(ts, &firstRead{strings.NewReader(upload), func() { demote(t, ts) }})
		unchanged(t, s, feed, ds, st, rec)
	})
	del := func(t *testing.T, s *Server) *httptest.ResponseRecorder {
		_, err := s.replaceDataset("fig5", nil) // the route's write after writeGate
		if err == nil {
			t.Fatal("delete applied on a demoted node")
		}
		rec := httptest.NewRecorder()
		s.writeError(rec, err)
		return rec
	}
	t.Run("DELETE committed after demotion", func(t *testing.T) {
		s, ts, feed := primary(t)
		ds, st := before(s, feed)
		demote(t, ts)
		unchanged(t, s, feed, ds, st, del(t, s))
	})
	t.Run("DELETE demoted inside its durable step", func(t *testing.T) {
		s, ts, feed := primary(t)
		ds, st := before(s, feed)
		s.beforeDurable = func() { demote(t, ts) }
		unchanged(t, s, feed, ds, st, del(t, s))
	})
	t.Run("PUT demoted inside its durable step", func(t *testing.T) {
		s, ts, feed := primary(t)
		ds, st := before(s, feed)
		s.beforeDurable = func() { demote(t, ts) }
		unchanged(t, s, feed, ds, st, put(ts, strings.NewReader(upload)))
	})
	t.Run("PUT after Shutdown", func(t *testing.T) {
		s, ts, feed := primary(t)
		ds, st := before(s, feed)
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		unchanged(t, s, feed, ds, st, put(ts, strings.NewReader(upload)))
	})
	t.Run("PUT racing demote", func(t *testing.T) {
		acked := 0
		for range 50 {
			s, ts, feed := primary(t)
			ds, st := before(s, feed)
			reading, start := make(chan struct{}), make(chan struct{})
			var rec *httptest.ResponseRecorder
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				rec = put(ts, &firstRead{strings.NewReader(upload), func() { close(reading); <-start }})
			}()
			go func() { defer wg.Done(); <-start; demote(t, ts) }()
			<-reading // admitted: the handler is past writeGate
			close(start)
			wg.Wait()
			if rec.Code != http.StatusOK {
				unchanged(t, s, feed, ds, st, rec)
				continue
			}
			// Reset refuses after the demotion's Drain, so a landed upload
			// reset the feed while the node was still a primary.
			if cur, _ := s.exp.Dataset("fig5"); cur == ds || cur.Graph.N() != 2 {
				t.Fatal("upload acknowledged but not registered")
			}
			if now, ok := feed.Status("fig5"); ok {
				t.Fatalf("upload acknowledged without resetting the feed: %+v", now)
			}
			if cur, ok := reboot(t, s.DataDir()).Dataset("fig5"); !ok || cur.Graph.N() != 2 {
				t.Fatal("upload acknowledged but a reboot does not recover it")
			}
			acked++
		}
		t.Logf("%d of 50 racing uploads acknowledged, the rest refused", acked)
	})
}

// TestRetryAfterFunnel: every 429/503 envelope carries Retry-After so
// clients can back off instead of hammering, and explicit values win.
func TestRetryAfterFunnel(t *testing.T) {
	cases := []struct {
		status int
		preset string
		want   string
	}{
		{http.StatusTooManyRequests, "", "1"},
		{http.StatusServiceUnavailable, "", "1"},
		{http.StatusServiceUnavailable, "7", "7"},
		{http.StatusForbidden, "", ""},
		{http.StatusConflict, "", ""},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		if tc.preset != "" {
			rec.Header().Set("Retry-After", tc.preset)
		}
		writeEnvelope(rec, tc.status, "msg", "some_code")
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("status %d (preset %q): Retry-After %q, want %q", tc.status, tc.preset, got, tc.want)
		}
	}
}

// TestShutdownReleasesJournalLongPoll: graceful shutdown drains the feed, so
// a parked journal long-poll returns promptly instead of riding out its full
// wait (which would hold the listener open past any drain budget).
func TestShutdownReleasesJournalLongPoll(t *testing.T) {
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	s := New(exp, t.Logf)
	feed := s.EnableReplicationPrimary(repl.FeedOptions{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	epoch, ok := feed.Epoch("fig5")
	if !ok {
		t.Fatal("feed does not know fig5")
	}
	type pollResult struct {
		status  int
		elapsed time.Duration
		err     error
	}
	done := make(chan pollResult, 1)
	go func() {
		start := time.Now()
		url := ts.URL + "/api/v1/datasets/fig5/journal?fromSeq=1&epoch=" +
			strconv.FormatUint(epoch, 10) + "&wait=25s"
		resp, err := http.Get(url)
		if err != nil {
			done <- pollResult{err: err, elapsed: time.Since(start)}
			return
		}
		resp.Body.Close()
		done <- pollResult{status: resp.StatusCode, elapsed: time.Since(start)}
	}()

	// Give the poll time to park, then shut down.
	time.Sleep(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("long-poll errored: %v", res.err)
		}
		if res.status != http.StatusOK {
			t.Fatalf("long-poll status %d", res.status)
		}
		if res.elapsed > 5*time.Second {
			t.Fatalf("long-poll held for %s; drain did not release it", res.elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never returned after shutdown")
	}
}

// jsonBody marshals a value into a request body reader.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}
