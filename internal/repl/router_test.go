package repl

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cexplorer/internal/chaos"
)

func TestDatasetFromPath(t *testing.T) {
	cases := []struct {
		path, want string
	}{
		{"/api/v1/datasets/dblp", "dblp"},
		{"/api/v1/datasets/dblp/search", "dblp"},
		{"/api/v1/datasets/dblp/vertices/42", "dblp"},
		{"/api/v1/datasets/my%20set/journal", "my set"},
		{"/api/v1/datasets/", ""},
		{"/api/v1/datasets", ""},
		{"/api/stats", ""},
		{"/", ""},
	}
	for _, c := range cases {
		if got := DatasetFromPath(c.path); got != c.want {
			t.Errorf("DatasetFromPath(%q) = %q, want %q", c.path, got, c.want)
		}
	}
}

// TestRouterAffinity: the ring gives each dataset a stable home replica and
// a full-preference failover order covering every replica exactly once.
func TestRouterAffinity(t *testing.T) {
	replicas := []string{"http://r0", "http://r1", "http://r2"}
	rt := NewRouter("http://p", replicas, RouterOptions{})
	v := rt.view.Load()
	homes := map[int]int{}
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("dataset-%d", i)
		order := replicaOrder(name, v.replicas, v.ring)
		if len(order) != len(replicas) {
			t.Fatalf("order for %s covers %d replicas", name, len(order))
		}
		sorted := slices.Clone(order)
		slices.Sort(sorted)
		if !slices.Equal(sorted, []int{0, 1, 2}) {
			t.Fatalf("order for %s = %v: not a permutation", name, order)
		}
		if again := replicaOrder(name, v.replicas, v.ring); !slices.Equal(order, again) {
			t.Fatalf("order for %s unstable: %v then %v", name, order, again)
		}
		homes[order[0]]++
	}
	// 64 datasets over 3 replicas with 64 vnodes each: every replica should
	// be home to someone (balance, not perfection).
	for i := range replicas {
		if homes[i] == 0 {
			t.Fatalf("replica %d is home to no dataset: %v", i, homes)
		}
	}
}

// echoNode runs a test upstream that records hits and answers with its own
// tag, optionally failing with a fixed status.
type echoNode struct {
	ts     *httptest.Server
	hits   atomic.Int64
	status atomic.Int64 // 0 = 200 + tag body
	tag    string
}

func newEchoNode(tag string) *echoNode {
	n := &echoNode{tag: tag}
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.hits.Add(1)
		if st := n.status.Load(); st != 0 {
			w.WriteHeader(int(st))
			fmt.Fprintf(w, `{"error":"down","code":"replica_lagging"}`)
			return
		}
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s:%s %s len=%d", n.tag, r.Method, r.URL.Path, len(body))
	}))
	return n
}

func TestRouterRoutesWritesToPrimaryAndReadsToReplicas(t *testing.T) {
	p := newEchoNode("primary")
	r0 := newEchoNode("r0")
	r1 := newEchoNode("r1")
	defer p.ts.Close()
	defer r0.ts.Close()
	defer r1.ts.Close()
	rt := NewRouter(p.ts.URL, []string{r0.ts.URL, r1.ts.URL}, RouterOptions{})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get(front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.Header.Get(HeaderServedBy)
	}

	// Writes always land on the primary.
	resp, err := http.Post(front.URL+"/api/v1/datasets/d/mutations", "application/json", strings.NewReader(`{"op":"addEdge","u":1,"v":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p.hits.Load() != 1 || r0.hits.Load()+r1.hits.Load() != 0 {
		t.Fatalf("mutation routed off-primary: p=%d r0=%d r1=%d", p.hits.Load(), r0.hits.Load(), r1.hits.Load())
	}

	// Shipping (replication-internal) goes to the primary too.
	get("/api/v1/datasets/d/journal?fromSeq=1")
	if p.hits.Load() != 2 {
		t.Fatalf("journal request routed off-primary")
	}

	// Dataset reads go to the home replica, stably.
	body1, served1 := get("/api/v1/datasets/d/vertices/1")
	_, served2 := get("/api/v1/datasets/d/vertices/2")
	if served1 != served2 {
		t.Fatalf("read affinity broken: %q then %q", served1, served2)
	}
	if strings.HasPrefix(body1, "primary:") {
		t.Fatalf("read served by primary while replicas healthy: %q", body1)
	}
	if p.hits.Load() != 2 {
		t.Fatalf("reads leaked to primary: %d hits", p.hits.Load())
	}

	// Non-dataset paths pass through to the primary.
	get("/api/v1/datasets")
	if p.hits.Load() != 3 {
		t.Fatalf("dataset listing not passed through to primary")
	}

	s := rt.Stats()
	if s.Writes != 1 || s.Reads != 2 || s.Proxied != 2 {
		t.Fatalf("router stats %+v", s)
	}
}

// TestRouterPutIsAWrite: a PUT on a dataset resource (an upload) is a write
// like a mutation: it reaches the primary stamped with the fleet epoch and
// never a replica, which would refuse it.
func TestRouterPutIsAWrite(t *testing.T) {
	var seen atomic.Value
	p := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Method + " " + r.URL.Path + " epoch=" + r.Header.Get(HeaderFleetEpoch))
	}))
	defer p.Close()
	r0 := newEchoNode("r0")
	defer r0.ts.Close()
	rt := NewRouter(p.URL, []string{r0.ts.URL}, RouterOptions{})
	rt.EnableSelfHealing(SelfHealOptions{})
	rt.commit(func(cur *fleetView) *fleetView { return rt.withPrimary(cur, cur.primary, 3) })
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	req, _ := http.NewRequest(http.MethodPut, front.URL+"/api/v1/datasets/d", strings.NewReader(`{"vertices":[]}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := seen.Load(); got != "PUT /api/v1/datasets/d epoch=3" {
		t.Fatalf("primary saw %v", got)
	}
	if r0.hits.Load() != 0 || rt.Stats().Writes != 1 {
		t.Fatalf("upload not routed as a write: replica hits %d, stats %+v", r0.hits.Load(), rt.Stats())
	}
}

func TestRouterFailover(t *testing.T) {
	p := newEchoNode("primary")
	r0 := newEchoNode("r0")
	r1 := newEchoNode("r1")
	defer p.ts.Close()
	defer r0.ts.Close()
	defer r1.ts.Close()

	// Both replicas answer 503 (lagging): the read must end at the primary.
	r0.status.Store(503)
	r1.status.Store(503)
	rt := NewRouter(p.ts.URL, []string{r0.ts.URL, r1.ts.URL}, RouterOptions{})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/api/v1/datasets/d/core")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.HasPrefix(string(body), "primary:") {
		t.Fatalf("lagging replicas did not fail over to primary: %q", body)
	}
	if got := resp.Header.Get(HeaderServedBy); got != p.ts.URL {
		t.Fatalf("%s = %q, want %q", HeaderServedBy, got, p.ts.URL)
	}
	if rt.Stats().Failovers != 2 {
		t.Fatalf("failovers = %d, want 2", rt.Stats().Failovers)
	}

	// A dead replica (transport error) also fails over; the write path is
	// unaffected. And a POST body is replayed intact on the retry target.
	r0.ts.Close()
	r1.status.Store(0)
	resp, err = http.Post(front.URL+"/api/v1/datasets/d/search", "application/json", strings.NewReader(`{"algorithm":"ACQ","k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "len=25") {
		t.Fatalf("failover dropped the request body: %q", body)
	}

	// Everything down: a typed 502.
	r1.ts.Close()
	p.ts.Close()
	resp, err = http.Get(front.URL + "/api/v1/datasets/d/core")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-down status = %d, want 502", resp.StatusCode)
	}
	var env struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Code != "bad_gateway" {
		t.Fatalf("all-down envelope code %q err %v", env.Code, err)
	}
}

// TestRouterSessionRoutesStickToHome: exploration-session routes pin to the
// dataset's home replica. A down or lagging home must surface its failure to
// the client — never a ring walk onto a node that has no idea the session
// exists and would answer session_not_found 404 to every step.
func TestRouterSessionRoutesStickToHome(t *testing.T) {
	p := newEchoNode("primary")
	r0 := newEchoNode("r0")
	r1 := newEchoNode("r1")
	defer p.ts.Close()
	defer r0.ts.Close()
	defer r1.ts.Close()
	rt := NewRouter(p.ts.URL, []string{r0.ts.URL, r1.ts.URL}, RouterOptions{})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	nodes := []*echoNode{r0, r1}
	v := rt.view.Load()
	homeIdx := replicaOrder("d", v.replicas, v.ring)[0]
	home, other := nodes[homeIdx], nodes[1-homeIdx]

	post := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Post(front.URL+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// Healthy home: create and step both land there.
	resp := post("/api/v1/datasets/d/explore")
	if got := resp.Header.Get(HeaderServedBy); got != home.ts.URL {
		t.Fatalf("session create served by %q, want home %q", got, home.ts.URL)
	}
	post("/api/v1/datasets/d/explore/abc/step")
	if home.hits.Load() != 2 || other.hits.Load() != 0 {
		t.Fatalf("session traffic off-home: home=%d other=%d", home.hits.Load(), other.hits.Load())
	}

	// Lagging home: the failure is relayed, not "failed over" to a node
	// that never saw the session.
	home.status.Store(503)
	resp = post("/api/v1/datasets/d/explore/abc/step")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("down-home step status = %d, want the home's own 503", resp.StatusCode)
	}
	if other.hits.Load() != 0 || p.hits.Load() != 0 {
		t.Fatalf("session request walked the ring: other=%d primary=%d", other.hits.Load(), p.hits.Load())
	}

	// Plain dataset reads on the same dataset still fail over as before.
	rresp, err := http.Get(front.URL + "/api/v1/datasets/d/core")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rresp.Body)
	rresp.Body.Close()
	if got := rresp.Header.Get(HeaderServedBy); got == home.ts.URL {
		t.Fatal("plain read stuck to the lagging home")
	}
	if s := rt.Stats(); s.Sessions != 3 {
		t.Fatalf("sessions counter = %d, want 3 (stats %+v)", s.Sessions, s)
	}
}

// TestRouterRelayAbortsOnTruncatedUpstream: an upstream dying mid-body must
// tear the client connection (http.ErrAbortHandler), never complete a
// truncated body under a clean 200. The dying upstream is the chaos proxy's
// Truncate fault — the exact failure the chaos suite schedules.
func TestRouterRelayAbortsOnTruncatedUpstream(t *testing.T) {
	body := strings.Repeat("x", 64<<10)
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(len(body)))
		io.WriteString(w, body)
	}))
	defer up.Close()
	px, err := chaos.NewProxy(up.URL, chaos.Plan{{Kind: chaos.Truncate, After: 1024}}, chaos.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	rt := NewRouter(px.URL(), nil, RouterOptions{Logf: t.Logf})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/api/v1/datasets/d/core")
	if err != nil {
		t.Fatal(err)
	}
	got, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr == nil && len(got) == len(body) {
		t.Fatal("truncated upstream relayed as a complete body")
	}
	if rerr == nil {
		t.Fatalf("truncated upstream relayed as a clean EOF after %d of %d bytes", len(got), len(body))
	}
	if aborts := rt.Stats().RelayAborts; aborts != 1 {
		t.Fatalf("relayAborts = %d, want 1", aborts)
	}
}

func TestRouterBodyTooLarge(t *testing.T) {
	p := newEchoNode("primary")
	defer p.ts.Close()
	rt := NewRouter(p.ts.URL, nil, RouterOptions{MaxBodyBytes: 16})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Post(front.URL+"/api/v1/datasets/d/mutations", "application/json", strings.NewReader(strings.Repeat("x", 64)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body status = %d, want 413", resp.StatusCode)
	}
	if p.hits.Load() != 0 {
		t.Fatal("oversize body reached the upstream")
	}
}

func TestRouterStatsEndpoint(t *testing.T) {
	p := newEchoNode("primary")
	defer p.ts.Close()
	rt := NewRouter(p.ts.URL, nil, RouterOptions{})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	http.Get(front.URL + "/api/v1/datasets/d/core")
	resp, err := http.Get(front.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Role != "router" || s.Primary != p.ts.URL {
		t.Fatalf("stats %+v", s)
	}
	if s.PerNode[p.ts.URL].Requests != 1 {
		t.Fatalf("per-node stats %+v", s.PerNode)
	}
}

// TestRouterAdoptsHighestEpochPrimary: a router restarted with its
// pre-failover flags (-primary names the old primary, now a replica at
// epoch 2; the real primary X is listed as a replica) must adopt X after
// one step, whichever node's health it reads first. A replica's epoch must
// not outrank X's claim, and no replica may be retargeted at a replica.
func TestRouterAdoptsHighestEpochPrimary(t *testing.T) {
	ctx := context.Background()
	x, old, r := newFakeNode(t, HealthStatus{}), newFakeNode(t, HealthStatus{}), newFakeNode(t, HealthStatus{})
	for i := range 20 {
		x.reset(HealthStatus{Role: "primary", FleetEpoch: 2})
		old.reset(HealthStatus{Role: "replica", FleetEpoch: 2, Primary: x.url})
		r.reset(HealthStatus{Role: "replica", FleetEpoch: 2, Primary: x.url})
		rt := newFakeRouter(t, old.url, []string{x.url, r.url}, 3)
		rt.step(ctx)
		if v := rt.view.Load(); v.primary != x.url || v.epoch != 2 {
			t.Fatalf("trial %d: router primary %s at epoch %d, want %s at 2", i, v.primary, v.epoch, x.url)
		}
		for _, n := range []*fakeNode{x, old, r} {
			l := n.seen()
			for _, to := range slices.Concat(l.retargets, l.demotes) {
				if to != x.url {
					t.Fatalf("trial %d: %s was pointed at non-primary %s", i, n.url, to)
				}
			}
		}
		if st := postWrite(rt); st != http.StatusOK {
			t.Fatalf("trial %d: routed write answered %d, want 200", i, st)
		}
	}
}

// TestElectionNeverReusesAnEpoch: the primary is dead; candidate A applies
// its promotion but the answer is lost, so the router moves on to B. B must
// get a higher epoch than A, which makes A a stale primary the next step
// demotes — never two primaries at one epoch.
func TestElectionNeverReusesAnEpoch(t *testing.T) {
	ctx := context.Background()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	applied := map[string]DatasetHealth{"d": {AppliedSeq: 5, HeadSeq: 5}}
	a := newFakeNode(t, HealthStatus{Role: "replica", FleetEpoch: 1, Primary: dead.URL, Datasets: applied})
	a.dropPromote.Store(true)
	b := newFakeNode(t, HealthStatus{Role: "replica", FleetEpoch: 1, Primary: dead.URL, Datasets: applied})
	rt := newFakeRouter(t, dead.URL, []string{a.url, b.url}, 1)

	rt.step(ctx) // dead's circuit opens; A then B are asked to promote
	rt.step(ctx) // A reports primary at a stale epoch and is demoted

	la, lb := a.seen(), b.seen()
	if epochs := slices.Concat(la.promotes, lb.promotes); !slices.Equal(epochs, []uint64{2, 3}) {
		t.Fatalf("promote epochs A then B = %v, want [2 3]: each attempt needs a fresh epoch", epochs)
	}
	if ha, hb := la.health, lb.health; ha.Role != "replica" || hb.Role != "primary" {
		t.Fatalf("roles after two steps: A %s@%d, B %s@%d; want exactly one primary (B)", ha.Role, ha.FleetEpoch, hb.Role, hb.FleetEpoch)
	}
	if !slices.Equal(la.demotes, []string{b.url}) {
		t.Fatalf("A's demotions %v, want one to %s", la.demotes, b.url)
	}
	if st := postWrite(rt); st != http.StatusOK {
		t.Fatalf("routed write answered %d, want 200", st)
	}
}

// TestRoutedWriteStampMatchesTarget: while the view flips between two
// primaries at increasing epochs, every routed write must reach the primary
// whose committed epoch it carries — targets and stamp come from one view.
func TestRoutedWriteStampMatchesTarget(t *testing.T) {
	nodes := []*fakeNode{
		newFakeNode(t, HealthStatus{Role: "primary"}),
		newFakeNode(t, HealthStatus{Role: "primary"}),
	}
	rt := NewRouter(nodes[0].url, nil, RouterOptions{})
	rt.EnableSelfHealing(SelfHealOptions{})

	var owner sync.Map // epoch → primary URL committed with it
	commitEpoch := func(e uint64) {
		p := nodes[e%2].url
		owner.Store(e, p)
		rt.commit(func(cur *fleetView) *fleetView { return rt.withPrimary(cur, p, e) })
	}
	commitEpoch(1) // no write goes out unstamped
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := uint64(2); ; e++ {
			select {
			case <-stop:
				return
			default:
			}
			commitEpoch(e)
			runtime.Gosched()
		}
	}()
	const clients, perClient = 4, 20
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perClient {
				if st := postWrite(rt); st != http.StatusOK {
					t.Errorf("routed write answered %d", st)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done

	total, mismatched := 0, 0
	for _, n := range nodes {
		for _, e := range n.seen().stamps {
			total++
			if p, _ := owner.Load(e); p != n.url {
				mismatched++
			}
		}
	}
	if total != clients*perClient || mismatched != 0 {
		t.Fatalf("%d of %d routed writes reached a primary other than the one committed with their epoch (%d arrived)", mismatched, clients*perClient, total)
	}
}
