package repl

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RouterOptions tune the router. Zero values take the noted defaults.
type RouterOptions struct {
	Client       *http.Client // upstream transport (default: 30s-timeout client)
	VNodes       int          // virtual nodes per replica on the hash ring (default 64)
	MaxBodyBytes int64        // largest request body buffered for failover replay (default 32 MiB)
	Logf         func(format string, args ...any)
}

// SelfHealOptions turn the router into the fleet's failure detector and
// promotion coordinator (see the package doc's promotion protocol).
type SelfHealOptions struct {
	// Monitor tunes the health prober (probe interval, per-probe timeout,
	// consecutive-failure threshold, open-state backoff cap).
	Monitor MonitorOptions
	// Promote enables automatic promotion of the most-caught-up replica
	// when the primary's circuit opens. With Promote false the router
	// still probes, drops dead nodes from the read ring, and answers
	// writes with 503 no_primary — detection without the coup.
	Promote bool
}

// Router is the version-aware front door of a replication fleet: a thin
// HTTP layer that sends writes to the primary and fans dataset reads across
// replicas by consistent hashing on the dataset name. Hashing gives every
// dataset a stable home replica — exploration sessions and the serve-time
// result cache stay hot — and the ring provides the failover order when
// that home is down or lagging. Read-your-writes needs no router state:
// the X-CExplorer-Min-Version header passes through, a lagging replica
// answers 503 replica_lagging, and the router walks the ring to the
// primary, which is never behind.
//
// The router's picture of the fleet — primary, replicas, ring and epoch —
// is one immutable fleetView that only commit replaces. Each request loads
// it once, so its targets and the epoch stamped on a write always come from
// the same committed view.
//
// After EnableSelfHealing, Run makes the router the owner of fleet
// membership: a Monitor keeps a circuit breaker per node so dead nodes leave
// the read ring immediately, and after every probe round supervision adopts
// the highest-epoch primary the fleet reports, promotes the most-caught-up
// replica when the primary is declared down (each attempt under a fresh
// epoch), re-targets the survivors, and demotes a stale primary that comes
// back.
type Router struct {
	opt     RouterOptions
	started time.Time

	view     atomic.Pointer[fleetView]
	commitMu sync.Mutex // held by commit from its Load to its Store

	// Set once by EnableSelfHealing, before the router serves; a nil
	// monitor means the router never probes or supervises.
	monitor *Monitor
	promote bool

	reads       atomic.Int64
	writes      atomic.Int64
	sessions    atomic.Int64
	passthrough atomic.Int64
	failovers   atomic.Int64
	relayAborts atomic.Int64
	errors      atomic.Int64
	noPrimary   atomic.Int64
	promotions  atomic.Int64
	demotions   atomic.Int64
	retargeted  atomic.Int64

	nodeMu  sync.Mutex
	perNode map[string]*nodeCounters
}

// fleetView is the router's picture of the fleet. A published view is never
// mutated; commit installs a fresh one for every change.
type fleetView struct {
	primary  string
	replicas []string
	ring     []ringPoint
	// epoch is the committed primary's fleet epoch; every routed write is
	// stamped with it.
	epoch uint64
	// issued is the highest epoch this router has observed or handed out
	// (never below epoch). A promotion attempt reserves issued+1.
	issued uint64
}

type nodeCounters struct {
	requests atomic.Int64
	errors   atomic.Int64
}

type ringPoint struct {
	hash uint32
	node int // index into replicas
}

// NewRouter builds a router over one primary and zero or more replicas
// (base URLs). With no replicas every request goes to the primary — a
// degenerate but valid topology for bring-up.
func NewRouter(primary string, replicas []string, opt RouterOptions) *Router {
	if opt.Client == nil {
		opt.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opt.VNodes <= 0 {
		opt.VNodes = 64
	}
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = 32 << 20
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	rt := &Router{
		opt:     opt,
		started: time.Now(),
		perNode: map[string]*nodeCounters{},
	}
	var reps []string
	for _, rep := range replicas {
		if rep = strings.TrimRight(rep, "/"); rep != "" {
			reps = append(reps, rep)
		}
	}
	rt.commit(func(*fleetView) *fleetView {
		return rt.makeView(strings.TrimRight(primary, "/"), reps, 0, 0)
	})
	return rt
}

// buildRing hashes each replica onto vnodes virtual points, sorted.
func buildRing(replicas []string, vnodes int) []ringPoint {
	var ring []ringPoint
	for i, rep := range replicas {
		for v := 0; v < vnodes; v++ {
			h := fnv.New32a()
			fmt.Fprintf(h, "%s#%d", rep, v)
			ring = append(ring, ringPoint{hash: h.Sum32(), node: i})
		}
	}
	slices.SortFunc(ring, func(a, b ringPoint) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	return ring
}

// makeView builds a fleet view over primary and replicas, ring included.
func (rt *Router) makeView(primary string, replicas []string, epoch, issued uint64) *fleetView {
	return &fleetView{
		primary:  primary,
		replicas: replicas,
		ring:     buildRing(replicas, rt.opt.VNodes),
		epoch:    epoch,
		issued:   max(issued, epoch),
	}
}

// withPrimary is the view with node as primary at epoch. The node leaves the
// read ring; the old primary stays known to the monitor, and if it ever
// comes back supervision demotes it and re-adds it as a replica.
func (rt *Router) withPrimary(cur *fleetView, node string, epoch uint64) *fleetView {
	reps := slices.DeleteFunc(slices.Clone(cur.replicas), func(rep string) bool { return rep == node })
	return rt.makeView(node, reps, epoch, cur.issued)
}

// commit is the only writer of the fleet view. step receives the current
// view and returns the next one (or the current one to change nothing); the
// lock is held from the read to the store, so concurrent commits apply one
// after the other. The monitor tracks every node of the committed view.
func (rt *Router) commit(step func(cur *fleetView) *fleetView) *fleetView {
	rt.commitMu.Lock()
	defer rt.commitMu.Unlock()
	next := step(rt.view.Load())
	rt.view.Store(next)
	rt.track(next)
	return next
}

// track adds every node of v to the monitor (idempotent; no-op without one).
func (rt *Router) track(v *fleetView) {
	if rt.monitor == nil {
		return
	}
	rt.monitor.Add(v.primary)
	for _, rep := range v.replicas {
		rt.monitor.Add(rep)
	}
}

// EnableSelfHealing attaches a health monitor over the current topology.
// Call before Handler is serving and follow with Run.
func (rt *Router) EnableSelfHealing(opt SelfHealOptions) {
	if opt.Monitor.Client == nil {
		opt.Monitor.Client = rt.opt.Client
	}
	if opt.Monitor.Logf == nil {
		opt.Monitor.Logf = rt.opt.Logf
	}
	rt.monitor = NewMonitor(opt.Monitor)
	rt.promote = opt.Promote
	rt.track(rt.view.Load())
}

// Run supervises the fleet until ctx is canceled: one step per probe
// interval, the first at once so a freshly started router learns the
// fleet before its first interval ends. A no-op without EnableSelfHealing.
func (rt *Router) Run(ctx context.Context) {
	if rt.monitor == nil {
		return
	}
	tick := time.NewTicker(rt.monitor.opt.Interval)
	defer tick.Stop()
	for {
		rt.step(ctx)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// step is one supervision round: a complete probe round, then supervise
// over its results. An election inside it delays the next probe round
// rather than overlapping it; reads keep walking the ring meanwhile.
func (rt *Router) step(ctx context.Context) {
	rt.monitor.ProbeOnce(ctx)
	if ctx.Err() == nil {
		rt.supervise(ctx)
	}
}

// supervise reconciles the fleet view with the probe round just taken:
// adopt the highest-epoch primary the fleet reports, elect a new primary if
// the current one is declared down, and steer every other node back into
// the topology (retarget replicas tailing someone else, demote a stale
// primary that came back). Every action is idempotent and retried next
// step on failure.
func (rt *Router) supervise(ctx context.Context) {
	m := rt.monitor
	nodes := m.Stats().Nodes

	// Adopt: the available node claiming primacy at the highest epoch wins
	// if that epoch is above the committed one — how a restarted router
	// rejoins a fleet that promoted while it was away. Any other epoch seen
	// only raises issued: a replica's epoch names no primary, so it is
	// never stamped on a write.
	v := rt.commit(func(cur *fleetView) *fleetView {
		next := *cur
		claim, claimEpoch := "", uint64(0)
		for node, np := range nodes {
			h := np.Health
			if h == nil {
				continue
			}
			next.issued = max(next.issued, h.FleetEpoch)
			if h.Role == "primary" && m.Available(node) &&
				(h.FleetEpoch > claimEpoch || h.FleetEpoch == claimEpoch && node < claim) {
				claim, claimEpoch = node, h.FleetEpoch
			}
		}
		if claimEpoch <= cur.epoch {
			return &next
		}
		rt.opt.Logf("router: adopting %s as primary (fleet epoch %d > %d)", claim, claimEpoch, cur.epoch)
		return rt.withPrimary(&next, claim, claimEpoch)
	})

	// Elect: primary declared down, promotion enabled, somebody to promote.
	if rt.promote && m.State(v.primary) == StateOpen && len(v.replicas) > 0 {
		v = rt.elect(ctx, v)
	}

	// Reconcile every available node against the view.
	addReplica := func(node string) {
		v = rt.commit(func(cur *fleetView) *fleetView {
			if node == cur.primary || slices.Contains(cur.replicas, node) {
				return cur
			}
			return rt.makeView(cur.primary, append(slices.Clone(cur.replicas), node), cur.epoch, cur.issued)
		})
	}
	for node, np := range nodes {
		h := np.Health
		if node == v.primary || h == nil || !m.Available(node) {
			continue
		}
		switch h.Role {
		case "primary":
			// A stale primary (dead, promoted around, came back). Fence it:
			// demotion carries our higher epoch; the node refuses anything
			// not above its own, so a misconfigured twin primary at the same
			// epoch is left alone (and logged) rather than clobbered.
			if h.FleetEpoch >= v.epoch {
				rt.opt.Logf("router: node %s claims primary at epoch %d ≥ ours %d; not demoting", node, h.FleetEpoch, v.epoch)
				continue
			}
			dctx, cancel := context.WithTimeout(ctx, healthDeadline)
			err := postControl(dctx, rt.opt.Client, node, "/api/v1/demote", demoteRequest{Epoch: v.epoch, Primary: v.primary})
			cancel()
			if err != nil {
				rt.opt.Logf("router: demote %s: %v", node, err)
				continue
			}
			rt.demotions.Add(1)
			rt.opt.Logf("router: demoted stale primary %s (epoch %d → replica of %s)", node, v.epoch, v.primary)
			addReplica(node)
		case "replica":
			addReplica(node)
			if h.Primary != "" && h.Primary != v.primary {
				rctx, cancel := context.WithTimeout(ctx, healthDeadline)
				err := postControl(rctx, rt.opt.Client, node, "/api/v1/retarget", retargetRequest{Epoch: v.epoch, Primary: v.primary})
				cancel()
				if err != nil {
					rt.opt.Logf("router: retarget %s: %v", node, err)
					continue
				}
				rt.retargeted.Add(1)
				rt.opt.Logf("router: re-targeted %s to %s", node, v.primary)
			}
		}
	}
}

// elect promotes the most-caught-up available replica of v to primary and
// returns the resulting view. Candidates are tried in applied-order; a
// candidate that refuses (it found a peer further ahead: 409 not_caught_up)
// or cannot be reached sends the election to the next. Every attempt first
// reserves a fresh epoch, so a candidate that applied a promotion whose
// answer was lost never shares its epoch with the next one. Only a success
// moves the primary; writes flow to it on the next request.
func (rt *Router) elect(ctx context.Context, v *fleetView) *fleetView {
	m := rt.monitor
	type candidate struct {
		url     string
		applied uint64
	}
	var cands []candidate
	for _, rep := range v.replicas {
		if h := m.Health(rep); h != nil && m.Available(rep) {
			cands = append(cands, candidate{url: rep, applied: h.AppliedTotal()})
		}
	}
	if len(cands) == 0 {
		rt.opt.Logf("router: primary %s down but no reachable replica to promote", v.primary)
		return v
	}
	slices.SortStableFunc(cands, func(a, b candidate) int {
		return cmp.Compare(b.applied, a.applied) // most caught-up first
	})
	for _, cand := range cands {
		peers := make([]string, 0, len(cands)-1)
		for _, other := range cands {
			if other.url != cand.url {
				peers = append(peers, other.url)
			}
		}
		epoch := rt.commit(func(cur *fleetView) *fleetView {
			next := *cur
			next.issued++
			return &next
		}).issued
		pctx, cancel := context.WithTimeout(ctx, 2*healthDeadline)
		err := postControl(pctx, rt.opt.Client, cand.url, "/api/v1/promote", promoteRequest{Epoch: epoch, Peers: peers})
		cancel()
		if err != nil {
			rt.opt.Logf("router: promote %s at epoch %d (applied %d): %v; trying next candidate", cand.url, epoch, cand.applied, err)
			continue
		}
		rt.promotions.Add(1)
		rt.opt.Logf("router: promoted %s to primary at fleet epoch %d (was %s)", cand.url, epoch, v.primary)
		return rt.commit(func(cur *fleetView) *fleetView { return rt.withPrimary(cur, cand.url, epoch) })
	}
	rt.opt.Logf("router: election failed: no candidate accepted")
	return rt.view.Load()
}

// replicaOrder returns replica indexes in ring order starting at the
// dataset's home position: the failover preference list.
func replicaOrder(dataset string, replicas []string, ring []ringPoint) []int {
	if len(replicas) == 0 {
		return nil
	}
	h := fnv.New32a()
	io.WriteString(h, dataset)
	key := h.Sum32()
	start := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= key })
	order := make([]int, 0, len(replicas))
	seen := make([]bool, len(replicas))
	for i := 0; i < len(ring) && len(order) < len(replicas); i++ {
		p := ring[(start+i)%len(ring)]
		if !seen[p.node] {
			seen[p.node] = true
			order = append(order, p.node)
		}
	}
	return order
}

// DatasetFromPath extracts the {name} segment of /api/v1/datasets/{name}[/...],
// or "" when the path is not a dataset resource.
func DatasetFromPath(p string) string {
	const prefix = "/api/v1/datasets/"
	rest, ok := strings.CutPrefix(p, prefix)
	if !ok || rest == "" {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	name, err := url.PathUnescape(rest)
	if err != nil {
		return ""
	}
	return name
}

// route classifies a request into an ordered upstream preference list over
// the view v.
func (rt *Router) route(r *http.Request, v *fleetView) (targets []string, class string) {
	primary, replicas, ring := v.primary, v.replicas, v.ring
	p := r.URL.Path
	dataset := DatasetFromPath(p)
	sub := "" // sub-resource path after the dataset segment
	if dataset != "" {
		rest, _ := strings.CutPrefix(p, "/api/v1/datasets/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			sub = rest[i:]
		}
	}
	isMutation := r.Method == http.MethodPost && dataset != "" && strings.HasSuffix(p, "/mutations")
	// Any method but a read on the dataset resource itself (PUT uploads,
	// DELETE drops) writes it.
	isResourceWrite := dataset != "" && sub == "" && r.Method != http.MethodGet && r.Method != http.MethodHead
	isShipping := dataset != "" && (strings.HasSuffix(p, "/journal") || strings.HasSuffix(p, "/snapshot"))
	isSession := sub == "/explore" || strings.HasPrefix(sub, "/explore/")
	switch {
	case isMutation, isResourceWrite:
		return []string{primary}, "write"
	case isShipping:
		// Replication-internal traffic: replicas must tail the primary's
		// feed, never each other's.
		return []string{primary}, "passthrough"
	case isSession && len(replicas) > 0:
		// Exploration sessions are server-side state living on exactly one
		// node. A ring walk here would be failover theater: the next replica
		// never saw the session, so a briefly-down or lagging home node would
		// turn every /step into a session_not_found 404 — worse than the
		// honest 502/503 the client can retry against the same home once it
		// recovers. Stick to the home node, no fallback.
		order := replicaOrder(dataset, replicas, ring)
		return []string{replicas[order[0]]}, "session"
	case dataset != "" && len(replicas) > 0:
		order := replicaOrder(dataset, replicas, ring)
		targets = make([]string, 0, len(order)+1)
		for _, i := range order {
			targets = append(targets, replicas[i])
		}
		targets = rt.filterAvailable(targets)
		return append(targets, primary), "read"
	default:
		// Dataset and algorithm lists, stats of the primary, the UI: the
		// primary serves them all.
		return []string{primary}, "passthrough"
	}
}

// filterAvailable drops open-circuit nodes from a read preference list, so
// dead replicas stop costing a failover round trip per request. If the
// monitor has everything open (or is absent), the original list survives —
// the ring walk plus the primary fallback remain the last line of defense.
func (rt *Router) filterAvailable(targets []string) []string {
	if rt.monitor == nil {
		return targets
	}
	avail := make([]string, 0, len(targets))
	for _, t := range targets {
		if rt.monitor.Available(t) {
			avail = append(avail, t)
		}
	}
	if len(avail) == 0 {
		return targets
	}
	return avail
}

// Handler returns the router's HTTP surface: /api/stats reports routing
// counters, /api/v1/health identifies the router itself; everything else
// proxies along the routed preference list.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/stats", rt.handleStats)
	mux.HandleFunc("GET /api/v1/health", rt.handleHealth)
	mux.HandleFunc("/", rt.proxy)
	return mux
}

// shouldFailover reports whether an upstream response means "try the next
// node" rather than "relay to the client". 503 covers replica_lagging and
// genuinely overloaded nodes; 502/504 cover dead proxies in between.
func shouldFailover(status int) bool {
	return status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

func (rt *Router) proxy(w http.ResponseWriter, r *http.Request) {
	v := rt.view.Load()
	targets, class := rt.route(r, v)
	var stampEpoch uint64
	switch class {
	case "read":
		rt.reads.Add(1)
	case "write":
		rt.writes.Add(1)
		// Fail fast during an election window: the primary's circuit is
		// open, so forwarding would only burn a timeout. Reads keep flowing
		// off the replicas; writers get a typed, retryable 503.
		if rt.monitor != nil && !rt.monitor.Available(targets[0]) {
			rt.noPrimary.Add(1)
			writeRouterError(w, http.StatusServiceUnavailable, "no primary available (election pending or fleet headless)", CodeNoPrimary, 1)
			return
		}
		stampEpoch = v.epoch
	case "session":
		rt.sessions.Add(1)
	default:
		rt.passthrough.Add(1)
	}
	// Buffer the body so a failed upstream attempt can be replayed.
	var body []byte
	if r.Body != nil {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, rt.opt.MaxBodyBytes+1))
		r.Body.Close()
		if err != nil {
			writeRouterError(w, http.StatusBadRequest, "read request body: "+err.Error(), "invalid_request", 0)
			return
		}
		if int64(len(body)) > rt.opt.MaxBodyBytes {
			writeRouterError(w, http.StatusRequestEntityTooLarge, "request body exceeds router buffer", "invalid_request", 0)
			return
		}
	}
	for i, target := range targets {
		resp, err := rt.forward(r, target, body, stampEpoch)
		node := rt.nodeCounter(target)
		node.requests.Add(1)
		if err != nil {
			node.errors.Add(1)
			rt.errors.Add(1)
			if i < len(targets)-1 {
				rt.failovers.Add(1)
				rt.opt.Logf("router: %s %s: %s unreachable (%v); failing over", r.Method, r.URL.Path, target, err)
				continue
			}
			writeRouterError(w, http.StatusBadGateway, "no upstream reachable", "bad_gateway", 0)
			return
		}
		if shouldFailover(resp.StatusCode) && i < len(targets)-1 {
			drain(resp)
			rt.failovers.Add(1)
			continue
		}
		rt.relay(w, resp, target)
		return
	}
	writeRouterError(w, http.StatusBadGateway, "no upstream configured", "bad_gateway", 0)
}

func (rt *Router) forward(r *http.Request, target string, body []byte, stampEpoch uint64) (*http.Response, error) {
	u := target + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range r.Header {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade", "Host":
			continue
		}
		req.Header[k] = vs
	}
	if stampEpoch > 0 {
		// The split-brain guard: a write stamped with the fleet epoch is
		// refused (409 epoch_fenced) by any node whose own epoch differs,
		// so a stale primary can never acknowledge a routed write.
		req.Header.Set(HeaderFleetEpoch, fmt.Sprintf("%d", stampEpoch))
	}
	return rt.opt.Client.Do(req)
}

func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, target string) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	h.Set(HeaderServedBy, target)
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The upstream died mid-body (or the client went away). The status
		// line is already out, so the copy error cannot become an error
		// response; swallowing it would hand the client a truncated body
		// under a clean 200. Abort the connection instead — the client sees
		// a torn response it knows to distrust.
		rt.relayAborts.Add(1)
		rt.opt.Logf("router: relay from %s aborted mid-body: %v", target, err)
		panic(http.ErrAbortHandler)
	}
}

func writeRouterError(w http.ResponseWriter, status int, msg, code string, retryAfterSec int) {
	w.Header().Set("Content-Type", "application/json")
	if retryAfterSec > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSec))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

// nodeCounter returns the per-node counter slot for a target URL, creating
// it on first sight (topology is mutable now; counters survive role swaps).
func (rt *Router) nodeCounter(target string) *nodeCounters {
	rt.nodeMu.Lock()
	defer rt.nodeMu.Unlock()
	nc := rt.perNode[target]
	if nc == nil {
		nc = &nodeCounters{}
		rt.perNode[target] = nc
	}
	return nc
}

// handleHealth identifies the router itself on the same endpoint every node
// serves, so fleet tooling can probe a router URL without special-casing it.
// (A health probe against a *routed* path would be proxied to the primary.)
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	v := rt.view.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(HealthStatus{
		Role:       "router",
		FleetEpoch: v.epoch,
		Primary:    v.primary,
		UptimeSec:  int64(time.Since(rt.started).Seconds()),
		Promotions: uint64(rt.promotions.Load()),
		Demotions:  uint64(rt.demotions.Load()),
	})
}

// RouterStats is the router's /api/stats payload.
type RouterStats struct {
	Role       string   `json:"role"`
	Primary    string   `json:"primary"`
	Replicas   []string `json:"replicas"`
	FleetEpoch uint64   `json:"fleetEpoch,omitempty"`
	Reads      int64    `json:"reads"`
	Writes     int64    `json:"writes"`
	Sessions   int64    `json:"sessions"` // session-scoped requests pinned to the home node
	Proxied    int64    `json:"proxied"`
	Failovers  int64    `json:"failovers"`
	// RelayAborts counts responses killed mid-body because the upstream died
	// while the router was relaying — torn connections, never silent
	// truncated 200s.
	RelayAborts int64 `json:"relayAborts"`
	Errors      int64 `json:"errors"`
	// NoPrimary counts writes refused with 503 no_primary during election
	// windows; Promotions/Demotions/Retargeted count supervision actions.
	NoPrimary  int64                `json:"noPrimary,omitempty"`
	Promotions int64                `json:"promotions,omitempty"`
	Demotions  int64                `json:"demotions,omitempty"`
	Retargeted int64                `json:"retargeted,omitempty"`
	PerNode    map[string]NodeStats `json:"perNode"`
	Monitor    *MonitorStats        `json:"monitor,omitempty"`
}

// NodeStats is one upstream's share of router traffic.
type NodeStats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
}

// Stats snapshots routing counters.
func (rt *Router) Stats() RouterStats {
	v := rt.view.Load()
	s := RouterStats{
		Role:        "router",
		Primary:     v.primary,
		Replicas:    v.replicas,
		FleetEpoch:  v.epoch,
		Reads:       rt.reads.Load(),
		Writes:      rt.writes.Load(),
		Sessions:    rt.sessions.Load(),
		Proxied:     rt.passthrough.Load(),
		Failovers:   rt.failovers.Load(),
		RelayAborts: rt.relayAborts.Load(),
		Errors:      rt.errors.Load(),
		NoPrimary:   rt.noPrimary.Load(),
		Promotions:  rt.promotions.Load(),
		Demotions:   rt.demotions.Load(),
		Retargeted:  rt.retargeted.Load(),
		PerNode:     map[string]NodeStats{},
	}
	rt.nodeMu.Lock()
	for name, nc := range rt.perNode {
		s.PerNode[name] = NodeStats{
			Requests: nc.requests.Load(),
			Errors:   nc.errors.Load(),
		}
	}
	rt.nodeMu.Unlock()
	if rt.monitor != nil {
		ms := rt.monitor.Stats()
		s.Monitor = &ms
	}
	return s
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.Stats())
}
