package repl

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeNode is a scripted fleet member for router tests. It serves the
// health payload the test sets, applies promote, demote and retarget with
// the node-side epoch rules (a verb that does not advance the node's epoch
// is refused 409), and answers routed writes 200 as primary and 403
// read_only otherwise. It records every verb and write it receives.
type fakeNode struct {
	url string
	// dropPromote makes a promotion apply and then drop the connection, so
	// the caller never learns that it succeeded.
	dropPromote atomic.Bool

	mu  sync.Mutex
	log fakeLog
}

// fakeLog is a fake's current health payload and everything it has
// received, in arrival order.
type fakeLog struct {
	health    HealthStatus
	promotes  []uint64 // epochs of promote calls
	demotes   []string // primaries named by applied demotions
	retargets []string // primaries named by applied retargets
	stamps    []uint64 // fleet-epoch stamps of accepted writes
}

// newFakeNode starts a fake serving h until the test ends.
func newFakeNode(t *testing.T, h HealthStatus) *fakeNode {
	t.Helper()
	n := &fakeNode{log: fakeLog{health: h}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/health", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		h := n.log.health
		n.mu.Unlock()
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("POST /api/v1/promote", func(w http.ResponseWriter, r *http.Request) {
		var req promoteRequest
		json.NewDecoder(r.Body).Decode(&req)
		n.mu.Lock()
		n.log.promotes = append(n.log.promotes, req.Epoch)
		ok := req.Epoch > n.log.health.FleetEpoch
		if ok {
			n.log.health.Role, n.log.health.Primary, n.log.health.FleetEpoch = "primary", "", req.Epoch
		}
		n.mu.Unlock()
		switch {
		case !ok:
			w.WriteHeader(http.StatusConflict)
		case n.dropPromote.Load():
			panic(http.ErrAbortHandler)
		}
	})
	mux.HandleFunc("POST /api/v1/demote", func(w http.ResponseWriter, r *http.Request) {
		var req demoteRequest
		json.NewDecoder(r.Body).Decode(&req)
		n.mu.Lock()
		defer n.mu.Unlock()
		if req.Epoch <= n.log.health.FleetEpoch {
			w.WriteHeader(http.StatusConflict)
			return
		}
		n.log.demotes = append(n.log.demotes, req.Primary)
		n.log.health.Role, n.log.health.Primary, n.log.health.FleetEpoch = "replica", req.Primary, req.Epoch
	})
	mux.HandleFunc("POST /api/v1/retarget", func(w http.ResponseWriter, r *http.Request) {
		var req retargetRequest
		json.NewDecoder(r.Body).Decode(&req)
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.log.health.Role != "replica" || req.Epoch < n.log.health.FleetEpoch {
			w.WriteHeader(http.StatusConflict)
			return
		}
		n.log.retargets = append(n.log.retargets, req.Primary)
		n.log.health.Primary, n.log.health.FleetEpoch = req.Primary, req.Epoch
	})
	mux.HandleFunc("POST /api/v1/datasets/{name}/mutations", func(w http.ResponseWriter, r *http.Request) {
		var stamp uint64
		json.Unmarshal([]byte(r.Header.Get(HeaderFleetEpoch)), &stamp)
		n.mu.Lock()
		defer n.mu.Unlock()
		switch {
		case n.log.health.Role != "primary":
			w.WriteHeader(http.StatusForbidden)
		case n.log.health.FleetEpoch != 0 && stamp != n.log.health.FleetEpoch:
			w.WriteHeader(http.StatusConflict)
		default:
			n.log.stamps = append(n.log.stamps, stamp)
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	n.url = ts.URL
	return n
}

// seen returns the fake's log so far. Later calls only append past the
// returned slices' lengths, so the copy stays valid.
func (n *fakeNode) seen() fakeLog {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.log
}

// reset forgets everything the fake has received and serves h from now on.
func (n *fakeNode) reset(h HealthStatus) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.log = fakeLog{health: h}
}

// newFakeRouter builds a supervising router over the fakes. It never Runs:
// tests drive rt.step themselves.
func newFakeRouter(t *testing.T, primary string, replicas []string, failThreshold int) *Router {
	rt := NewRouter(primary, replicas, RouterOptions{Logf: t.Logf})
	rt.EnableSelfHealing(SelfHealOptions{
		Monitor: MonitorOptions{FailThreshold: failThreshold},
		Promote: true,
	})
	return rt
}

// postWrite sends one mutation through the router's handler and returns
// the status.
func postWrite(rt *Router) int {
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/datasets/d/mutations", nil))
	return rec.Code
}
