package server

// Fleet control: the node-side half of the self-healing protocol (the
// router-side half lives in repl.Router). Every node serves GET
// /api/v1/health; a node with fleet control enabled additionally accepts the
// role-transition verbs the router's supervision loop issues —
//
//	POST /api/v1/promote  {epoch, peers}    replica → primary
//	POST /api/v1/demote   {epoch, primary}  stale primary → replica
//	POST /api/v1/retarget {epoch, primary}  replica → replica of a new primary
//
// — each fenced by the fleet epoch: a transition not strictly advancing the
// node's own epoch is refused with 409 epoch_fenced, which makes every verb
// idempotent and makes a partitioned router harmless (its stale epoch can
// demote nobody). The same epoch fences data: writes the router forwards are
// stamped with X-CExplorer-Fleet-Epoch; writeGate refuses a mismatch, and a
// write's commit point refuses it once the node is demoted, both before
// anything is applied — so a stale primary never acknowledges a routed write.
//
// The node's role (name, epoch, feed, tailer) is one immutable nodeRole
// value that only transition replaces, which gives three guarantees:
//
//   - Transitions are serialized. Each runs from its epoch check to its
//     store under one mutex, side effects included, so two verbs racing
//     each other leave the node as if they had arrived one after the other:
//     at most one tailer runs, and a feed exists only on a primary.
//   - The epoch never decreases. Every transition computes the new epoch
//     from the value it replaces, so a 200 at epoch E means the node stays
//     at E or above.
//   - Shutdown is final. It stops the tailer and drains the feed as the last
//     transition; every verb after it answers 503 unavailable and changes
//     nothing.

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/repl"
)

// FleetControl wires the role transitions a self-healing fleet needs into
// the server. The tailer comes from a factory rather than from the server
// itself so that the caller decides how it runs: cmd/cexplorer builds a
// repl.Replica with its flags, the bench harness keeps a handle on it, and
// tests substitute a fake.
type FleetControl struct {
	// StartTailer builds and starts a tailer against primaryURL, returning
	// the replica source backing reads and a stop function that cancels
	// the tailing goroutine. Called on demotion (and by StartFleetReplica
	// at boot).
	StartTailer func(primaryURL string) (ReplicaSource, func())
	// Feed configures the journal feed a promotion opens.
	Feed repl.FeedOptions
	// ReplicaWait bounds read-your-writes gate waits after a demotion
	// (default 2s).
	ReplicaWait time.Duration
}

// nodeRole is the node's replication role as one immutable value: readers
// take it with a single Load and see a name, epoch, feed and tailer that
// belong together.
type nodeRole struct {
	name  string        // "" (standalone), "primary" or "replica"
	epoch uint64        // fleet epoch a stamped write must match (0 = never fenced)
	feed  *repl.Feed    // primary: publishes and ships the journal
	src   ReplicaSource // replica: the tailer backing reads
	wait  time.Duration // replica: read-your-writes gate budget
	stop  func()        // replica: cancels the running tailer
}

// at returns r advanced to epoch e; a lower e leaves the epoch where it is.
func (r *nodeRole) at(e uint64) *nodeRole {
	next := *r
	next.epoch = max(r.epoch, e)
	return &next
}

// replicaRole is the role of a node tailing src at epoch.
func replicaRole(epoch uint64, src ReplicaSource, stop func(), wait time.Duration) *nodeRole {
	if wait <= 0 {
		wait = 2 * time.Second
	}
	return &nodeRole{name: "replica", epoch: epoch, src: src, wait: wait, stop: stop}
}

// refusal is a step's answer when it leaves the role as it was.
type refusal struct {
	status int
	code   string
	msg    string
}

var (
	errFleetDisabled = &refusal{http.StatusForbidden, "fleet_disabled", "fleet control not enabled on this node"}
	errShutdown      = &refusal{http.StatusServiceUnavailable, "unavailable", "node is shutting down"}
)

func fenced(format string, args ...any) *refusal {
	return &refusal{http.StatusConflict, repl.CodeEpochFenced, fmt.Sprintf(format, args...)}
}

// transition is the only writer of the node's role. step runs under
// transMu with the current role and the fleet hooks, performs the side
// effects the change needs (tailer start and stop, feed drain), and returns
// the next role, which is stored before the lock is released. A refusal
// leaves the role as it was. Transitions are rare, so holding the lock
// across the step — promotion's peer probes included — is what serializes
// them. After Shutdown every transition is refused with 503 unavailable.
func (s *Server) transition(step func(cur *nodeRole, fc *FleetControl) (*nodeRole, *refusal)) (*nodeRole, *refusal) {
	s.transMu.Lock()
	defer s.transMu.Unlock()
	cur := s.role.Load()
	if s.closed {
		return cur, errShutdown
	}
	next, ref := step(cur, s.fleet)
	if ref != nil {
		return cur, ref
	}
	s.role.Store(next)
	return next, nil
}

// verb runs a fleet verb's transition and answers with the node's health
// under the new role, or with the refusal (a 503 carries Retry-After).
func (s *Server) verb(w http.ResponseWriter, step func(cur *nodeRole, fc *FleetControl) (*nodeRole, *refusal)) {
	rs, ref := s.transition(step)
	if ref != nil {
		writeEnvelope(w, ref.status, ref.msg, ref.code)
		return
	}
	writeJSON(w, s.healthStatus(rs))
}

// EnableFleet arms the role-transition endpoints. Call before Handler, on
// every node that may be promoted or demoted.
func (s *Server) EnableFleet(fc FleetControl) {
	s.transMu.Lock()
	s.fleet = &fc
	s.transMu.Unlock()
}

// StartFleetReplica boots the node as a fleet replica: the fleet's tailer
// factory builds the tailer and the server registers it. EnableFleet first.
func (s *Server) StartFleetReplica(primaryURL string) {
	s.transition(func(cur *nodeRole, fc *FleetControl) (*nodeRole, *refusal) {
		src, stop := fc.StartTailer(primaryURL)
		return replicaRole(cur.epoch, src, stop, fc.ReplicaWait), nil
	})
}

// FleetEpoch reports the node's promotion counter (0 = never fenced).
func (s *Server) FleetEpoch() uint64 { return s.role.Load().epoch }

// writeGate admits a write. A request stamped with a fleet epoch (the
// router stamps every routed write) is refused with 409 epoch_fenced unless
// it matches the node's own epoch — the split-brain guard; unstamped
// requests pass, as does everything on a node that has no epoch yet. A
// replica then refuses every write with 403 read_only. It reports false
// when it answered the request; an admitted write meets the role again at
// its commit point (see commit).
func (s *Server) writeGate(w http.ResponseWriter, r *http.Request) bool {
	rs := s.role.Load()
	if hdr := r.Header.Get(repl.HeaderFleetEpoch); hdr != "" {
		stamped, err := strconv.ParseUint(hdr, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad %s header: %v", repl.HeaderFleetEpoch, err)
			return false
		}
		if rs.epoch != 0 && stamped != rs.epoch {
			writeEnvelope(w, http.StatusConflict,
				"write stamped with fleet epoch "+hdr+" but node is at "+strconv.FormatUint(rs.epoch, 10)+
					": topology changed, retry through the router", repl.CodeEpochFenced)
			return false
		}
	}
	if rs.src != nil {
		writeEnvelope(w, http.StatusForbidden,
			"replica is read-only: send writes to the primary (or through the router)", repl.CodeReadOnly)
		return false
	}
	return true
}

// position is one dataset's replication position under rs: the single
// source of the per-dataset blocks in the health payload and the dataset
// resources. AppliedSeq is the dataset version unless a tailer reports its
// own position; a primary adds its shipping epoch and buffer base.
func (rs *nodeRole) position(name string, ds *api.Dataset) datasetRepl {
	p := datasetRepl{Role: rs.name, AppliedSeq: ds.Version}
	switch {
	case rs.src != nil:
		st, ok := rs.src.Status(name)
		if !ok {
			p.Phase = "unclaimed"
			return p
		}
		p.Epoch, p.AppliedSeq, p.HeadSeq, p.Phase = st.Epoch, st.AppliedSeq, st.HeadSeq, st.Phase
		if st.HeadSeq > st.AppliedSeq {
			p.ReplicaLag = st.HeadSeq - st.AppliedSeq
		}
	case rs.feed != nil:
		// Epoch seeds the shipping state at the current version, so a
		// dataset that was never written to still reports its epoch.
		if e, ok := rs.feed.Epoch(name); ok {
			p.Epoch = e
			st, _ := rs.feed.Status(name)
			p.BaseSeq = st.Base
		}
	}
	return p
}

// healthStatus builds the node's health payload under rs.
func (s *Server) healthStatus(rs *nodeRole) repl.HealthStatus {
	h := repl.HealthStatus{
		Role:       rs.name,
		FleetEpoch: rs.epoch,
		UptimeSec:  int64(time.Since(s.started).Seconds()),
		Datasets:   map[string]repl.DatasetHealth{},
		Promotions: uint64(s.stats.promotions.Load()),
		Demotions:  uint64(s.stats.demotions.Load()),
	}
	if h.Role == "" {
		h.Role = "standalone"
	}
	if rs.src != nil {
		h.Primary = rs.src.Primary()
	}
	for _, name := range s.exp.Datasets() {
		if ds, ok := s.exp.Dataset(name); ok {
			p := rs.position(name, ds)
			h.Datasets[name] = repl.DatasetHealth{
				Epoch:      p.Epoch,
				AppliedSeq: p.AppliedSeq,
				HeadSeq:    p.AppliedSeq + p.ReplicaLag,
				Phase:      p.Phase,
			}
		}
	}
	return h
}

// appliedTotal sums dataset versions: the node's position in the election
// order. Versions are journal sequences, so this is comparable across nodes
// tailing the same lineage.
func (s *Server) appliedTotal() uint64 {
	var total uint64
	for _, name := range s.exp.Datasets() {
		if ds, ok := s.exp.Dataset(name); ok {
			total += ds.Version
		}
	}
	return total
}

// v1Health serves GET /api/v1/health: role, fleet epoch, per-dataset applied
// position, uptime. Cheap by design — the router probes it every second.
func (s *Server) v1Health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.healthStatus(s.role.Load()))
}

// v1Promote serves POST /api/v1/promote: flip this replica to primary at the
// given fleet epoch. The candidate re-verifies the router's choice — it must
// be at least as caught up as every reachable peer — so an election based on
// stale health data cannot promote a lagging node past a fresher one.
func (s *Server) v1Promote(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch uint64   `json:"epoch"`
		Peers []string `json:"peers"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Epoch == 0 {
		httpError(w, http.StatusBadRequest, "epoch must be positive")
		return
	}
	s.verb(w, func(cur *nodeRole, fc *FleetControl) (*nodeRole, *refusal) {
		if fc == nil {
			return nil, errFleetDisabled
		}
		if cur.name == "primary" {
			if req.Epoch < cur.epoch {
				return nil, fenced("already primary at higher fleet epoch %d", cur.epoch)
			}
			// Idempotent retry (or an epoch refresh): already primary.
			return cur.at(req.Epoch), nil
		}
		if req.Epoch <= cur.epoch {
			return nil, fenced("promotion epoch %d not above own %d", req.Epoch, cur.epoch)
		}
		// Catch-up verification: every reachable peer must be at or behind
		// us. Unreachable peers are skipped — they are the nodes the fleet
		// is healing around, and blocking the election on them would
		// deadlock it.
		local := s.appliedTotal()
		for _, peer := range req.Peers {
			ctx, cancel := context.WithTimeout(r.Context(), time.Second)
			ph, err := repl.FetchHealth(ctx, nil, peer)
			cancel()
			if err != nil {
				s.logf("fleet: promote: peer %s unreachable (%v); skipping", peer, err)
				continue
			}
			if pa := ph.AppliedTotal(); pa > local {
				return nil, &refusal{http.StatusConflict, repl.CodeNotCaughtUp,
					fmt.Sprintf("peer %s has applied %d > own %d", peer, pa, local)}
			}
		}
		// Stop tailing first — from here no record of the old lineage is
		// applied. Writes stay refused until the new role, feed included,
		// is stored.
		if cur.stop != nil {
			cur.stop()
		}
		s.stats.promotions.Add(1)
		s.logf("fleet: promoted to primary at fleet epoch %d (applied %d)", req.Epoch, local)
		return &nodeRole{name: "primary", epoch: req.Epoch, feed: s.openFeed(fc.Feed)}, nil
	})
}

// v1Demote serves POST /api/v1/demote: fence this (stale) primary and turn
// it into a replica of the given primary. Only an epoch strictly above the
// node's own can demote it — the guarantee that the current primary can
// never be clobbered by a partitioned router replaying old state.
func (s *Server) v1Demote(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch   uint64 `json:"epoch"`
		Primary string `json:"primary"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Primary == "" {
		httpError(w, http.StatusBadRequest, "missing primary")
		return
	}
	s.verb(w, func(cur *nodeRole, fc *FleetControl) (*nodeRole, *refusal) {
		if fc == nil {
			return nil, errFleetDisabled
		}
		if cur.name == "replica" && req.Epoch >= cur.epoch {
			// Idempotent retry: already demoted. Re-point the tailer if needed.
			if cur.src.Primary() != req.Primary {
				cur.src.Retarget(req.Primary)
			}
			return cur.at(req.Epoch), nil
		}
		if req.Epoch <= cur.epoch {
			return nil, fenced("demotion epoch %d not above own %d", req.Epoch, cur.epoch)
		}
		// Fence the old lineage: the drained feed refuses every later write
		// and releases parked pollers. Then tail the new primary.
		if cur.feed != nil {
			cur.feed.Drain()
		}
		if cur.stop != nil {
			cur.stop()
		}
		src, stop := fc.StartTailer(req.Primary)
		s.stats.demotions.Add(1)
		s.logf("fleet: demoted to replica of %s at fleet epoch %d", req.Primary, req.Epoch)
		return replicaRole(req.Epoch, src, stop, fc.ReplicaWait), nil
	})
}

// v1Retarget serves POST /api/v1/retarget: point this replica's tailer at a
// new primary (after a promotion elsewhere). Requires epoch ≥ own; the node
// adopts a higher epoch.
func (s *Server) v1Retarget(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch   uint64 `json:"epoch"`
		Primary string `json:"primary"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Primary == "" {
		httpError(w, http.StatusBadRequest, "missing primary")
		return
	}
	s.verb(w, func(cur *nodeRole, _ *FleetControl) (*nodeRole, *refusal) {
		if cur.src == nil {
			return nil, &refusal{http.StatusConflict, "invalid_role", "node is not a replica"}
		}
		if req.Epoch < cur.epoch {
			return nil, fenced("retarget epoch %d below own %d", req.Epoch, cur.epoch)
		}
		cur.src.Retarget(req.Primary)
		return cur.at(req.Epoch), nil
	})
}
