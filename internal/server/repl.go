package server

// Replication wiring (see internal/repl): a primary publishes each write to
// a repl.Feed before applying it and serves two shipping endpoints —
//
//	GET /api/v1/datasets/{name}/journal?fromSeq=N&epoch=E[&wait=20s][&maxRecords=512]
//	GET /api/v1/datasets/{name}/snapshot
//
// — while a replica applies the tailed records through Explorer.Mutate and
// guards reads with the X-CExplorer-Min-Version gate. Both roles surface
// their counters in /api/stats and their per-dataset positions in the
// dataset resources.

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"cexplorer/internal/repl"
)

// maxShipWait caps a journal long-poll; it must stay under ListenAndServe's
// 60s WriteTimeout or parked polls would be killed mid-response.
const maxShipWait = 30 * time.Second

// defaultShipRecords bounds one shipping response when the client does not
// say; maxShipRecords bounds what it may ask for.
const (
	defaultShipRecords = 512
	maxShipRecords     = 4096
)

// ReplicaSource is what a replica-role server needs from its tailer (the
// concrete type is *repl.Replica; the seam keeps tests light).
type ReplicaSource interface {
	WaitVersion(ctx context.Context, dataset string, version uint64) error
	Status(dataset string) (repl.DatasetStatus, bool)
	Stats() repl.ReplicaStats
	Primary() string
	// Retarget re-points the tailer at a new primary (the promotion
	// protocol's re-target step); tailers re-bootstrap from it.
	Retarget(primaryURL string)
}

// EnableReplicationPrimary makes this server a replication primary: every
// mutation batch (direct, batched, or journal-replayed) is published into
// the returned feed at its commit point, before it is applied, and a batch
// the feed refuses is not applied at all. Call before Handler.
func (s *Server) EnableReplicationPrimary(opt repl.FeedOptions) *repl.Feed {
	rs, _ := s.transition(func(cur *nodeRole, _ *FleetControl) (*nodeRole, *refusal) {
		// A primary is fleet epoch 1 by definition; promotions go up from
		// here.
		return &nodeRole{name: "primary", epoch: max(cur.epoch, 1), feed: s.openFeed(opt)}, nil
	})
	return rs.feed
}

// openFeed builds a journal feed over the explorer's datasets. Writes reach
// it through their commit point (see commit), never through the Explorer.
func (s *Server) openFeed(opt repl.FeedOptions) *repl.Feed {
	return repl.NewFeed(func(name string) (uint64, bool) {
		ds, ok := s.exp.Dataset(name)
		if !ok {
			return 0, false
		}
		return ds.Version, true
	}, opt)
}

// EnableReplicationReplica makes this server a read-only replica: mutations
// and uploads answer 403 read_only, and dataset reads carrying
// X-CExplorer-Min-Version wait up to maxWait for the tailer to catch up
// before answering 503 replica_lagging. Call before Handler; run the
// tailer (repl.Replica.Run) separately.
func (s *Server) EnableReplicationReplica(src ReplicaSource, maxWait time.Duration) {
	s.transition(func(cur *nodeRole, _ *FleetControl) (*nodeRole, *refusal) {
		return replicaRole(cur.epoch, src, nil, maxWait), nil
	})
}

// Role reports the replication role: "" (standalone), "primary", or
// "replica".
func (s *Server) Role() string { return s.role.Load().name }

// registerRepl adds the replication and fleet routes to the v1 tree. The
// shipping endpoints register unconditionally — roles change at runtime now
// (promotion, demotion), so a node without a feed answers 503 no_primary
// (retryable: a tailing replica backs off and retries, and succeeds once
// this node is promoted) rather than being a route-table hole.
func (s *Server) registerRepl(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/v1/datasets/{name}/journal", s.v1JournalShip)
	mux.HandleFunc("GET /api/v1/datasets/{name}/snapshot", s.v1SnapshotShip)
	mux.HandleFunc("GET /api/v1/health", s.v1Health)
	mux.HandleFunc("POST /api/v1/promote", s.v1Promote)
	mux.HandleFunc("POST /api/v1/demote", s.v1Demote)
	mux.HandleFunc("POST /api/v1/retarget", s.v1Retarget)
}

// requireFeed answers 503 no_primary when this node hosts no feed (it is a
// replica or was demoted); true when the request may proceed.
func (s *Server) requireFeed(w http.ResponseWriter) (*repl.Feed, bool) {
	feed := s.role.Load().feed
	if feed == nil {
		writeEnvelope(w, http.StatusServiceUnavailable,
			"this node hosts no journal feed (not a primary)", repl.CodeNoPrimary)
		return nil, false
	}
	return feed, true
}

// minVersionGate is the replica's read-your-writes middleware: a dataset
// read carrying X-CExplorer-Min-Version blocks until the tailer has applied
// that version, else answers 503 replica_lagging (which the router treats
// as "forward to the primary"). Standalone and primary servers serve the
// newest version by construction, so the gate is a no-op there.
func (s *Server) minVersionGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs := s.role.Load()
		hdr := r.Header.Get(repl.HeaderMinVersion)
		if rs.src == nil || hdr == "" {
			next.ServeHTTP(w, r)
			return
		}
		name := repl.DatasetFromPath(r.URL.Path)
		if name == "" {
			next.ServeHTTP(w, r)
			return
		}
		want, err := strconv.ParseUint(hdr, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad %s header: %v", repl.HeaderMinVersion, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), rs.wait)
		err = rs.src.WaitVersion(ctx, name, want)
		cancel()
		if err != nil {
			if st, ok := rs.src.Status(name); ok {
				w.Header().Set(repl.HeaderHeadSeq, strconv.FormatUint(st.AppliedSeq, 10))
			}
			w.Header().Set("Retry-After", "1")
			writeEnvelope(w, http.StatusServiceUnavailable,
				"replica has not applied version "+hdr+" yet", repl.CodeReplicaLagging)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// v1JournalShip serves framed journal records from the feed: the body is a
// concatenation of CXJRNL frames starting at fromSeq, or — when the cursor
// is at the head and wait > 0 — a long-poll that returns as soon as a batch
// is published. A cursor the feed cannot serve contiguously answers 409
// epoch_fenced: throw away the position and re-bootstrap from the snapshot
// endpoint.
func (s *Server) v1JournalShip(w http.ResponseWriter, r *http.Request) {
	feed, ok := s.requireFeed(w)
	if !ok {
		return
	}
	name := r.PathValue("name")
	if _, ok := s.exp.Dataset(name); !ok {
		writeEnvelope(w, http.StatusNotFound, "dataset not found: "+name, "dataset_not_found")
		return
	}
	q := r.URL.Query()
	fromSeq, err := strconv.ParseUint(q.Get("fromSeq"), 10, 64)
	if err != nil || fromSeq == 0 {
		httpError(w, http.StatusBadRequest, "fromSeq must be a positive integer")
		return
	}
	var epoch uint64
	if v := q.Get("epoch"); v != "" {
		if epoch, err = strconv.ParseUint(v, 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad epoch: %v", err)
			return
		}
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		if wait, err = time.ParseDuration(v); err != nil {
			httpError(w, http.StatusBadRequest, "bad wait: %v", err)
			return
		}
		wait = min(wait, maxShipWait)
	}
	maxRecords := defaultShipRecords
	if v := q.Get("maxRecords"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, "bad maxRecords")
			return
		}
		maxRecords = min(n, maxShipRecords)
	}
	res, ok := feed.Ship(r.Context(), name, epoch, fromSeq, maxRecords, 0, wait)
	if !ok {
		writeEnvelope(w, http.StatusNotFound, "dataset not found: "+name, "dataset_not_found")
		return
	}
	h := w.Header()
	h.Set(repl.HeaderEpoch, strconv.FormatUint(res.Epoch, 10))
	h.Set(repl.HeaderBaseSeq, strconv.FormatUint(res.Base, 10))
	h.Set(repl.HeaderHeadSeq, strconv.FormatUint(res.Head, 10))
	if res.Fenced {
		writeEnvelope(w, http.StatusConflict,
			"cursor cannot be served contiguously (epoch or sequence out of window): re-bootstrap from the snapshot endpoint",
			repl.CodeEpochFenced)
		return
	}
	h.Set("Content-Type", repl.ContentTypeJournal)
	var sent int64
	for _, frame := range res.Frames {
		n, err := w.Write(frame)
		sent += int64(n)
		if err != nil {
			break
		}
	}
	s.stats.replShipRequests.Add(1)
	s.stats.replShipBytes.Add(sent)
}

// v1SnapshotShip streams the dataset's resident-index snapshot — the
// replica bootstrap image — stamped with the epoch and Version the stream
// represents. Both are read under the name's writer lock, so an upload or
// delete cannot pair one lineage's bytes with another's epoch.
func (s *Server) v1SnapshotShip(w http.ResponseWriter, r *http.Request) {
	feed, ok := s.requireFeed(w)
	if !ok {
		return
	}
	name := r.PathValue("name")
	wr := s.exp.Lock(name)
	epoch, ok := feed.Epoch(name)
	ds, registered := wr.Dataset()
	wr.Unlock()
	if !ok || !registered {
		writeEnvelope(w, http.StatusNotFound, "dataset not found: "+name, "dataset_not_found")
		return
	}
	unpin, err := ds.Pin()
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer unpin()
	h := w.Header()
	h.Set(repl.HeaderEpoch, strconv.FormatUint(epoch, 10))
	h.Set(repl.HeaderVersion, strconv.FormatUint(ds.Version, 10))
	h.Set("Content-Type", "application/octet-stream")
	n, err := ds.WriteResidentSnapshot(w)
	if err != nil {
		// Headers are gone; all we can do is log and let the replica's
		// decoder reject the truncated stream.
		s.logf("replication: snapshot ship %s: %v", name, err)
	}
	s.stats.replSnapshotShips.Add(1)
	s.stats.replSnapshotBytes.Add(n)
}

// ReplInfo is the replication block of /api/stats.
type ReplInfo struct {
	Role string `json:"role"`
	// FleetEpoch is the promotion counter; Promotions/Demotions count this
	// node's role transitions since boot.
	FleetEpoch uint64 `json:"fleetEpoch,omitempty"`
	Promotions int64  `json:"promotions,omitempty"`
	Demotions  int64  `json:"demotions,omitempty"`
	// Primary-side: the feed counters plus bootstrap-snapshot traffic.
	Feed              *repl.FeedStats `json:"feed,omitempty"`
	ShipRequests      int64           `json:"shipRequests,omitempty"`
	ShipBytes         int64           `json:"shipBytes,omitempty"`
	SnapshotShips     int64           `json:"snapshotShips,omitempty"`
	SnapshotShipBytes int64           `json:"snapshotShipBytes,omitempty"`
	// Replica-side: the tailer counters.
	Replica *repl.ReplicaStats `json:"replica,omitempty"`
}

// replInfo builds the stats block; nil for a standalone server.
func (s *Server) replInfo() *ReplInfo {
	rs := s.role.Load()
	if rs.name == "" {
		return nil
	}
	info := &ReplInfo{
		Role:       rs.name,
		FleetEpoch: rs.epoch,
		Promotions: s.stats.promotions.Load(),
		Demotions:  s.stats.demotions.Load(),
	}
	if rs.feed != nil {
		fs := rs.feed.Stats()
		info.Feed = &fs
		info.ShipRequests = s.stats.replShipRequests.Load()
		info.ShipBytes = s.stats.replShipBytes.Load()
		info.SnapshotShips = s.stats.replSnapshotShips.Load()
		info.SnapshotShipBytes = s.stats.replSnapshotBytes.Load()
	}
	if rs.src != nil {
		st := rs.src.Stats()
		info.Replica = &st
	}
	return info
}

// datasetRepl is the per-dataset replication block of dataset resources.
type datasetRepl struct {
	Role  string `json:"role"`
	Epoch uint64 `json:"epoch,omitempty"`
	// AppliedSeq is the newest sequence (== Version) this node has applied:
	// the head on a primary, the tail position on a replica.
	AppliedSeq uint64 `json:"appliedSeq"`
	// BaseSeq (primary) is the oldest sequence still in the shipping
	// buffer; HeadSeq (replica) the last observed primary head, and
	// ReplicaLag = HeadSeq − AppliedSeq.
	BaseSeq    uint64 `json:"baseSeq,omitempty"`
	HeadSeq    uint64 `json:"headSeq,omitempty"`
	ReplicaLag uint64 `json:"replicaLag"`
	// Phase (replica) is bootstrapping | tailing | degraded, or unclaimed
	// before the tailer has claimed the dataset.
	Phase string `json:"phase,omitempty"`
}
