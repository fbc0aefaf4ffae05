// Package server implements the browser–server model of Figure 3: a JSON
// HTTP API over the api.Explorer engine plus an embedded single-page UI.
// The paper's stack is JSP + Tomcat; here it is net/http.
//
// The stable, versioned surface is the resource-oriented /api/v1 tree (see
// v1.go): datasets are resources, searches and explorations are
// sub-resources, community lists paginate, and errors arrive in one typed
// JSON envelope. The original flat routes remain as thin aliases that
// delegate to the same handler cores:
//
//	POST /api/upload    — upload a graph (JSON wire format)
//	GET  /api/graphs    — list datasets and registered algorithms
//	GET  /api/vertex    — resolve an author name → id, keywords, profile
//	POST /api/search    — run a CS algorithm for a query vertex
//	POST /api/detect    — run a CD algorithm on the whole graph
//	POST /api/analyze   — CPJ/CMF + statistics for a community
//	POST /api/display   — force-directed layout for a community
//	POST /api/compare   — the Figure-6 comparison table in one call
//	GET  /api/stats     — request-level serving statistics
//
// Handlers run concurrently (one goroutine per request, as net/http does);
// search-class work (search, detect, compare, explore) is additionally
// bounded by a worker limit so a burst of heavy queries cannot
// oversubscribe the CPU — excess requests queue for a slot rather than
// piling onto the scheduler. Every search-class request carries a
// context.Context derived from the client connection (plus the optional
// server-wide search timeout): a dropped client or an expired deadline
// cancels the computation inside the algorithm kernels and frees the
// worker slot instead of burning it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/layout"
	"cexplorer/internal/par"
	"cexplorer/internal/repl"
	"cexplorer/internal/servecache"
	"cexplorer/internal/snapshot"
)

// Server wraps the explorer engine with HTTP plumbing.
type Server struct {
	exp *api.Explorer

	mu       sync.RWMutex
	profiles map[string]map[int32]gen.Profile // dataset -> vertex -> profile
	dataDir  string                           // snapshot catalog directory; "" disables persistence
	openMode snapshot.OpenMode                // how LoadSnapshots materializes catalog files

	// journalMu serializes every journal append, reset, and compaction (a
	// compaction persists the dataset it re-fetches under this lock, so a
	// record appended by a concurrent batch can never be deleted before
	// the snapshot that supersedes it exists). journalOps tracks ops
	// journaled per dataset since its last full persist; crossing
	// journalCompactAfter triggers compaction.
	journalMu           sync.Mutex
	journalOps          map[string]int
	journalCompactAfter int

	logf func(format string, args ...any)

	// searchSem bounds the number of searches executing at once; cap is the
	// worker limit. Acquisition queues (fairly, via channel semantics) until
	// a slot frees or the client gives up.
	searchSem chan struct{}

	// searchTimeout, when positive, deadline-bounds every search-class
	// request (queue wait + computation). Atomic so SetSearchTimeout is safe
	// mid-serve.
	searchTimeout atomic.Int64 // nanoseconds

	// batcher, when non-nil, coalesces concurrent mutation submissions into
	// combined Mutate batches (EnableBatcher); its apply seam is
	// applyMutations, so batched and unbatched writes share the same
	// journal-and-count path.
	batcher *api.MutationBatcher

	// Replication wiring (see repl.go): role is "" (standalone),
	// "primary" (replFeed ships the journal), or "replica" (replSrc tails
	// a primary; replicaWait bounds read-your-writes gate waits).
	role        string
	replFeed    *repl.Feed
	replSrc     ReplicaSource
	replicaWait time.Duration

	// Fleet wiring (see health.go): fleetEpoch is the promotion counter a
	// stamped write must match (0 = never fenced); fleet holds the
	// transition hooks EnableFleet installed; tailerStop cancels the
	// running tailer (set on replicas, swapped on demotion).
	fleetEpoch uint64
	fleet      *FleetControl
	tailerStop func()

	// started anchors the health endpoint's uptime; httpSrv is the
	// listener ListenAndServe built, kept so Shutdown can drain it.
	started time.Time
	httpSrv *http.Server

	stats serverStats
}

// serverStats holds request-level counters, all updated atomically so the
// hot path takes no lock.
type serverStats struct {
	requests       atomic.Int64
	errors         atomic.Int64
	searches       atomic.Int64
	searchInFlight atomic.Int64
	searchNanos    atomic.Int64

	// Snapshot catalog counters: cumulative load/persist counts and wall
	// time, so the cold-start trajectory is observable at /api/stats.
	snapshotLoads        atomic.Int64
	snapshotLoadNanos    atomic.Int64
	snapshotLoadErrors   atomic.Int64
	snapshotPersists     atomic.Int64
	snapshotPersistNanos atomic.Int64

	// Early-exit counters for search-class requests.
	canceled atomic.Int64
	timedOut atomic.Int64

	// responseAborts counts responses whose body write failed part-way:
	// the client hung up on a started response.
	responseAborts atomic.Int64

	// Mutation counters: applied batches/ops, rejected requests, and the
	// wall time spent inside Explorer.Mutate.
	mutationBatches atomic.Int64
	mutationOps     atomic.Int64
	mutationErrors  atomic.Int64
	mutationNanos   atomic.Int64

	// Replication shipping counters (primary role): journal ship responses
	// and bytes, bootstrap snapshot streams and bytes.
	replShipRequests  atomic.Int64
	replShipBytes     atomic.Int64
	replSnapshotShips atomic.Int64
	replSnapshotBytes atomic.Int64

	// Fleet role transitions (see health.go).
	promotions atomic.Int64
	demotions  atomic.Int64
}

// StatsSnapshot is the /api/stats payload.
type StatsSnapshot struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Searches int64 `json:"searches"`
	// SearchInFlight counts current worker-slot holders across all
	// search-class endpoints (search, detect, compare).
	SearchInFlight        int64   `json:"searchInFlight"`
	AvgSearchMS           float64 `json:"avgSearchMs"`
	MaxConcurrentSearches int     `json:"maxConcurrentSearches"`

	// Datasets counts currently registered datasets; the snapshot fields
	// accumulate catalog activity since boot (counts and total wall time),
	// making warm-restart performance observable over time.
	Datasets int `json:"datasets"`
	// MmapDatasets counts datasets served zero-copy off a file mapping;
	// MappedBytes totals their live mapping sizes (memory shared with the
	// page cache rather than held on the Go heap).
	MmapDatasets       int     `json:"mmapDatasets"`
	MappedBytes        int64   `json:"mappedBytes"`
	SnapshotLoads      int64   `json:"snapshotLoads"`
	SnapshotLoadMS     float64 `json:"snapshotLoadMs"`
	SnapshotLoadErrors int64   `json:"snapshotLoadErrors,omitempty"`
	SnapshotPersists   int64   `json:"snapshotPersists"`
	SnapshotPersistMS  float64 `json:"snapshotPersistMs"`

	// Mutation counters: applied batches and ops, rejected mutation
	// requests, and the average in-engine apply time.
	MutationBatches int64   `json:"mutationBatches"`
	MutationOps     int64   `json:"mutationOps"`
	MutationErrors  int64   `json:"mutationErrors,omitempty"`
	AvgMutationMS   float64 `json:"avgMutationMs"`

	// Canceled and TimedOut count search-class requests that ended early
	// because the client went away or the search timeout expired — both
	// freed their worker slot at that moment.
	Canceled int64 `json:"canceled"`
	TimedOut int64 `json:"timedOut"`
	// ResponseAborts counts responses cut short because the client hung up
	// while the body was being written; encoding stops at the failed write.
	ResponseAborts int64 `json:"responseAborts"`
	// SearchTimeoutMS echoes the configured search deadline (0 = none).
	SearchTimeoutMS float64 `json:"searchTimeoutMs"`

	// Explore reports the exploration-session manager (the /api/v1
	// explore sub-resources): live sessions, cumulative creations, steps,
	// TTL evictions, and explicit closes.
	Explore api.ExploreStats `json:"explore"`

	// IndexWorkers is the worker-pool size every CPU-bound index
	// construction and the snapshot codec use (the -index.workers flag;
	// default GOMAXPROCS). IndexBuilds accumulates the per-index build wall
	// time paid in this process across all datasets and versions — a
	// monotone counter (mutation successors and deletions never subtract),
	// so the cold-build bill is observable next to the snapshot counters.
	IndexWorkers int              `json:"indexWorkers"`
	IndexBuilds  api.IndexTimings `json:"indexBuilds"`

	// Cache reports the serve-time result cache (hits, misses, coalesced,
	// negativeHits, shedded, occupancy); absent when caching is off.
	Cache *servecache.Stats `json:"cache,omitempty"`
	// Batcher reports the mutation batcher (submissions, batches,
	// opsPerBatch); absent when batching is off.
	Batcher *api.BatcherStats `json:"batcher,omitempty"`
	// Replication reports the replication role and its counters (feed
	// shipping on a primary, tail/apply on a replica); absent standalone.
	Replication *ReplInfo `json:"replication,omitempty"`
}

// New returns a server over the given engine. logf may be nil (silent). The
// search worker limit defaults to 2×GOMAXPROCS; tune it with SetSearchLimit
// before serving.
func New(exp *api.Explorer, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		exp:       exp,
		profiles:  make(map[string]map[int32]gen.Profile),
		logf:      logf,
		searchSem: make(chan struct{}, 2*runtime.GOMAXPROCS(0)),
		started:   time.Now(),
	}
}

// SetOpenMode selects how LoadSnapshots materializes catalog files: auto
// (the default — zero-copy mmap when the file and host are eligible, copy
// otherwise), mmap (require zero-copy, fail ineligible files), or copy
// (always heap-decode, the pre-v3 behavior). Set it before LoadSnapshots;
// already-loaded datasets keep the mode they were opened with.
func (s *Server) SetOpenMode(mode snapshot.OpenMode) {
	s.mu.Lock()
	s.openMode = mode
	s.mu.Unlock()
}

// OpenMode reports the configured catalog open mode (OpenAuto if unset).
func (s *Server) OpenMode() snapshot.OpenMode {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.openMode == "" {
		return snapshot.OpenAuto
	}
	return s.openMode
}

// SetSearchLimit caps concurrent search execution at n workers (n ≥ 1).
// The new limit governs requests that arrive after the call; requests
// already executing or already queued stay on the old semaphore and drain
// under the old limit (so best set it once at startup, as cmd/cexplorer's
// -search.limit does).
func (s *Server) SetSearchLimit(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.searchSem = make(chan struct{}, n)
	s.mu.Unlock()
}

// searchSemaphore reads the current semaphore under the lock so that
// SetSearchLimit is safe even while requests are in flight.
func (s *Server) searchSemaphore() chan struct{} {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.searchSem
}

// EnableCache installs the serve-time result cache: Search/Detect/Analyze
// become version-keyed cache lookups with singleflight coalescing, negative
// caching, and — when shedInflight > 0 — per-dataset admission control that
// sheds excess computations with a 429 instead of queueing them. entries
// and bytes bound the cache (≤ 0 take the servecache defaults). Call before
// serving.
func (s *Server) EnableCache(entries int, bytes int64, shedInflight int) {
	s.exp.SetCache(api.NewServeCache(entries, bytes, shedInflight))
}

// EnableBatcher turns on write-side mutation batching: concurrent
// submissions to one dataset coalesce into a single atomic Mutate batch
// (size and maxWait triggers), amortizing overlay materialization and
// CL-tree repair across callers. Call before serving.
func (s *Server) EnableBatcher(opts api.BatcherOptions) {
	s.mu.Lock()
	s.batcher = api.NewMutationBatcher(opts, s.applyMutations)
	s.mu.Unlock()
}

// mutationBatcher reads the configured batcher (nil = unbatched writes).
func (s *Server) mutationBatcher() *api.MutationBatcher {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.batcher
}

// SetSearchTimeout deadline-bounds every search-class request (search,
// detect, compare, explore): the budget covers both the wait for a worker
// slot and the computation itself, and an expired deadline cancels the
// kernel and answers 504. d ≤ 0 disables the bound (the default).
func (s *Server) SetSearchTimeout(d time.Duration) {
	s.searchTimeout.Store(int64(d))
}

// searchContext derives the context a search-class request runs under:
// the client connection's context, deadline-bounded when a search timeout
// is configured.
func (s *Server) searchContext(r *http.Request) (context.Context, context.CancelFunc) {
	if d := time.Duration(s.searchTimeout.Load()); d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return r.Context(), func() {}
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		Requests:              s.stats.requests.Load(),
		Errors:                s.stats.errors.Load(),
		Searches:              s.stats.searches.Load(),
		SearchInFlight:        s.stats.searchInFlight.Load(),
		MaxConcurrentSearches: cap(s.searchSemaphore()),
		Datasets:              len(s.exp.Datasets()),
		SnapshotLoads:         s.stats.snapshotLoads.Load(),
		SnapshotLoadMS:        float64(s.stats.snapshotLoadNanos.Load()) / 1e6,
		SnapshotLoadErrors:    s.stats.snapshotLoadErrors.Load(),
		SnapshotPersists:      s.stats.snapshotPersists.Load(),
		SnapshotPersistMS:     float64(s.stats.snapshotPersistNanos.Load()) / 1e6,
		Canceled:              s.stats.canceled.Load(),
		TimedOut:              s.stats.timedOut.Load(),
		ResponseAborts:        s.stats.responseAborts.Load(),
		SearchTimeoutMS:       float64(time.Duration(s.searchTimeout.Load())) / float64(time.Millisecond),
		Explore:               s.exp.ExploreStats(),
	}
	for _, name := range s.exp.Datasets() {
		if ds, ok := s.exp.Dataset(name); ok {
			if mb := ds.MappedBytes(); mb > 0 {
				snap.MmapDatasets++
				snap.MappedBytes += mb
			}
		}
	}
	if snap.Searches > 0 {
		snap.AvgSearchMS = float64(s.stats.searchNanos.Load()) / float64(snap.Searches) / 1e6
	}
	snap.IndexWorkers = par.Workers()
	snap.IndexBuilds = api.BuildTotals()
	if c := s.exp.Cache(); c != nil {
		cs := c.Stats()
		snap.Cache = &cs
	}
	if b := s.mutationBatcher(); b != nil {
		bs := b.Stats()
		snap.Batcher = &bs
	}
	snap.MutationBatches = s.stats.mutationBatches.Load()
	snap.MutationOps = s.stats.mutationOps.Load()
	snap.MutationErrors = s.stats.mutationErrors.Load()
	if snap.MutationBatches > 0 {
		snap.AvgMutationMS = float64(s.stats.mutationNanos.Load()) / float64(snap.MutationBatches) / 1e6
	}
	snap.Replication = s.replInfo()
	return snap
}

// Explorer returns the wrapped engine.
func (s *Server) Explorer() *api.Explorer { return s.exp }

// SetProfiles installs the profile store for a dataset (the "renowned
// researchers" records of §4).
func (s *Server) SetProfiles(dataset string, profiles map[int32]gen.Profile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profiles[dataset] = profiles
}

// Handler returns the root http.Handler (API + embedded UI).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.handleIndex)

	// Legacy flat routes: thin aliases over the same handler cores the v1
	// tree uses, kept so pre-v1 clients and the embedded UI work unchanged.
	mux.HandleFunc("POST /api/upload", s.handleUpload)
	mux.HandleFunc("GET /api/graphs", s.handleGraphs)
	mux.HandleFunc("GET /api/vertex", s.handleVertex)
	mux.HandleFunc("POST /api/search", s.handleSearch)
	mux.HandleFunc("POST /api/detect", s.handleDetect)
	mux.HandleFunc("POST /api/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /api/display", s.handleDisplay)
	mux.HandleFunc("POST /api/compare", s.handleCompare)
	mux.HandleFunc("GET /api/stats", s.handleStats)

	// The versioned, resource-oriented surface (see v1.go) and the
	// role-specific replication routes (see repl.go).
	s.registerV1(mux)
	s.registerRepl(mux)
	// The read-your-writes gate wraps the whole tree; it is a no-op on
	// every role but replica.
	return s.logging(s.minVersionGate(mux))
}

// ListenAndServe runs the server until the listener fails or Shutdown
// drains it (a drained shutdown returns nil, not http.ErrServerClosed).
func (s *Server) ListenAndServe(addr string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	s.logf("C-Explorer listening on %s", addr)
	err := srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server gracefully within ctx's deadline: the tailer
// stops first (a replica un-claims its position cleanly instead of dying
// mid-apply), the feed's parked long-polls are released (replicas tailing us
// return within one round trip instead of waiting out their poll), and then
// the HTTP listener stops accepting and waits for in-flight requests.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	stop := s.tailerStop
	s.tailerStop = nil
	feed := s.replFeed
	srv := s.httpSrv
	s.mu.Unlock()
	if stop != nil {
		stop()
	}
	if feed != nil {
		feed.Drain()
	}
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

func (s *Server) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.stats.requests.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				s.logf("panic serving %s %s: %v", r.Method, r.URL.Path, rec)
				s.stats.errors.Add(1)
				httpError(sw, http.StatusInternalServerError, "internal error")
				return
			}
			if sw.status >= 400 {
				s.stats.errors.Add(1)
			}
			if sw.aborted {
				s.stats.responseAborts.Add(1)
			}
		}()
		next.ServeHTTP(sw, r)
		s.logf("%s %s %d %s", r.Method, r.URL.Path, sw.status, time.Since(start))
	})
}

// statusWriter records the response code, and whether a body write failed,
// for the stats counters.
type statusWriter struct {
	http.ResponseWriter
	status  int
	aborted bool
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	if err != nil {
		w.aborted = true
	}
	return n, err
}

// acquireSearchSlot blocks until a search worker slot is free or ctx is
// done (client gone, or past the search deadline while still queued); the
// returned release must be called when the work is done. It covers every
// search-class endpoint (search, detect, compare, explore), so a burst of
// heavy queries of any flavor is bounded by the same worker limit. On
// failure it returns the typed error for the envelope (ErrTimeout or
// ErrCanceled).
func (s *Server) acquireSearchSlot(ctx context.Context) (release func(), err error) {
	sem := s.searchSemaphore()
	select {
	case sem <- struct{}{}:
		// When a slot and the cancellation are both ready, select may pick
		// the slot: recheck so a disconnected client queued behind a slow
		// search does not burn a worker on a response nobody reads.
		if ctx.Err() != nil {
			<-sem
			return nil, slotErr(ctx)
		}
		// The in-flight gauge counts slot holders — search, detect, and
		// compare alike — so /api/stats reflects true worker saturation.
		s.stats.searchInFlight.Add(1)
		return func() {
			s.stats.searchInFlight.Add(-1)
			<-sem
		}, nil
	case <-ctx.Done():
		return nil, slotErr(ctx)
	}
}

func slotErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w: while queued for a search slot", api.ErrTimeout)
	}
	return fmt.Errorf("%w: while queued for a search slot", api.ErrCanceled)
}

// writeError renders the shared error envelope (see http.go) for a typed
// error. Cancellations and timeouts also bump their stats counters here,
// the one funnel every search-class failure passes through.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, api.ErrCanceled):
		s.stats.canceled.Add(1)
	case errors.Is(err, api.ErrTimeout):
		s.stats.timedOut.Add(1)
	}
	writeEnvelope(w, errStatus(err), err.Error(), api.ErrorCode(err))
}

// --- request/response DTOs ---

type uploadRequest struct {
	Name  string          `json:"name"`
	Graph json.RawMessage `json:"graph"`
}

type searchRequest struct {
	Dataset   string   `json:"dataset"` // legacy routes only; v1 takes it from the path
	Algorithm string   `json:"algorithm"`
	Names     []string `json:"names,omitempty"` // author names (resolved server-side)
	Vertices  []int32  `json:"vertices,omitempty"`
	K         int      `json:"k"`
	Keywords  []string `json:"keywords,omitempty"`
	// Params carries algorithm-specific knobs (api.Query.Params): budget,
	// variant, maxResults. Unknown keys are rejected with invalid_query.
	Params map[string]string `json:"params,omitempty"`
	// Layout=true attaches a Placement per community.
	Layout bool `json:"layout,omitempty"`
	// Limit/Offset paginate the community list (v1 routes only).
	Limit  int `json:"limit,omitempty"`
	Offset int `json:"offset,omitempty"`
}

type detectRequest struct {
	Dataset   string `json:"dataset"` // legacy routes only; v1 takes it from the path
	Algorithm string `json:"algorithm"`
	// MinSize filters out tiny detected communities from the response.
	MinSize int `json:"minSize,omitempty"`
	// Limit caps the number of returned communities (largest first). On the
	// v1 route it is the page size, combined with Offset.
	Limit int `json:"limit,omitempty"`
	// Offset is the v1 pagination offset into the largest-first order.
	Offset int `json:"offset,omitempty"`
}

type analyzeRequest struct {
	Dataset  string  `json:"dataset"`
	Vertices []int32 `json:"vertices"`
	Query    int32   `json:"query"`
	Method   string  `json:"method,omitempty"`
}

type displayRequest struct {
	Dataset  string  `json:"dataset"`
	Vertices []int32 `json:"vertices"`
	Width    float64 `json:"width,omitempty"`
	Height   float64 `json:"height,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

type compareRequest struct {
	Dataset    string   `json:"dataset"`
	Name       string   `json:"name,omitempty"`
	Vertex     int32    `json:"vertex,omitempty"`
	K          int      `json:"k"`
	Algorithms []string `json:"algorithms,omitempty"` // default: all CS + CODICIL
}

type compareRow struct {
	Method      string  `json:"method"`
	Communities int     `json:"communities"`
	AvgVertices float64 `json:"avgVertices"`
	AvgEdges    float64 `json:"avgEdges"`
	AvgDegree   float64 `json:"avgDegree"`
	CPJ         float64 `json:"cpj"`
	CMF         float64 `json:"cmf"`
	ElapsedMS   float64 `json:"elapsedMs"`
	Error       string  `json:"error,omitempty"`
}

// --- handlers ---

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if s.fleetFence(w, r) || s.rejectReadOnly(w) {
		return
	}
	var req uploadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	if req.Name == "" {
		httpError(w, http.StatusBadRequest, "missing dataset name")
		return
	}
	ds, err := s.exp.Upload(req.Name, bytesReader(req.Graph))
	if err != nil {
		httpError(w, http.StatusBadRequest, "upload: %v", err)
		return
	}
	if f := s.feed(); f != nil {
		// A re-upload replaces the lineage wholesale: fence every shipping
		// cursor so replicas re-bootstrap instead of applying the new
		// lineage's records onto the old graph.
		f.Reset(ds.Name)
	}
	st := ds.Graph.ComputeStats()
	resp := map[string]any{"name": ds.Name, "stats": st}
	// With a catalog configured, the upload persists before the response:
	// a 200 with persistedBytes means the dataset survives a restart. The
	// persist builds all indexes, so it also warms the dataset for queries.
	if s.DataDir() != "" {
		start := time.Now()
		n, perr := s.PersistDataset(ds)
		if perr != nil {
			// The dataset is still served from memory; surface the broken
			// durability loudly rather than failing the upload outright.
			s.logf("upload %s: persist failed: %v", ds.Name, perr)
			resp["persistError"] = perr.Error()
		} else {
			resp["persistedBytes"] = n
			resp["persistMs"] = float64(time.Since(start).Microseconds()) / 1000
		}
	}
	writeJSON(w, resp)
}

// graphInfo is the per-dataset record of /api/graphs and /api/v1/datasets.
type graphInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Version counts the mutation batches absorbed by this dataset's
	// lineage (0 for a never-mutated dataset).
	Version uint64 `json:"version"`
	// Bytes is the in-memory graph footprint; Source, LoadMS, and
	// SnapshotBytes describe provenance (built in process vs loaded
	// from the catalog); Indexes reports which indexes are resident.
	Bytes         int64   `json:"bytes"`
	Source        string  `json:"source"`
	LoadMS        float64 `json:"loadMs,omitempty"`
	SnapshotBytes int64   `json:"snapshotBytes,omitempty"`
	// OpenMode reports how a snapshot-sourced dataset was materialized
	// ("copy" or "mmap"); MappedBytes and HeapBytes split Bytes into the
	// portion resident in the backing file mapping (shared with the page
	// cache) and the portion on the Go heap. Heap-built datasets report
	// everything under HeapBytes.
	OpenMode    string          `json:"openMode,omitempty"`
	MappedBytes int64           `json:"mappedBytes,omitempty"`
	HeapBytes   int64           `json:"heapBytes"`
	Indexes     api.IndexStatus `json:"indexes"`
	// IndexBuildMS is the wall time each resident index cost this dataset
	// version to build (zero when pre-seeded from a snapshot or carried
	// over from the predecessor version).
	IndexBuildMS api.IndexTimings `json:"indexBuildMs"`
	// CacheEntries/CacheBytes are this dataset's slice of the serve-time
	// result cache, across all its versions (zero when caching is off).
	CacheEntries int   `json:"cacheEntries,omitempty"`
	CacheBytes   int64 `json:"cacheBytes,omitempty"`
	// Replication is the node's replication position for this dataset
	// (appliedSeq, replicaLag, phase); absent on a standalone server.
	Replication *datasetRepl `json:"replication,omitempty"`
}

func (s *Server) datasetInfo(name string, ds *api.Dataset) graphInfo {
	borrowed := ds.Graph.BorrowedBytes()
	info := graphInfo{
		Name:          name,
		Vertices:      ds.Graph.N(),
		Edges:         ds.Graph.M(),
		Version:       ds.Version,
		Bytes:         ds.Graph.Bytes(),
		Source:        ds.Info.Source,
		LoadMS:        float64(ds.Info.LoadDuration.Microseconds()) / 1000,
		SnapshotBytes: ds.Info.SnapshotBytes,
		OpenMode:      ds.Info.OpenMode,
		MappedBytes:   ds.MappedBytes(),
		HeapBytes:     ds.Graph.Bytes() - borrowed,
		Indexes:       ds.Indexes(),
		IndexBuildMS:  ds.BuildTimings(),
	}
	if c := s.exp.Cache(); c != nil {
		cs := c.DatasetStats(name)
		info.CacheEntries = cs.Entries
		info.CacheBytes = cs.Bytes
	}
	info.Replication = s.datasetReplInfo(name, ds)
	return info
}

func (s *Server) datasetInfos() []graphInfo {
	var infos []graphInfo
	for _, name := range s.exp.Datasets() {
		ds, _ := s.exp.Dataset(name)
		infos = append(infos, s.datasetInfo(name, ds))
	}
	return infos
}

// handleGraphs is the legacy flat alias of GET /api/v1/datasets.
func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"graphs":       s.datasetInfos(),
		"csAlgorithms": s.exp.CSAlgorithms(),
		"cdAlgorithms": s.exp.CDAlgorithms(),
		"dataDir":      s.DataDir(),
	})
}

// vertexPayload builds the vertex-resource record shared by the legacy
// /api/vertex route and GET /api/v1/datasets/{name}/vertices/{id}.
func (s *Server) vertexPayload(dataset string, ds *api.Dataset, v int32) map[string]any {
	resp := map[string]any{
		"id":       v,
		"name":     ds.Graph.Name(v),
		"degree":   ds.Graph.Degree(v),
		"core":     ds.CoreNumbers()[v],
		"keywords": ds.Graph.KeywordStrings(v),
	}
	s.mu.RLock()
	if profs, ok := s.profiles[dataset]; ok {
		if p, ok := profs[v]; ok {
			resp["profile"] = p
		}
	}
	s.mu.RUnlock()
	return resp
}

// handleVertex is the legacy flat alias of the vertex resource (lookup by
// name only, as the original UI does).
func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	dataset := r.URL.Query().Get("dataset")
	name := r.URL.Query().Get("name")
	ds, ok := s.exp.Dataset(dataset)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: %q", api.ErrDatasetNotFound, dataset))
		return
	}
	v, ok := ds.Graph.VertexByName(name)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: %q", api.ErrVertexNotFound, name))
		return
	}
	writeJSON(w, s.vertexPayload(dataset, ds, v))
}

func (s *Server) resolveQuery(ds *api.Dataset, names []string, vertices []int32) ([]int32, error) {
	out := append([]int32(nil), vertices...)
	for _, v := range out {
		if v < 0 || int(v) >= ds.Graph.N() {
			return nil, fmt.Errorf("%w: vertex %d out of range", api.ErrInvalidQuery, v)
		}
	}
	for _, n := range names {
		v, ok := ds.Graph.VertexByName(n)
		if !ok {
			return nil, fmt.Errorf("%w: %q", api.ErrVertexNotFound, n)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no query vertex given", api.ErrInvalidQuery)
	}
	return out, nil
}

// handleSearch is the legacy flat alias: dataset comes from the body, no
// pagination echo. It delegates to the same execSearch core as POST
// /api/v1/datasets/{name}/search.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.execSearch(w, r, req.Dataset, req, false)
}

// execSearch is the shared search core: resolve the dataset once and keep
// that version pinned until the body is out, resolve the query on it, wait
// for a worker slot under the request's (possibly deadline-bounded)
// context, run the algorithm, paginate, and stream the page. The names (and,
// with Layout, the placements, computed only for the page returned) come
// from the version that produced the ids: a mutation that lands mid-request
// cannot hand the encoder an id its graph does not have. paged selects the
// v1 shape, which echoes the pagination; total is the pre-pagination count.
func (s *Server) execSearch(w http.ResponseWriter, r *http.Request, dataset string, req searchRequest, paged bool) {
	ctx, cancel := s.searchContext(r)
	defer cancel()
	ds, unpin, err := s.exp.Pin(dataset)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer unpin()
	qv, err := s.resolveQuery(ds, req.Names, req.Vertices)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if req.Algorithm == "" {
		req.Algorithm = "ACQ"
	}
	comms, elapsed, err := s.runSearch(ctx, ds, req, qv)
	if err != nil {
		s.writeError(w, err)
		return
	}
	page, total := pageOf(comms, req.Limit, req.Offset)
	var info *pageInfo
	if paged {
		info = &pageInfo{total, req.Limit, req.Offset}
	}
	var place func(api.Community) []byte
	if req.Layout {
		place = func(c api.Community) []byte {
			pl, err := ds.Display(c, layout.Options{Seed: 1})
			if err != nil {
				return nil
			}
			// A placement is small next to the layout that made it, and
			// one that does not marshal is left out like one that failed.
			b, _ := json.Marshal(pl)
			return b
		}
	}
	w.Header().Set(repl.HeaderVersion, strconv.FormatUint(ds.Version, 10))
	names := ds.NameForm(quoteNames).(*quotedNames)
	encodePage(w, func(e *pageEncoder) { e.communityPage(page, names, place, info, elapsed) })
}

// handleDetect is the legacy flat alias; it delegates to the execDetect
// core (legacy Limit semantics: cap after the largest-first sort).
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var req detectRequest
	if !decodeBody(w, r, &req) {
		return
	}
	comms, elapsed, err := s.execDetect(r, req.Dataset, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if req.Limit > 0 && len(comms) > req.Limit {
		comms = comms[:req.Limit]
	}
	encodePage(w, func(e *pageEncoder) { e.communityPage(comms, nil, nil, nil, elapsed) })
}

// execDetect is the shared detection core: run the CD algorithm under the
// request context, filter by MinSize, and sort largest-first. Pagination or
// the legacy Limit cap is applied by the caller.
func (s *Server) execDetect(r *http.Request, dataset string, req detectRequest) ([]api.Community, time.Duration, error) {
	ctx, cancel := s.searchContext(r)
	defer cancel()
	if req.Algorithm == "" {
		req.Algorithm = "CODICIL"
	}
	release, err := s.acquireSearchSlot(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer release()
	start := time.Now()
	comms, err := s.exp.Detect(ctx, dataset, req.Algorithm)
	if err != nil {
		return nil, 0, err
	}
	// Detect may hand back the slice shared with the result cache and with
	// concurrent requests; the filter and sort below mutate in place, so
	// work on a private copy.
	comms = slices.Clone(comms)
	if req.MinSize > 0 {
		filtered := comms[:0]
		for _, c := range comms {
			if len(c.Vertices) >= req.MinSize {
				filtered = append(filtered, c)
			}
		}
		comms = filtered
	}
	slices.SortFunc(comms, func(a, b api.Community) int { return len(b.Vertices) - len(a.Vertices) })
	return comms, time.Since(start), nil
}

// handleAnalyze is the legacy flat alias over the analyze core.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	s.execAnalyze(w, r, req.Dataset, req)
}

func (s *Server) execAnalyze(w http.ResponseWriter, r *http.Request, dataset string, req analyzeRequest) {
	a, err := s.exp.Analyze(r.Context(), dataset, api.Community{Method: req.Method, Vertices: req.Vertices}, req.Query)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, a)
}

// handleDisplay is the legacy flat alias over the display core.
func (s *Server) handleDisplay(w http.ResponseWriter, r *http.Request) {
	var req displayRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	s.execDisplay(w, r, req.Dataset, req)
}

func (s *Server) execDisplay(w http.ResponseWriter, r *http.Request, dataset string, req displayRequest) {
	pl, err := s.exp.Display(r.Context(), dataset, api.Community{Vertices: req.Vertices}, layout.Options{
		Width: req.Width, Height: req.Height, Seed: req.Seed,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, pl)
}

// runSearch executes the bounded, instrumented part of the search core. The
// worker slot and in-flight gauge are released by defer so that a panicking
// search (recovered by the logging middleware) cannot leak a slot and wedge
// the search path — and a canceled or timed-out search frees its slot the
// moment the kernel observes ctx and returns.
func (s *Server) runSearch(ctx context.Context, ds *api.Dataset, req searchRequest, qv []int32) (comms []api.Community, elapsed time.Duration, err error) {
	release, err := s.acquireSearchSlot(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer release()
	start := time.Now()
	comms, err = s.exp.SearchOn(ctx, ds, req.Algorithm, api.Query{
		Vertices: qv, K: req.K, Keywords: req.Keywords, Params: req.Params,
	})
	elapsed = time.Since(start)
	s.stats.searchNanos.Add(elapsed.Nanoseconds())
	s.stats.searches.Add(1)
	return comms, elapsed, err
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// handleCompare is the legacy flat alias over the compare core, which
// renders the Figure 6(a) experience as one API call: run several
// algorithms for the same query and report statistics + CPJ/CMF.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	s.execCompare(w, r, req.Dataset, req)
}

func (s *Server) execCompare(w http.ResponseWriter, r *http.Request, dataset string, req compareRequest) {
	ctx, cancel := s.searchContext(r)
	defer cancel()
	ds, ok := s.exp.Dataset(dataset)
	if !ok {
		s.writeError(w, fmt.Errorf("%w: %q", api.ErrDatasetNotFound, dataset))
		return
	}
	var q int32
	if req.Name != "" {
		v, ok := ds.Graph.VertexByName(req.Name)
		if !ok {
			s.writeError(w, fmt.Errorf("%w: %q", api.ErrVertexNotFound, req.Name))
			return
		}
		q = v
	} else {
		q = req.Vertex
	}
	if q < 0 || int(q) >= ds.Graph.N() {
		s.writeError(w, fmt.Errorf("%w: vertex %d out of range", api.ErrInvalidQuery, q))
		return
	}
	algos := req.Algorithms
	if len(algos) == 0 {
		algos = []string{"Global", "Local", "CODICIL", "ACQ"}
	}
	// One worker slot covers the whole comparison: the rows run serially,
	// so a compare request is one unit of heavy work like a search.
	release, err := s.acquireSearchSlot(ctx)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()
	rows := make([]compareRow, 0, len(algos))
	for _, name := range algos {
		rows = append(rows, s.compareOne(ctx, dataset, ds, name, q, req.K))
	}
	writeJSON(w, map[string]any{"query": q, "rows": rows})
}

func (s *Server) compareOne(ctx context.Context, dataset string, ds *api.Dataset, algo string, q int32, k int) compareRow {
	row := compareRow{Method: algo}
	start := time.Now()
	var comms []api.Community
	var err error
	isCD := false
	for _, cd := range s.exp.CDAlgorithms() {
		if cd == algo {
			isCD = true
		}
	}
	if isCD {
		var all []api.Community
		all, err = s.exp.Detect(ctx, dataset, algo)
		if err == nil {
			for _, c := range all {
				for _, v := range c.Vertices {
					if v == q {
						comms = append(comms, c)
						break
					}
				}
			}
		}
	} else {
		comms, err = s.exp.Search(ctx, dataset, algo, api.Query{Vertices: []int32{q}, K: k})
	}
	row.ElapsedMS = msec(time.Since(start))
	if err != nil {
		row.Error = err.Error()
		return row
	}
	stats := make([]metricsRow, 0, len(comms))
	for _, c := range comms {
		a, aerr := s.exp.Analyze(ctx, dataset, c, q)
		if aerr != nil {
			continue
		}
		stats = append(stats, metricsRow{a: a})
	}
	row.Communities = len(stats)
	if len(stats) == 0 {
		return row
	}
	for _, st := range stats {
		row.AvgVertices += float64(st.a.Stats.Vertices)
		row.AvgEdges += float64(st.a.Stats.Edges)
		row.AvgDegree += st.a.Stats.AvgDegree
		row.CPJ += st.a.CPJ
		row.CMF += st.a.CMF
	}
	n := float64(len(stats))
	row.AvgVertices /= n
	row.AvgEdges /= n
	row.AvgDegree /= n
	row.CPJ /= n
	row.CMF /= n
	return row
}

type metricsRow struct{ a *api.Analysis }
