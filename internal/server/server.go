// Package server implements the browser–server model of Figure 3: a JSON
// HTTP API over the api.Explorer engine plus an embedded single-page UI.
// The paper's stack is JSP + Tomcat; here it is net/http.
//
// The API is the resource-oriented /api/v1 tree (see v1.go): datasets are
// resources, searches and explorations are sub-resources, community lists
// paginate, and errors arrive in one typed JSON envelope. Beside it,
// GET /api/stats reports request-level serving statistics and GET / serves
// the embedded UI, which speaks v1 like any other client.
//
// Handlers run concurrently (one goroutine per request, as net/http does).
// Read work is admitted in one place, the Explorer's result cache: a
// computation waits for one of the node's compute slots (-search.limit), so
// a burst of heavy queries cannot oversubscribe the CPU, while cache hits
// and requests coalesced onto a running computation never wait. Every
// search-class request (search, detect, compare, analyze, explore) carries
// a context.Context derived from the client connection (plus the optional
// server-wide search timeout): a dropped client or an expired deadline
// cancels the computation inside the algorithm kernels, or its wait for a
// slot, instead of burning it.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
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

	// catalog tracks, per dataset name the data dir holds, the version a
	// boot from it recovers and the ops journaled since its last full
	// persist. A write whose base is not that version persists its base
	// before journaling; crossing journalCompactAfter
	// (DefaultJournalCompactAfter when zero; tests set it before serving)
	// triggers compaction. Every journal and snapshot write, and every
	// update of an entry, runs under the name's writer lock (store).
	catalog             map[string]catalogEnd
	journalCompactAfter int

	// beforeDurable (tests) runs in every write's durable step (store).
	beforeDurable func()

	logf func(format string, args ...any)

	// searchTimeout, when positive, deadline-bounds every search-class
	// request (slot wait + computation). Atomic so SetSearchTimeout is safe
	// mid-serve.
	searchTimeout atomic.Int64 // nanoseconds

	// batcher, when non-nil, coalesces concurrent mutation submissions into
	// combined Mutate batches (EnableBatcher); its apply seam is
	// applyMutations, so batched and unbatched writes share the same
	// journal-and-count path.
	batcher *api.MutationBatcher

	// role is the node's replication role (see health.go): one immutable
	// value, replaced only by transition. transMu serializes transitions
	// and guards fleet, the transition hooks EnableFleet installed, and
	// closed, set by Shutdown, after which no transition runs.
	role    atomic.Pointer[nodeRole]
	transMu sync.Mutex
	fleet   *FleetControl
	closed  bool

	// started anchors the health endpoint's uptime; httpSrv is the
	// listener ListenAndServe built, kept so Shutdown can drain it.
	started time.Time
	httpSrv *http.Server

	stats serverStats
}

// serverStats holds request-level counters, all updated atomically so the
// hot path takes no lock.
type serverStats struct {
	requests    atomic.Int64
	errors      atomic.Int64
	searches    atomic.Int64
	searchNanos atomic.Int64

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
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	Searches    int64   `json:"searches"`
	AvgSearchMS float64 `json:"avgSearchMs"`

	// Datasets counts currently registered datasets; the snapshot fields
	// accumulate catalog activity since boot (counts and total wall time),
	// making warm-restart performance observable over time. DataDir is the
	// catalog directory (absent when persistence is off).
	Datasets int    `json:"datasets"`
	DataDir  string `json:"dataDir,omitempty"`
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
	// freed their compute slot, or stopped waiting for one, at that moment.
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
	// negativeHits, shedded, occupancy) and its admission: inFlight
	// computations against computeLimit, the -search.limit bound.
	Cache *servecache.Stats `json:"cache"`
	// Batcher reports the mutation batcher (submissions, batches,
	// opsPerBatch); absent when batching is off.
	Batcher *api.BatcherStats `json:"batcher,omitempty"`
	// Replication reports the replication role and its counters (feed
	// shipping on a primary, tail/apply on a replica); absent standalone.
	Replication *ReplInfo `json:"replication,omitempty"`
}

// New returns a server over the given engine. logf may be nil (silent). The
// node's compute limit defaults to 2×GOMAXPROCS; tune it with
// SetSearchLimit.
func New(exp *api.Explorer, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		exp:      exp,
		profiles: make(map[string]map[int32]gen.Profile),
		catalog:  make(map[string]catalogEnd),
		logf:     logf,
		started:  time.Now(),
	}
	// A new server is standalone; that is its first transition.
	s.transition(func(*nodeRole, *FleetControl) (*nodeRole, *refusal) { return &nodeRole{}, nil })
	return s
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

// SetSearchLimit bounds the computations the node runs at once, across
// every dataset and read route, at n (n ≤ 0: 2×GOMAXPROCS): it is the
// compute limit of the Explorer's result cache. Computations already
// running or waiting finish under the old bound.
func (s *Server) SetSearchLimit(n int) {
	s.exp.Cache().SetComputeLimit(n)
}

// EnableCache replaces the Explorer's result cache, keeping its compute
// limit. entries and bytes bound the cache (≤ 0 take the servecache
// defaults); shedInflight > 0 sheds a dataset's computations past that many
// with a 429 instead of letting them wait. Call before serving.
func (s *Server) EnableCache(entries int, bytes int64, shedInflight int) {
	c := api.NewServeCache(entries, bytes, shedInflight)
	c.SetComputeLimit(s.exp.Cache().Stats().ComputeLimit)
	s.exp.SetCache(c)
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
// detect, compare, analyze, explore): the budget covers both the wait for a
// compute slot and the computation itself, and an expired deadline cancels
// the kernel and answers 504. d ≤ 0 disables the bound (the default).
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
		Requests:           s.stats.requests.Load(),
		Errors:             s.stats.errors.Load(),
		Searches:           s.stats.searches.Load(),
		Datasets:           len(s.exp.Datasets()),
		DataDir:            s.DataDir(),
		SnapshotLoads:      s.stats.snapshotLoads.Load(),
		SnapshotLoadMS:     float64(s.stats.snapshotLoadNanos.Load()) / 1e6,
		SnapshotLoadErrors: s.stats.snapshotLoadErrors.Load(),
		SnapshotPersists:   s.stats.snapshotPersists.Load(),
		SnapshotPersistMS:  float64(s.stats.snapshotPersistNanos.Load()) / 1e6,
		Canceled:           s.stats.canceled.Load(),
		TimedOut:           s.stats.timedOut.Load(),
		ResponseAborts:     s.stats.responseAborts.Load(),
		SearchTimeoutMS:    float64(time.Duration(s.searchTimeout.Load())) / float64(time.Millisecond),
		Explore:            s.exp.ExploreStats(),
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
	cs := s.exp.Cache().Stats()
	snap.Cache = &cs
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

// Shutdown drains the server gracefully within ctx's deadline. It is the
// node's final transition: the tailer stops first (a replica un-claims its
// position cleanly instead of dying mid-apply), the feed's parked
// long-polls are released (replicas tailing us return within one round
// trip instead of waiting out their poll), and no role change follows.
// Then the HTTP listener stops accepting and waits for in-flight requests.
func (s *Server) Shutdown(ctx context.Context) error {
	s.transition(func(cur *nodeRole, _ *FleetControl) (*nodeRole, *refusal) {
		if cur.stop != nil {
			cur.stop()
		}
		if cur.feed != nil {
			cur.feed.Drain()
		}
		s.closed = true
		return cur, nil
	})
	s.mu.RLock()
	srv := s.httpSrv
	s.mu.RUnlock()
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

// writeError renders the shared error envelope (see http.go) for a typed
// error. Cancellations and timeouts also bump their stats counters here,
// the one funnel every search-class failure passes through.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, api.ErrCanceled):
		s.stats.canceled.Add(1)
	case errors.Is(err, api.ErrTimeout):
		s.stats.timedOut.Add(1)
	case errors.Is(err, errNoPrimary):
		writeEnvelope(w, http.StatusServiceUnavailable, err.Error(), repl.CodeNoPrimary)
		return
	case errors.Is(err, errJournalUnreadable):
		writeEnvelope(w, http.StatusServiceUnavailable, err.Error(), "journal_unreadable")
		return
	}
	writeEnvelope(w, errStatus(err), err.Error(), api.ErrorCode(err))
}

// --- request/response DTOs ---

type searchRequest struct {
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
	// Limit/Offset paginate the community list.
	Limit  int `json:"limit,omitempty"`
	Offset int `json:"offset,omitempty"`
}

type detectRequest struct {
	Algorithm string `json:"algorithm"`
	// MinSize filters out tiny detected communities from the response.
	MinSize int `json:"minSize,omitempty"`
	// Limit/Offset paginate the largest-first community list.
	Limit  int `json:"limit,omitempty"`
	Offset int `json:"offset,omitempty"`
}

type analyzeRequest struct {
	Vertices []int32 `json:"vertices"`
	Query    int32   `json:"query"`
	Method   string  `json:"method,omitempty"`
}

type displayRequest struct {
	Vertices []int32 `json:"vertices"`
	Width    float64 `json:"width,omitempty"`
	Height   float64 `json:"height,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

type compareRequest struct {
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

// graphInfo is the per-dataset record of /api/v1/datasets.
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
	// result cache, across all its versions.
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
	cs := s.exp.Cache().DatasetStats(name)
	info.CacheEntries, info.CacheBytes = cs.Entries, cs.Bytes
	if rs := s.role.Load(); rs.name != "" {
		p := rs.position(name, ds)
		info.Replication = &p
	}
	return info
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

// runSearch executes the instrumented part of the search core.
func (s *Server) runSearch(ctx context.Context, ds *api.Dataset, req searchRequest, qv []int32) (comms []api.Community, elapsed time.Duration, err error) {
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
