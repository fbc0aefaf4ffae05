// Package api implements the developer API of Figure 4 — the CExplorer
// interface with its five functions (upload, search, detect, analyze,
// display) — together with the pluggable CS/CD algorithm registries that
// let users "plug in their own CR solution on C-Explorer through a simple
// application programmer interface".
package api

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cexplorer/internal/cltree"
	"cexplorer/internal/codicil"
	"cexplorer/internal/core"
	"cexplorer/internal/csearch"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
	"cexplorer/internal/ktruss"
	"cexplorer/internal/layout"
	"cexplorer/internal/metrics"
	"cexplorer/internal/par"
	"cexplorer/internal/servecache"
)

// Query is the search request: the query vertices (by ID), the minimum
// degree, and optional keywords (strings, matched against the graph
// vocabulary).
type Query struct {
	Vertices []int32
	K        int
	Keywords []string
	// Params carries algorithm-specific knobs as strings. Every built-in
	// accepts "maxResults" (cap the community list); ACQ additionally
	// accepts "variant" (Dec, Inc-S, Inc-T, Basic) and Local accepts
	// "budget" (candidate-set cap). Unknown keys are rejected with
	// ErrInvalidQuery so typos fail loudly instead of being ignored.
	Params map[string]string
}

// queryParams is the parsed form of Query.Params shared by the built-ins.
type queryParams struct {
	maxResults int
	budget     int
	variant    core.Algorithm
	hasVariant bool
}

// parseParams validates q.Params against the keys an algorithm accepts
// ("maxResults" is always accepted) and parses the values. Unknown keys and
// malformed values wrap ErrInvalidQuery.
func parseParams(q Query, accepted ...string) (queryParams, error) {
	p := queryParams{}
	for key, val := range q.Params {
		switch {
		case key == "maxResults":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return p, fmt.Errorf("%w: param maxResults=%q (want a non-negative integer)", ErrInvalidQuery, val)
			}
			p.maxResults = n
		case key == "budget" && slices.Contains(accepted, "budget"):
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return p, fmt.Errorf("%w: param budget=%q (want a non-negative integer)", ErrInvalidQuery, val)
			}
			p.budget = n
		case key == "variant" && slices.Contains(accepted, "variant"):
			switch val {
			case "Dec", "dec":
				p.variant = core.Dec
			case "Inc-S", "IncS", "inc-s", "incs":
				p.variant = core.IncS
			case "Inc-T", "IncT", "inc-t", "inct":
				p.variant = core.IncT
			case "Basic", "basic":
				p.variant = core.Basic
			default:
				return p, fmt.Errorf("%w: param variant=%q (want Dec, Inc-S, Inc-T, or Basic)", ErrInvalidQuery, val)
			}
			p.hasVariant = true
		default:
			return p, fmt.Errorf("%w: unknown param %q", ErrInvalidQuery, key)
		}
	}
	return p, nil
}

// truncate applies the maxResults cap (0 = unlimited).
func (p queryParams) truncate(comms []Community) []Community {
	if p.maxResults > 0 && len(comms) > p.maxResults {
		return comms[:p.maxResults]
	}
	return comms
}

// resolveKeywords maps query keyword strings to sorted interned vocab IDs.
// The nil/empty distinction is load-bearing for the ACQ engine: nil (no
// keywords requested) means "default to W(q)", while a non-nil empty slice
// (keywords requested, none exist in this graph) must stay empty so the
// engine does not silently fall back to W(q).
func resolveKeywords(g *graph.Graph, words []string) []int32 {
	if len(words) == 0 {
		return nil
	}
	var S []int32
	for _, w := range words {
		if id, ok := g.Vocab().ID(w); ok {
			S = append(S, id)
		}
	}
	slices.Sort(S)
	if S == nil {
		S = []int32{}
	}
	return S
}

// Community is the algorithm-independent result record shown in the UI.
type Community struct {
	Method         string   `json:"method"`
	Vertices       []int32  `json:"vertices"`
	SharedKeywords []string `json:"sharedKeywords,omitempty"`
	Theme          []string `json:"theme,omitempty"`
}

// CSAlgorithm is a pluggable community-search algorithm (query-based,
// online — Global, Local, ACQ, k-truss, or user-provided). Search must
// observe ctx: return ctx.Err() (or a wrapper) promptly once the context is
// canceled, so a dropped client or an expired deadline frees the worker.
type CSAlgorithm interface {
	Name() string
	Search(ctx context.Context, ds *Dataset, q Query) ([]Community, error)
}

// CDAlgorithm is a pluggable community-detection algorithm (whole-graph,
// offline — CODICIL or user-provided). Detect must observe ctx like
// CSAlgorithm.Search does.
type CDAlgorithm interface {
	Name() string
	Detect(ctx context.Context, ds *Dataset) ([]Community, error)
}

// Dataset bundles a graph with its indexes and a pool of warm query
// engines. All methods are safe for concurrent use; each index is guarded
// by its own sync.Once, so the first builder of one index never blocks
// searches that need another, and once built, reads take no lock at all —
// searches on the same dataset run fully in parallel.
//
// Indexes follow a "load if present, else build" discipline: a dataset
// opened from a snapshot (OpenSnapshot) arrives with its indexes pre-seeded
// and never pays construction again, while a freshly uploaded graph builds
// each index lazily on first use exactly as before.
type Dataset struct {
	Name  string
	Graph *graph.Graph

	// Info records how the dataset was materialized (see DatasetInfo). It
	// is set before the dataset is published and read-only afterwards.
	Info DatasetInfo

	// Version counts the mutation batches applied along this dataset's
	// lineage. A Dataset is an immutable version: Mutate derives a
	// successor (Version+1) rather than editing in place, and the Explorer
	// swaps the successor into its map — so queries holding this Dataset
	// keep a fully consistent graph+index snapshot for their whole
	// lifetime, while new queries see the new version.
	Version uint64

	// mutMu serializes mutation batches along the lineage; every successor
	// shares the pointer. It is never held by the read path.
	mutMu *sync.Mutex

	// backing is non-nil when the graph and pre-seeded indexes borrow a
	// mapped snapshot file (see backing.go); nil for heap-backed datasets.
	backing *backingRef

	treeOnce  sync.Once
	tree      *cltree.Tree
	treeReady atomic.Bool
	treeNanos atomic.Int64

	coreOnce  sync.Once
	coreNum   []int32
	coreReady atomic.Bool
	coreNanos atomic.Int64

	trussOnce  sync.Once
	truss      *ktruss.Decomposition
	trussReady atomic.Bool
	trussNanos atomic.Int64

	// nameForm memoizes a form derived from the graph's name table alone
	// (see NameForm); Mutate hands it to every successor that adds no vertex.
	nameForm atomic.Pointer[any]

	// engines holds warm *core.Engine values (their interned keyword-set
	// tables and candidate buffers already grown) so concurrent handlers
	// check one out instead of regrowing them per request. The O(n) working
	// memory of a search is pooled on the graph (graph.Scratch), not here.
	engines sync.Pool
}

// DatasetInfo records a dataset's provenance for the catalog and the
// /api/graphs status report.
type DatasetInfo struct {
	// Source is "built" for graphs constructed in process (uploads,
	// generators) and "snapshot" for datasets opened from a snapshot file.
	Source string `json:"source"`
	// LoadDuration is the time OpenSnapshot spent materializing the
	// dataset (zero for built datasets).
	LoadDuration time.Duration `json:"-"`
	// SnapshotBytes is the encoded snapshot size when Source=="snapshot".
	SnapshotBytes int64 `json:"snapshotBytes,omitempty"`
	// OpenMode reports how a snapshot-sourced dataset was materialized:
	// "copy" (heap-decoded) or "mmap" (view-decoded over a file mapping).
	// Empty for built datasets and for mutation successors, which are
	// heap-materialized regardless of their base.
	OpenMode string `json:"openMode,omitempty"`
	// MappedBytes is the size of the backing file mapping (mmap opens only).
	MappedBytes int64 `json:"mappedBytes,omitempty"`
}

// IndexStatus reports which indexes a dataset currently holds in memory,
// without triggering any builds.
type IndexStatus struct {
	CLTree bool `json:"cltree"`
	Core   bool `json:"core"`
	Truss  bool `json:"truss"`
}

// NewDataset wraps a graph.
func NewDataset(name string, g *graph.Graph) *Dataset {
	return &Dataset{Name: name, Graph: g, Info: DatasetInfo{Source: "built"}, mutMu: &sync.Mutex{}}
}

// buildTotals accumulates index-build wall time across every dataset and
// version in the process — a monotone counter (datasets deleted or
// superseded by mutation never subtract), which is what /api/stats
// surfaces so rate()-style monitoring works.
var buildTotals struct {
	tree, core, truss atomic.Int64
}

// BuildTotals reports the cumulative per-index build wall time paid in this
// process. Monotone: it only ever grows.
func BuildTotals() IndexTimings {
	return IndexTimings{
		CLTreeMS: float64(buildTotals.tree.Load()) / 1e6,
		CoreMS:   float64(buildTotals.core.Load()) / 1e6,
		TrussMS:  float64(buildTotals.truss.Load()) / 1e6,
	}
}

// Tree returns the CL-tree, building it on first use if the dataset was not
// opened from a snapshot that already carried it.
func (d *Dataset) Tree() *cltree.Tree {
	d.treeOnce.Do(func() {
		start := time.Now()
		d.tree = cltree.Build(d.Graph)
		n := int64(time.Since(start))
		d.treeNanos.Store(n)
		buildTotals.tree.Add(n)
		d.treeReady.Store(true)
	})
	return d.tree
}

// CoreNumbers returns the core decomposition, computing it on first use if
// it was not pre-seeded from a snapshot.
func (d *Dataset) CoreNumbers() []int32 {
	d.coreOnce.Do(func() {
		start := time.Now()
		d.coreNum = kcore.Decompose(d.Graph)
		n := int64(time.Since(start))
		d.coreNanos.Store(n)
		buildTotals.core.Add(n)
		d.coreReady.Store(true)
	})
	return d.coreNum
}

// Truss returns the truss decomposition, computing it on first use if it
// was not pre-seeded from a snapshot. The build parallelizes its support
// counting across par.Workers() workers (the -index.workers knob).
func (d *Dataset) Truss() *ktruss.Decomposition {
	d.trussOnce.Do(func() {
		start := time.Now()
		d.truss = ktruss.Decompose(d.Graph)
		n := int64(time.Since(start))
		d.trussNanos.Store(n)
		buildTotals.truss.Add(n)
		d.trussReady.Store(true)
	})
	return d.truss
}

// Indexes reports which indexes are resident, without building any.
func (d *Dataset) Indexes() IndexStatus {
	return IndexStatus{
		CLTree: d.treeReady.Load(),
		Core:   d.coreReady.Load(),
		Truss:  d.trussReady.Load(),
	}
}

// IndexTimings reports the wall time each index build cost (zero for
// indexes pre-seeded from a snapshot or not yet built). Builds overlap
// under BuildIndexes, so the sum can exceed elapsed wall time.
type IndexTimings struct {
	CLTreeMS float64 `json:"cltreeMs"`
	CoreMS   float64 `json:"coreMs"`
	TrussMS  float64 `json:"trussMs"`
}

// BuildTimings reports this dataset version's build wall times, without
// building any index. Per-version, not cumulative: a successor derived by
// Mutate starts at zero and pays only for what it rebuilds (use
// BuildTotals for the process-wide monotone counter).
func (d *Dataset) BuildTimings() IndexTimings {
	return IndexTimings{
		CLTreeMS: float64(d.treeNanos.Load()) / 1e6,
		CoreMS:   float64(d.coreNanos.Load()) / 1e6,
		TrussMS:  float64(d.trussNanos.Load()) / 1e6,
	}
}

// BuildIndexes eagerly builds every index the dataset does not yet hold
// (the offline precomputation step of `cexplorer snapshot build` and the
// warm-up step of the upload path). The three builds fan out across the
// par.Workers() pool — each index is guarded by its own sync.Once, so
// racing with lazy builders is safe — and the call returns when the
// slowest finishes: at ≥3 workers the wall time is max(individual builds),
// not their sum; at 1 worker the builds run strictly sequentially. The
// truss build's internal counting pool is sized by the same knob but is
// nested, so total build goroutines can briefly exceed the knob while the
// fan-out and the counting phase overlap.
func (d *Dataset) BuildIndexes() {
	builds := []func(){
		func() { d.Tree() },
		func() { d.CoreNumbers() },
		func() { d.Truss() },
	}
	par.Each(len(builds), 0, func(i int) { builds[i]() })
}

// NameForm returns build(d.Graph), computed on first use and kept for this
// version and every successor with the same names. build must read only the
// graph's names and return something immutable that does not alias them: the
// server keeps its pre-quoted JSON name table here. Racing first callers may
// both build; one result wins.
func (d *Dataset) NameForm(build func(*graph.Graph) any) any {
	if p := d.nameForm.Load(); p != nil {
		return *p
	}
	v := build(d.Graph)
	d.nameForm.CompareAndSwap(nil, &v)
	return *d.nameForm.Load()
}

// AcquireEngine checks a warm ACQ engine out of the dataset's pool, building
// one over the CL-tree if the pool is empty. The caller owns the engine
// until ReleaseEngine; engines are single-goroutine objects (they carry
// per-query scratch), so never share one across goroutines.
func (d *Dataset) AcquireEngine() *core.Engine {
	if e, ok := d.engines.Get().(*core.Engine); ok {
		return e
	}
	return core.NewEngine(d.Tree())
}

// ReleaseEngine returns an engine to the pool for the next query.
func (d *Dataset) ReleaseEngine(e *core.Engine) {
	if e != nil {
		d.engines.Put(e)
	}
}

// --- built-in CS algorithms ---

// ACQAlgorithm runs the ACQ engine (default: Dec).
type ACQAlgorithm struct {
	Variant core.Algorithm
}

// Name implements CSAlgorithm.
func (a *ACQAlgorithm) Name() string {
	if a.Variant == core.Dec {
		return "ACQ"
	}
	return "ACQ-" + a.Variant.String()
}

// Search implements CSAlgorithm.
func (a *ACQAlgorithm) Search(ctx context.Context, ds *Dataset, q Query) ([]Community, error) {
	if len(q.Vertices) == 0 {
		return nil, fmt.Errorf("%w: acq: no query vertex", ErrInvalidQuery)
	}
	p, err := parseParams(q, "variant", "maxResults")
	if err != nil {
		return nil, err
	}
	variant := a.Variant
	if p.hasVariant {
		variant = p.variant
	}
	eng := ds.AcquireEngine()
	defer ds.ReleaseEngine(eng)
	S := resolveKeywords(ds.Graph, q.Keywords)
	var res []core.Community
	if len(q.Vertices) == 1 {
		res, err = eng.SearchContext(ctx, q.Vertices[0], int32(q.K), S, variant)
	} else {
		res, err = eng.SearchMultiContext(ctx, q.Vertices, int32(q.K), S)
	}
	if err != nil {
		return nil, err
	}
	out := make([]Community, 0, len(res))
	for _, c := range res {
		out = append(out, Community{
			Method:         a.Name(),
			Vertices:       c.Vertices,
			SharedKeywords: ds.Graph.Vocab().Words(c.SharedKeywords),
			Theme:          metrics.Theme(ds.Graph, c.Vertices, 5),
		})
	}
	return p.truncate(out), nil
}

// GlobalAlgorithm is the Sozio–Gionis baseline.
type GlobalAlgorithm struct{}

// Name implements CSAlgorithm.
func (GlobalAlgorithm) Name() string { return "Global" }

// Search implements CSAlgorithm.
func (GlobalAlgorithm) Search(ctx context.Context, ds *Dataset, q Query) ([]Community, error) {
	if len(q.Vertices) == 0 {
		return nil, fmt.Errorf("%w: global: no query vertex", ErrInvalidQuery)
	}
	p, err := parseParams(q)
	if err != nil {
		return nil, err
	}
	v, k := q.Vertices[0], int32(q.K)
	var comp []int32
	// The CL-tree spells out every connected k-core: with the index
	// resident, Global is a lookup that shares the anchor's vertex list.
	if ds.treeReady.Load() {
		comp = ds.Tree().ConnectedKCore(v, k)
	} else if r, err := csearch.GlobalContext(ctx, ds.Graph, ds.CoreNumbers(), v, k); err != nil {
		return nil, err
	} else if r != nil {
		comp = r.Vertices
	}
	if comp == nil {
		return nil, nil
	}
	return p.truncate([]Community{{
		Method:   "Global",
		Vertices: comp,
		Theme:    metrics.Theme(ds.Graph, comp, 5),
	}}), nil
}

// LocalAlgorithm is the Cui et al. baseline.
type LocalAlgorithm struct {
	Budget int
}

// Name implements CSAlgorithm.
func (LocalAlgorithm) Name() string { return "Local" }

// Search implements CSAlgorithm.
func (l LocalAlgorithm) Search(ctx context.Context, ds *Dataset, q Query) ([]Community, error) {
	if len(q.Vertices) == 0 {
		return nil, fmt.Errorf("%w: local: no query vertex", ErrInvalidQuery)
	}
	p, err := parseParams(q, "budget")
	if err != nil {
		return nil, err
	}
	budget := l.Budget
	if p.budget > 0 {
		budget = p.budget
	}
	r, err := csearch.LocalContext(ctx, ds.Graph, q.Vertices[0], int32(q.K), csearch.LocalOptions{Budget: budget})
	if err != nil {
		return nil, err
	}
	if r == nil {
		return nil, nil
	}
	return p.truncate([]Community{{
		Method:   "Local",
		Vertices: r.Vertices,
		Theme:    metrics.Theme(ds.Graph, r.Vertices, 5),
	}}), nil
}

// KTrussAlgorithm is the Huang et al. k-truss community search.
type KTrussAlgorithm struct{}

// Name implements CSAlgorithm.
func (KTrussAlgorithm) Name() string { return "KTruss" }

// Search implements CSAlgorithm.
func (KTrussAlgorithm) Search(ctx context.Context, ds *Dataset, q Query) ([]Community, error) {
	if len(q.Vertices) == 0 {
		return nil, fmt.Errorf("%w: ktruss: no query vertex", ErrInvalidQuery)
	}
	p, err := parseParams(q)
	if err != nil {
		return nil, err
	}
	k := int32(q.K)
	if k < 2 {
		k = 2
	}
	comms, err := ds.Truss().CommunitiesContext(ctx, q.Vertices[0], k)
	if err != nil {
		return nil, err
	}
	out := make([]Community, 0, len(comms))
	for _, vs := range comms {
		out = append(out, Community{
			Method:   "KTruss",
			Vertices: vs,
			Theme:    metrics.Theme(ds.Graph, vs, 5),
		})
	}
	return p.truncate(out), nil
}

// --- built-in CD algorithm ---

// CODICILAlgorithm wraps the CODICIL pipeline as a CD plugin.
type CODICILAlgorithm struct {
	Opts codicil.Options
}

// Name implements CDAlgorithm.
func (CODICILAlgorithm) Name() string { return "CODICIL" }

// Detect implements CDAlgorithm.
func (c CODICILAlgorithm) Detect(ctx context.Context, ds *Dataset) ([]Community, error) {
	r, err := codicil.DetectContext(ctx, ds.Graph, c.Opts)
	if err != nil {
		return nil, err
	}
	comms := r.Partition.Communities()
	out := make([]Community, 0, len(comms))
	for _, vs := range comms {
		out = append(out, Community{
			Method:   "CODICIL",
			Vertices: vs,
			Theme:    metrics.Theme(ds.Graph, vs, 5),
		})
	}
	return out, nil
}

// --- the CExplorer interface of Figure 4 ---

// Explorer is the Go rendering of the paper's Java interface:
//
//	public interface CExplorer {
//	    public void upload(String filePath);
//	    public List<Community> search(CSAlgorithm algo, Query query);
//	    public List<Community> detect(CDAlgorithm algo);
//	    public void analyze(Community community);
//	    public void display(Community community);
//	}
//
// plus registration hooks for user algorithms. All query methods take a
// context.Context as their first argument (the go-native rendering of the
// paper's request lifecycle): cancellation and deadlines propagate from the
// HTTP layer down into the algorithm kernels.
type Explorer struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
	cs       map[string]CSAlgorithm
	cd       map[string]CDAlgorithm

	// cache, when non-nil, is the serve-time result cache (see cache.go):
	// Search/Detect/Analyze become version-keyed cache lookups with
	// singleflight coalescing and per-dataset admission control.
	cache *servecache.Cache

	// explore holds the live exploration sessions (the paper's Figure 1/6
	// browse loop as server-side state; see explore.go).
	explore exploreManager

	// mutateHook, when non-nil, observes every successful Mutate while the
	// dataset's lineage lock is still held, so invocations for one dataset
	// are strictly ordered by the Version they produced. The replication
	// feed hangs off this seam.
	mutateHook MutateHook
}

// MutateHook observes a successful mutation batch: the dataset name, the
// result (res.Version is the version the batch produced), and the applied
// ops. It runs on the mutating goroutine under the lineage lock — keep it
// cheap and never call back into Mutate.
type MutateHook func(dataset string, res *MutationResult, ops []Mutation)

// SetMutateHook installs the mutation observer. Install before serving;
// a nil hook disables observation.
func (e *Explorer) SetMutateHook(h MutateHook) {
	e.mu.Lock()
	e.mutateHook = h
	e.mu.Unlock()
}

// NewExplorer returns an Explorer with the built-in algorithms registered
// (ACQ, Global, Local, KTruss; CODICIL).
func NewExplorer() *Explorer {
	e := &Explorer{
		datasets: make(map[string]*Dataset),
		cs:       make(map[string]CSAlgorithm),
		cd:       make(map[string]CDAlgorithm),
	}
	e.explore.init()
	e.RegisterCS(&ACQAlgorithm{Variant: core.Dec})
	e.RegisterCS(GlobalAlgorithm{})
	e.RegisterCS(LocalAlgorithm{})
	e.RegisterCS(KTrussAlgorithm{})
	e.RegisterCD(CODICILAlgorithm{})
	return e
}

// RegisterCS installs a community-search plugin (replacing any with the
// same name).
func (e *Explorer) RegisterCS(a CSAlgorithm) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cs[a.Name()] = a
}

// RegisterCD installs a community-detection plugin.
func (e *Explorer) RegisterCD(a CDAlgorithm) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cd[a.Name()] = a
}

// CSAlgorithms lists registered CS algorithm names, sorted.
func (e *Explorer) CSAlgorithms() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.cs))
	for n := range e.cs {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// CDAlgorithms lists registered CD algorithm names, sorted.
func (e *Explorer) CDAlgorithms() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.cd))
	for n := range e.cd {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Upload ingests a graph in the JSON wire format under the given name
// (Figure 4's upload; the file-path variant lives in cmd/cexplorer-cli).
func (e *Explorer) Upload(name string, r io.Reader) (*Dataset, error) {
	g, err := graph.LoadJSON(r)
	if err != nil {
		return nil, err
	}
	return e.AddGraph(name, g)
}

// AddGraph registers an in-memory graph as a dataset.
func (e *Explorer) AddGraph(name string, g *graph.Graph) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("upload: empty dataset name")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("upload: %w", err)
	}
	ds := NewDataset(name, g)
	e.mu.Lock()
	e.datasets[name] = ds
	c := e.cache
	e.mu.Unlock()
	if c != nil {
		// A re-registered name restarts its lineage at Version 0, which
		// would collide with cached keys from the previous graph — purge.
		c.Purge(name)
	}
	return ds, nil
}

// RemoveDataset unregisters a dataset: reads from this point on see
// ErrDatasetNotFound, exploration sessions anchored on it are closed, its
// cached results are purged, and its backing file mapping (if any) is
// released once in-flight pinned reads finish. Reports whether the name was
// registered. Used by the admin delete endpoint on a primary and by a
// replica un-claiming a dataset its primary no longer serves.
func (e *Explorer) RemoveDataset(name string) bool {
	e.mu.Lock()
	ds, ok := e.datasets[name]
	delete(e.datasets, name)
	c := e.cache
	e.mu.Unlock()
	if !ok {
		return false
	}
	m := &e.explore
	m.mu.Lock()
	evicted := m.dropDatasetLocked(name)
	m.mu.Unlock()
	closeSessions(evicted)
	if c != nil {
		c.Purge(name)
	}
	ds.Close()
	return true
}

// Dataset returns a registered dataset.
func (e *Explorer) Dataset(name string) (*Dataset, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d, ok := e.datasets[name]
	return d, ok
}

// Pin resolves a dataset by name once and pins that version's backing
// memory until the returned release is called: the entry point for a
// request that searches and then reads the graph by the answer's ids, all
// on the one version (see SearchOn).
func (e *Explorer) Pin(dataset string) (*Dataset, func(), error) {
	ds, ok := e.Dataset(dataset)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrDatasetNotFound, dataset)
	}
	unpin, err := ds.Pin()
	return ds, unpin, err
}

// Datasets lists registered dataset names, sorted.
func (e *Explorer) Datasets() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.datasets))
	for n := range e.datasets {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Search runs a registered CS algorithm (Figure 4's search). It observes
// ctx: cancellation or an expired deadline stops the computation inside the
// algorithm kernel, and the error wraps ErrCanceled or ErrTimeout. With a
// result cache installed (SetCache), the call is a version-keyed cache
// lookup: hits skip the kernel entirely, concurrent misses for one query
// coalesce onto a single computation, and the per-dataset admission bound
// can shed it with ErrOverloaded.
func (e *Explorer) Search(ctx context.Context, dataset, algo string, q Query) ([]Community, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapContextErr(err)
	}
	ds, ok := e.Dataset(dataset)
	if !ok {
		return nil, fmt.Errorf("%w: search: %q", ErrDatasetNotFound, dataset)
	}
	return e.SearchOn(ctx, ds, algo, q)
}

// SearchOn is Search on a dataset version the caller has already resolved.
// A caller that goes on to read the graph by the answer's ids (names, a
// layout) must use the version that produced them: a mutation landing
// between two lookups by name can add vertices the older version lacks.
// Resolve once with Pin, search with SearchOn, and unpin when done reading.
func (e *Explorer) SearchOn(ctx context.Context, ds *Dataset, algo string, q Query) ([]Community, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapContextErr(err)
	}
	e.mu.RLock()
	a, ok := e.cs[algo]
	c := e.cache
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: search: no CS algorithm %q", ErrUnknownAlgorithm, algo)
	}
	if c == nil {
		return e.searchKernel(ctx, ds, a, q)
	}
	return e.cachedCommunities(ctx, c, ds.Name, ds.Version, searchKey(algo, q), func(ctx context.Context) ([]Community, error) {
		return e.searchKernel(ctx, ds, a, q)
	})
}

// searchKernel is the uncached search core: pin the dataset version for the
// computation's lifetime and run the kernel.
func (e *Explorer) searchKernel(ctx context.Context, ds *Dataset, a CSAlgorithm, q Query) ([]Community, error) {
	unpin, err := ds.Pin()
	if err != nil {
		return nil, err
	}
	defer unpin()
	out, err := a.Search(ctx, ds, q)
	return out, wrapContextErr(err)
}

// Detect runs a registered CD algorithm (Figure 4's detect), observing ctx
// and the result cache like Search does.
func (e *Explorer) Detect(ctx context.Context, dataset, algo string) ([]Community, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapContextErr(err)
	}
	ds, ok := e.Dataset(dataset)
	if !ok {
		return nil, fmt.Errorf("%w: detect: %q", ErrDatasetNotFound, dataset)
	}
	e.mu.RLock()
	a, ok := e.cd[algo]
	c := e.cache
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: detect: no CD algorithm %q", ErrUnknownAlgorithm, algo)
	}
	if c == nil {
		return e.detectOn(ctx, ds, a)
	}
	return e.cachedCommunities(ctx, c, dataset, ds.Version, detectKey(algo), func(ctx context.Context) ([]Community, error) {
		return e.detectOn(ctx, ds, a)
	})
}

// detectOn is the uncached detection core.
func (e *Explorer) detectOn(ctx context.Context, ds *Dataset, a CDAlgorithm) ([]Community, error) {
	unpin, err := ds.Pin()
	if err != nil {
		return nil, err
	}
	defer unpin()
	out, err := a.Detect(ctx, ds)
	return out, wrapContextErr(err)
}

// Analysis is the report the analyze function produces for one community —
// the quality metrics and statistics panel of Figure 6(a).
type Analysis struct {
	Method string                 `json:"method"`
	CPJ    float64                `json:"cpj"`
	CMF    float64                `json:"cmf"`
	Stats  metrics.CommunityStats `json:"stats"`
	Theme  []string               `json:"theme"`
}

// Analyze computes quality metrics for a community against query vertex q
// (Figure 4's analyze), consulting the result cache when one is installed.
func (e *Explorer) Analyze(ctx context.Context, dataset string, c Community, q int32) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapContextErr(err)
	}
	ds, ok := e.Dataset(dataset)
	if !ok {
		return nil, fmt.Errorf("%w: analyze: %q", ErrDatasetNotFound, dataset)
	}
	e.mu.RLock()
	sc := e.cache
	e.mu.RUnlock()
	if sc == nil {
		return e.analyzeOn(ds, c, q)
	}
	v, err := sc.Do(ctx, dataset, ds.Version, analyzeKey(c, q), func(context.Context) (any, int64, error) {
		a, err := e.analyzeOn(ds, c, q)
		if err != nil {
			return nil, 0, err
		}
		return a, int64(len(a.Method)) + 256, nil
	})
	if err != nil {
		return nil, wrapContextErr(err)
	}
	return v.(*Analysis), nil
}

// analyzeOn is the uncached analysis core.
func (e *Explorer) analyzeOn(ds *Dataset, c Community, q int32) (*Analysis, error) {
	unpin, err := ds.Pin()
	if err != nil {
		return nil, err
	}
	defer unpin()
	if q < 0 || int(q) >= ds.Graph.N() {
		return nil, fmt.Errorf("%w: analyze: query vertex %d out of range", ErrInvalidQuery, q)
	}
	return &Analysis{
		Method: c.Method,
		CPJ:    metrics.CPJ(ds.Graph, c.Vertices),
		CMF:    metrics.CMF(ds.Graph, c.Vertices, q),
		Stats:  metrics.Stats(ds.Graph, c.Vertices),
		Theme:  metrics.Theme(ds.Graph, c.Vertices, 8),
	}, nil
}

// Placement is display's output: positions keyed to the community's
// vertices plus the induced edges, ready for the browser canvas.
type Placement struct {
	Vertices []int32        `json:"vertices"`
	Names    []string       `json:"names"`
	Points   []layout.Point `json:"points"`
	Edges    [][2]int32     `json:"edges"` // indexes into Vertices
}

// Display computes the community layout (Figure 4's display).
func (e *Explorer) Display(ctx context.Context, dataset string, c Community, opts layout.Options) (*Placement, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapContextErr(err)
	}
	ds, ok := e.Dataset(dataset)
	if !ok {
		return nil, fmt.Errorf("%w: display: %q", ErrDatasetNotFound, dataset)
	}
	return ds.Display(c, opts)
}

// Display lays a community out on this dataset version.
func (d *Dataset) Display(c Community, opts layout.Options) (*Placement, error) {
	unpin, err := d.Pin()
	if err != nil {
		return nil, err
	}
	defer unpin()
	sub := d.Graph.Induce(c.Vertices)
	el := layout.EdgeList{Count: sub.N()}
	for l := int32(0); l < int32(sub.N()); l++ {
		for _, u := range sub.Neighbors(l) {
			if l < u {
				el.Pairs = append(el.Pairs, [2]int32{l, u})
			}
		}
	}
	pts := layout.FruchtermanReingold(el, opts)
	names := make([]string, sub.N())
	for i, v := range sub.Vertices {
		names[i] = d.Graph.Name(v)
	}
	return &Placement{
		Vertices: sub.Vertices,
		Names:    names,
		Points:   pts,
		Edges:    el.Pairs,
	}, nil
}
