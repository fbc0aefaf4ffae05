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
// canceled, so a dropped client or an expired deadline frees the compute
// slot it runs in. It must not wait on another read of the Explorer, which
// would need a second slot.
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
// engines. All methods are safe for concurrent use. Each index is filled
// once — built lazily on first use, seeded by OpenSnapshot (so a warm open
// never pays construction), or carried from the predecessor by Mutate — and
// read lock-free after that: the first builder of one index never blocks
// searches that need another, and searches on one dataset run in parallel.
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

	// lin identifies the lineage (an upload or snapshot open and every
	// version mutated from it) for the result cache's keys.
	lin uint64

	// backing is non-nil when the graph and pre-seeded indexes borrow a
	// mapped snapshot file (see backing.go); nil for heap-backed datasets.
	backing *backingRef

	// The derived indexes (see slot). order is the k-order the core
	// maintainer keeps beside core, never persisted (see Mutate); names
	// memoizes a form of the graph's name table (see NameForm).
	tree  slot[*cltree.Tree]
	core  slot[[]int32]
	order slot[*kcore.Order]
	truss slot[*ktruss.Decomposition]
	names slot[any]

	// engines holds warm *core.Engine values (their interned keyword-set
	// tables and candidate buffers already grown) so concurrent handlers
	// check one out instead of regrowing them per request. The O(n) working
	// memory of a search is pooled on the graph (graph.Scratch), not here.
	engines sync.Pool
}

// DatasetInfo records a dataset's provenance for the catalog and the
// /api/v1/datasets resources.
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

var lineageIDs atomic.Uint64

func newLineage() uint64 { return lineageIDs.Add(1) }

// Lineage identifies d's lineage: an upload or snapshot open and every
// version mutated from it share it, and no other dataset does.
func (d *Dataset) Lineage() uint64 { return d.lin }

// NewDataset wraps a graph, starting a new lineage.
func NewDataset(name string, g *graph.Graph) *Dataset {
	return &Dataset{Name: name, Graph: g, Info: DatasetInfo{Source: "built"}, lin: newLineage()}
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
	return timingsMS(&buildTotals.tree, &buildTotals.core, &buildTotals.truss)
}

// Tree returns the CL-tree, building it on first use if the dataset was not
// opened from a snapshot that already carried it.
func (d *Dataset) Tree() *cltree.Tree {
	return d.tree.get(func() *cltree.Tree { return cltree.Build(d.Graph) }, &buildTotals.tree)
}

// CoreNumbers returns the core decomposition, computing it on first use if
// it was not pre-seeded from a snapshot.
func (d *Dataset) CoreNumbers() []int32 {
	return d.core.get(func() []int32 { return kcore.Decompose(d.Graph) }, &buildTotals.core)
}

// Truss returns the truss decomposition, computing it on first use if it
// was neither pre-seeded from a snapshot nor carried from the predecessor
// by Mutate. The build parallelizes its support counting across
// par.Workers() workers (the -index.workers knob).
func (d *Dataset) Truss() *ktruss.Decomposition {
	return d.truss.get(func() *ktruss.Decomposition { return ktruss.Decompose(d.Graph) }, &buildTotals.truss)
}

// Indexes reports which indexes are resident, without building any.
func (d *Dataset) Indexes() IndexStatus {
	_, tree := d.tree.resident()
	_, core := d.core.resident()
	_, truss := d.truss.resident()
	return IndexStatus{CLTree: tree, Core: core, Truss: truss}
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
	return timingsMS(&d.tree.nanos, &d.core.nanos, &d.truss.nanos)
}

// timingsMS reads three nanosecond counters as an IndexTimings.
func timingsMS(tree, core, truss *atomic.Int64) IndexTimings {
	ms := func(n *atomic.Int64) float64 { return float64(n.Load()) / 1e6 }
	return IndexTimings{CLTreeMS: ms(tree), CoreMS: ms(core), TrussMS: ms(truss)}
}

// BuildIndexes eagerly builds every index the dataset does not yet hold
// (the offline precomputation step of `cexplorer snapshot build` and the
// warm-up step of the upload path). The three builds fan out across the
// par.Workers() pool — each index is filled once, so racing with lazy
// builders is safe — and the call returns when the slowest finishes: at ≥3
// workers the wall time is max(individual builds), not their sum; at 1
// worker the builds run strictly sequentially. The truss build's internal
// counting pool is sized by the same knob but is nested, so total build
// goroutines can briefly exceed the knob while the fan-out and the counting
// phase overlap.
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
// server keeps its pre-quoted JSON name table here. Racing first callers
// share one build.
func (d *Dataset) NameForm(build func(*graph.Graph) any) any {
	return d.names.get(func() any { return build(d.Graph) }, nil)
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
	if tree, ok := ds.tree.resident(); ok {
		comp = tree.ConnectedKCore(v, k)
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

	// writers holds the lock of every dataset name being written (Lock).
	writersMu sync.Mutex
	writers   map[string]*nameLock

	// cache is the serve-time result cache (see cache.go) and the one
	// admission point of read work: Search, Detect, Analyze and every
	// exploration step are version-keyed lookups in it.
	cache *servecache.Cache

	// explore holds the live exploration sessions (the paper's Figure 1/6
	// browse loop as server-side state; see explore.go).
	explore exploreManager
}

// NewExplorer returns an Explorer with the built-in algorithms registered
// (ACQ, Global, Local, KTruss; CODICIL) and a result cache of the default
// size (replace it with SetCache).
func NewExplorer() *Explorer {
	e := &Explorer{
		datasets: make(map[string]*Dataset),
		writers:  make(map[string]*nameLock),
		cs:       make(map[string]CSAlgorithm),
		cd:       make(map[string]CDAlgorithm),
		cache:    NewServeCache(0, 0, 0),
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

// Upload registers a graph in the JSON wire format (Figure 4's upload;
// cmd/cexplorer's -edges flag and `snapshot build` read graph files).
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
	e.replace(name, ds)
	return ds, nil
}

// RemoveDataset deletes a dataset, reporting whether it was registered.
func (e *Explorer) RemoveDataset(name string) bool {
	return e.replace(name, nil)
}

// replace registers next under name (nil deletes it) as one write.
func (e *Explorer) replace(name string, next *Dataset) bool {
	w := e.Lock(name)
	defer w.Unlock()
	_, ok := w.Dataset()
	w.Store(next, nil)
	return ok
}

// A Writer holds the writer lock of one dataset name. Every change to a
// name takes it (batches, uploads, deletes, and the serving layer's
// persists and boot replay), so the dataset a Writer finds registered
// stays so until it stores another or unlocks. Reads never take it.
type Writer struct {
	e    *Explorer
	name string
	l    *nameLock
}

// nameLock is one name's writer lock; the last of its refs deletes it.
type nameLock struct {
	mu   sync.Mutex
	refs int
}

// Lock takes the writer lock of the dataset name.
func (e *Explorer) Lock(name string) *Writer {
	e.writersMu.Lock()
	l := e.writers[name]
	if l == nil {
		l = &nameLock{}
		e.writers[name] = l
	}
	l.refs++
	e.writersMu.Unlock()
	l.mu.Lock()
	return &Writer{e, name, l}
}

// Unlock releases the writer lock.
func (w *Writer) Unlock() {
	w.l.mu.Unlock()
	w.e.writersMu.Lock()
	if w.l.refs--; w.l.refs == 0 {
		delete(w.e.writers, w.name)
	}
	w.e.writersMu.Unlock()
}

// Dataset returns the registered dataset.
func (w *Writer) Dataset() (*Dataset, bool) { return w.e.Dataset(w.name) }

// Store registers next under the name (nil deletes it). commit, if
// non-nil, runs under the registry lock just before the store, and its
// error aborts the store; it must not call back into the Explorer. Ending
// a lineage purges its cached results (only to free memory); a delete also
// closes its exploration sessions and releases its mapping once in-flight
// pinned reads finish.
func (w *Writer) Store(next *Dataset, commit func() error) error {
	e := w.e
	e.mu.Lock()
	prev, ok := e.datasets[w.name]
	if commit != nil {
		if err := commit(); err != nil {
			e.mu.Unlock()
			return err
		}
	}
	if next != nil {
		e.datasets[w.name] = next
	} else {
		delete(e.datasets, w.name)
	}
	c := e.cache
	e.mu.Unlock()
	if !ok || next != nil && next.lin == prev.lin {
		return nil
	}
	c.Purge(w.name)
	if next == nil {
		e.explore.dropDataset(w.name)
		prev.Close()
	}
	return nil
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
	ds, err := e.resolve(context.TODO(), "", dataset)
	if err != nil {
		return nil, nil, err
	}
	unpin, err := ds.Pin()
	return ds, unpin, err
}

// resolve is the by-name entry of every Explorer call: it fails first on a
// done ctx, then with ErrDatasetNotFound, prefixing the name with where
// (e.g. "search: ").
func (e *Explorer) resolve(ctx context.Context, where, dataset string) (*Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapContextErr(err)
	}
	ds, ok := e.Dataset(dataset)
	if !ok {
		return nil, fmt.Errorf("%w: %s%q", ErrDatasetNotFound, where, dataset)
	}
	return ds, nil
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
// algorithm kernel, or its wait for a compute slot, and the error wraps
// ErrCanceled or ErrTimeout. The call is a version-keyed lookup in the
// result cache: hits skip the kernel entirely, concurrent misses for one
// query coalesce onto a single computation, and the per-dataset admission
// bound can shed it with ErrOverloaded.
func (e *Explorer) Search(ctx context.Context, dataset, algo string, q Query) ([]Community, error) {
	ds, err := e.resolve(ctx, "search: ", dataset)
	if err != nil {
		return nil, err
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
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: search: no CS algorithm %q", ErrUnknownAlgorithm, algo)
	}
	return e.cachedCommunities(ctx, ds, searchKey(algo, q), func(ctx context.Context) ([]Community, error) {
		unpin, err := ds.Pin()
		if err != nil {
			return nil, err
		}
		defer unpin()
		return a.Search(ctx, ds, q)
	})
}

// Detect runs a registered CD algorithm (Figure 4's detect), observing ctx
// and the result cache like Search does.
func (e *Explorer) Detect(ctx context.Context, dataset, algo string) ([]Community, error) {
	ds, err := e.resolve(ctx, "detect: ", dataset)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	a, ok := e.cd[algo]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: detect: no CD algorithm %q", ErrUnknownAlgorithm, algo)
	}
	return e.cachedCommunities(ctx, ds, detectKey(algo), func(ctx context.Context) ([]Community, error) {
		unpin, err := ds.Pin()
		if err != nil {
			return nil, err
		}
		defer unpin()
		return a.Detect(ctx, ds)
	})
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
// (Figure 4's analyze) as a lookup in the result cache. It observes ctx like
// Search does: CPJ is quadratic in the community, and its pair loop stops
// at the next row once ctx is done.
func (e *Explorer) Analyze(ctx context.Context, dataset string, c Community, q int32) (*Analysis, error) {
	ds, err := e.resolve(ctx, "analyze: ", dataset)
	if err != nil {
		return nil, err
	}
	v, err := e.Cache().Do(ctx, dataset, ds.lin, ds.Version, analyzeKey(c, q), func(ctx context.Context) (any, int64, error) {
		a, err := analyzeOn(ctx, ds, c, q)
		if err != nil {
			return nil, 0, wrapContextErr(err)
		}
		return a, int64(len(a.Method)) + 256, nil
	})
	if err != nil {
		return nil, wrapContextErr(err)
	}
	return v.(*Analysis), nil
}

// analyzeOn is the analysis a cache miss computes.
func analyzeOn(ctx context.Context, ds *Dataset, c Community, q int32) (*Analysis, error) {
	unpin, err := ds.Pin()
	if err != nil {
		return nil, err
	}
	defer unpin()
	if q < 0 || int(q) >= ds.Graph.N() {
		return nil, fmt.Errorf("%w: analyze: query vertex %d out of range", ErrInvalidQuery, q)
	}
	if err := checkIDs(ds.Graph, "analyze", c.Vertices); err != nil {
		return nil, err
	}
	cpj, err := metrics.CPJ(ctx, ds.Graph, c.Vertices)
	if err != nil {
		return nil, err
	}
	return &Analysis{
		Method: c.Method,
		CPJ:    cpj,
		CMF:    metrics.CMF(ds.Graph, c.Vertices, q),
		Stats:  metrics.Stats(ds.Graph, c.Vertices),
		Theme:  metrics.Theme(ds.Graph, c.Vertices, 8),
	}, nil
}

// checkIDs rejects a community that names a vertex g does not have: the
// ids may come from a client, and the kernels index by them unchecked.
func checkIDs(g *graph.Graph, op string, vs []int32) error {
	for _, v := range vs {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("%w: %s: vertex %d out of range", ErrInvalidQuery, op, v)
		}
	}
	return nil
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
	ds, err := e.resolve(ctx, "display: ", dataset)
	if err != nil {
		return nil, err
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
	if err := checkIDs(d.Graph, "display", c.Vertices); err != nil {
		return nil, err
	}
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
