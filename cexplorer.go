package cexplorer

import (
	"cexplorer/internal/api"
	"cexplorer/internal/cltree"
	"cexplorer/internal/codicil"
	"cexplorer/internal/core"
	"cexplorer/internal/csearch"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
	"cexplorer/internal/ktruss"
	"cexplorer/internal/layout"
	"cexplorer/internal/metrics"
	"cexplorer/internal/par"
	"cexplorer/internal/server"
)

// Core graph types.
type (
	// Graph is an immutable attributed graph (CSR adjacency + interned
	// keyword sets). Build one with NewBuilder or the Load* functions.
	Graph = graph.Graph
	// Builder accumulates vertices/edges/attributes and freezes them into a
	// Graph.
	Builder = graph.Builder
	// Subgraph is a materialized induced subgraph with local IDs.
	Subgraph = graph.Subgraph
	// JSONGraph is the JSON wire format for upload/download.
	JSONGraph = graph.JSONGraph
)

// NewBuilder returns a graph builder with capacity hints.
func NewBuilder(n, m int) *Builder { return graph.NewBuilder(n, m) }

// Loaders (the upload formats).
var (
	// LoadEdgeList parses "u v" lines into an unattributed Graph.
	LoadEdgeList = graph.LoadEdgeList
	// LoadAttributed parses an edge list plus "id<TAB>name<TAB>keywords"
	// attribute lines.
	LoadAttributed = graph.LoadAttributed
	// LoadJSON parses the JSON wire format.
	LoadJSON = graph.LoadJSON
)

// The ACQ engine (the paper's primary contribution).
type (
	// Index is the CL-tree: the k-core hierarchy of an attributed graph
	// with per-node inverted keyword lists (paper §3.2).
	Index = cltree.Tree
	// Engine executes ACQ queries against one Index.
	Engine = core.Engine
	// Community is one attributed community: vertices + shared keywords.
	Community = core.Community
	// Algorithm selects the ACQ query algorithm (Dec, IncS, IncT, Basic).
	Algorithm = core.Algorithm
)

// ACQ query algorithms (§3.2). Dec is the system default.
const (
	Dec   = core.Dec
	IncS  = core.IncS
	IncT  = core.IncT
	Basic = core.Basic
)

// BuildIndex constructs the CL-tree for g.
func BuildIndex(g *Graph) *Index { return cltree.Build(g) }

// NewEngine returns an ACQ engine over the given index. Engines are cheap;
// create one per goroutine.
func NewEngine(idx *Index) *Engine { return core.NewEngine(idx) }

// CoreNumbers computes the k-core decomposition of g (Batagelj–Zaveršnik).
func CoreNumbers(g *Graph) []int32 { return kcore.Decompose(g) }

// Baseline community search.
type (
	// GlobalResult is a Global (Sozio–Gionis) search outcome.
	GlobalResult = csearch.GlobalResult
	// LocalResult is a Local (Cui et al.) search outcome.
	LocalResult = csearch.LocalResult
	// LocalOptions tunes Local's expansion budget.
	LocalOptions = csearch.LocalOptions
	// TrussDecomposition holds per-edge trussness (Huang et al.).
	TrussDecomposition = ktruss.Decomposition
)

// Global returns the connected k-core containing q (the Global baseline).
var Global = csearch.Global

// GlobalContext is Global with cooperative cancellation.
var GlobalContext = csearch.GlobalContext

// GlobalMax maximizes the minimum degree of q's community.
var GlobalMax = csearch.GlobalMax

// Local runs local-expansion community search from q.
var Local = csearch.Local

// LocalContext is Local with cooperative cancellation.
var LocalContext = csearch.LocalContext

// TrussDecompose computes the k-truss decomposition of g.
var TrussDecompose = ktruss.Decompose

// TrussDecomposeContext is TrussDecompose with cooperative cancellation.
var TrussDecomposeContext = ktruss.DecomposeContext

// TrussDecomposeParallel is TrussDecomposeContext with an explicit worker
// count for the support-counting phase (≤ 0 = the process default).
var TrussDecomposeParallel = ktruss.DecomposeParallel

// SetIndexWorkers sets the process-wide worker count used by parallel index
// construction and the snapshot codec (0 restores the GOMAXPROCS default) —
// the library-level rendering of the server's -index.workers flag.
var SetIndexWorkers = par.SetWorkers

// CODICIL community detection.
type (
	// CodicilOptions configures the CODICIL pipeline.
	CodicilOptions = codicil.Options
	// CodicilResult is a finished CODICIL run.
	CodicilResult = codicil.Result
)

// Codicil runs the CODICIL content+link detection pipeline.
var Codicil = codicil.Detect

// Analysis metrics (§4 Comparison analysis).
var (
	// CPJ is the community pairwise Jaccard keyword similarity.
	CPJ = metrics.CPJ
	// CMF is the community member frequency w.r.t. the query's keywords.
	CMF = metrics.CMF
	// CommunityStatistics computes the Figure-6(a) statistics row.
	CommunityStatistics = metrics.Stats
	// Theme returns a community's most frequent keywords.
	Theme = metrics.Theme
	// NMI compares two partitions (normalized mutual information).
	NMI = metrics.NMI
)

// Layout (the display API function).
type (
	// Point is a 2-D position.
	Point = layout.Point
	// LayoutOptions configures force-directed layout.
	LayoutOptions = layout.Options
	// LayoutGraph is the minimal view the layouter needs.
	LayoutGraph = layout.Graph
	// EdgeList adapts (n, pairs) to LayoutGraph.
	EdgeList = layout.EdgeList
)

// FruchtermanReingold computes a force-directed layout.
var FruchtermanReingold = layout.FruchtermanReingold

// CircularLayout places n vertices on a circle.
var CircularLayout = layout.Circular

// The Figure-4 developer API and the web platform. Every Explorer query
// method takes a context.Context first: cancellation and deadlines
// propagate into the algorithm kernels, and the typed errors below report
// how a request ended.
type (
	// Explorer is the five-function CExplorer interface (upload / search /
	// detect / analyze / display) with pluggable algorithm registries and
	// exploration sessions.
	Explorer = api.Explorer
	// Query is a community-search request.
	Query = api.Query
	// APICommunity is the algorithm-independent community record.
	APICommunity = api.Community
	// CSAlgorithm is the plugin interface for community search.
	CSAlgorithm = api.CSAlgorithm
	// CDAlgorithm is the plugin interface for community detection.
	CDAlgorithm = api.CDAlgorithm
	// Dataset bundles a graph with its lazily built indexes.
	Dataset = api.Dataset
	// Server is the browser/server front end.
	Server = server.Server
	// ExploreState is the client-visible snapshot of an exploration
	// session (the paper's expand/contract browse loop as an API).
	ExploreState = api.ExploreState
	// ExploreStats reports the exploration-session counters.
	ExploreStats = api.ExploreStats
)

// Typed API errors: branch with errors.Is. The HTTP layer maps these onto
// 404 (dataset/vertex/session not found), 400 (unknown algorithm, invalid
// query), 499 (canceled), and 504 (timed out).
var (
	ErrDatasetNotFound  = api.ErrDatasetNotFound
	ErrVertexNotFound   = api.ErrVertexNotFound
	ErrSessionNotFound  = api.ErrSessionNotFound
	ErrUnknownAlgorithm = api.ErrUnknownAlgorithm
	ErrInvalidQuery     = api.ErrInvalidQuery
	ErrCanceled         = api.ErrCanceled
	ErrTimeout          = api.ErrTimeout
)

// NewExplorer returns an Explorer with the built-in algorithms (ACQ,
// Global, Local, KTruss; CODICIL) registered.
func NewExplorer() *Explorer { return api.NewExplorer() }

// Persistence (the snapshot subsystem).
type (
	// DatasetInfo records a dataset's provenance (built vs snapshot).
	DatasetInfo = api.DatasetInfo
	// IndexStatus reports which indexes a dataset holds in memory.
	IndexStatus = api.IndexStatus
)

// OpenSnapshot materializes a dataset (graph + pre-seeded indexes) from a
// snapshot stream; name overrides the embedded name when non-empty.
var OpenSnapshot = api.OpenSnapshot

// OpenSnapshotFile materializes a dataset from a snapshot file.
var OpenSnapshotFile = api.OpenSnapshotFile

// NewServer wraps an Explorer with the HTTP front end of Figure 3.
var NewServer = server.New

// Data substrate.
type (
	// DBLPConfig parameterizes the synthetic DBLP-like network.
	DBLPConfig = gen.DBLPConfig
	// DBLP bundles the generated graph with ground truth and profiles.
	DBLP = gen.DBLP
	// Profile is the per-author record of Figure 2.
	Profile = gen.Profile
)

// Figure5 returns the paper's worked-example graph (10 vertices, 11 edges).
var Figure5 = gen.Figure5

// GenerateDBLP builds the synthetic DBLP-like co-authorship network.
var GenerateDBLP = gen.GenerateDBLP

// DefaultDBLPConfig is the benchmark-scale configuration (20k authors).
var DefaultDBLPConfig = gen.DefaultDBLPConfig

// PaperScaleConfig matches the paper's 977,288-vertex graph.
var PaperScaleConfig = gen.PaperScaleConfig
