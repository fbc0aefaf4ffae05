// Package cexplorer is an open-source reproduction of "C-Explorer: Browsing
// Communities in Large Graphs" (Fang, Cheng, Luo, Hu, Huang — PVLDB 10(12),
// VLDB 2017): an online, interactive community-retrieval platform for large
// attributed graphs.
//
// # What it does
//
// C-Explorer answers community search (CS) queries — "give me the community
// of this vertex" — over graphs whose vertices carry keywords. Its engine is
// the ACQ query (Fang et al., PVLDB 2016): the returned community is a
// connected subgraph containing the query vertex q in which every member has
// at least k neighbors inside the community (structure cohesiveness) and all
// members share a maximum-size subset of q's keywords (keyword
// cohesiveness). Queries run against the CL-tree index, a linear-space
// organization of the graph's nested k-core hierarchy with per-node inverted
// keyword lists.
//
// Alongside ACQ, the platform ships the CS baselines Global (Sozio &
// Gionis), Local (Cui et al.), k-truss community search (Huang et al.), and
// the content+link community-detection method CODICIL (Ruan et al.), plus an
// analysis module (CPJ/CMF quality metrics, statistics), force-directed
// layout, and a browser/server front end.
//
// # Quick start
//
//	g := cexplorer.Figure5()                    // the paper's example graph
//	eng := cexplorer.NewEngine(cexplorer.BuildIndex(g))
//	q, _ := g.VertexByName("A")
//	comms, _ := eng.Search(q, 2, nil, cexplorer.Dec)
//	// comms[0].Vertices == {A, C, D}, sharing keywords {x, y}
//
// Or drive everything through the Figure-4 API:
//
//	exp := cexplorer.NewExplorer()
//	exp.AddGraph("dblp", cexplorer.GenerateDBLP(cexplorer.DefaultDBLPConfig()).Graph)
//	comms, _ := exp.Search(ctx, "dblp", "ACQ", cexplorer.Query{Vertices: []int32{0}, K: 4})
//
// See the examples/ directory for runnable walkthroughs of Figures 1, 2,
// and 6, and cmd/cexplorer for the web server.
//
// # Contexts and typed errors
//
// Every Explorer query method (Search, Detect, Analyze, Display, Explore,
// ExploreStep) takes a context.Context as its first argument, and the
// CSAlgorithm/CDAlgorithm plugin interfaces receive it too. Cancellation
// propagates into the algorithm kernels — the ACQ engine polls per
// candidate verification, the core/truss decompositions every few thousand
// vertices/edges — so canceling the context (or letting its deadline
// expire) stops the computation promptly rather than after it finishes.
//
// Failures wrap typed sentinels: ErrDatasetNotFound, ErrVertexNotFound,
// ErrSessionNotFound, ErrUnknownAlgorithm, ErrInvalidQuery, ErrCanceled,
// ErrTimeout, and api.ErrOverloaded (admission control shed the request).
// Branch with errors.Is; the HTTP layer maps them onto 404 / 400 / 429 /
// 499 / 504 with a JSON error envelope {"error", "code"}.
//
// # API versioning policy
//
// The HTTP surface is versioned by path. The /api/v1 tree is the stable
// contract: resource-oriented routes (datasets, vertices, exploration
// sessions as sub-resources), limit/offset pagination with totals on
// community lists, and the typed error envelope. Within v1, changes are
// additive only — new endpoints, new optional request fields, new response
// fields; existing fields never change meaning or disappear. Breaking
// changes require a new version prefix (/api/v2) served alongside v1. The
// pre-v1 flat routes (/api/search, /api/graphs, ...) are maintained as
// thin aliases of the v1 handler cores for the embedded UI and existing
// clients; new integrations should target /api/v1. The contract is pinned
// by the TestV1* suite (run in CI with -count=2) and documented in
// openapi.yaml at the repository root.
//
// # Concurrency model
//
// The read path is built for parallel query serving. A Graph and a built
// Index (CL-tree) are immutable and safely shared by any number of
// goroutines. An Engine is the opposite: it carries per-query state
// (candidate buffers, interned keyword-set IDs) and must be confined to one
// goroutine at a time.
//
// There are two ways to honor that contract:
//
//   - Engine-per-goroutine: call NewEngine(idx) in each worker. An engine
//     is a few words; its buffers grow on first use.
//   - Pooled engines (what the server does): a Dataset keeps a sync.Pool of
//     warm engines over its CL-tree. Handlers call AcquireEngine /
//     ReleaseEngine, so concurrent searches on one dataset reuse buffers
//     that are already grown and run fully in parallel — the dataset's lazy
//     indexes are built once behind sync.Once, and reads after that take no
//     lock.
//
// The HTTP layer (internal/server) additionally bounds concurrent search
// execution with a worker limit (default 2×GOMAXPROCS, -search.limit on the
// cexplorer command), deadline-bounds search-class requests when
// -search.timeout is set (the budget covers queue wait plus computation),
// and reports request-level counters at /api/stats.
//
// # Query pipeline
//
// A search that misses the result cache hashes nothing and sorts almost
// nothing. The CL-tree locates the anchor of (q,k) — the node whose subtree
// is the connected k-core containing q; the subtree's ascending vertex list
// is computed once per tree, memoized on the node and shared read-only by
// ACQ (its candidate universe), exploration sessions (the ring) and Global
// (whose answer it is). ACQ rejects a keyword set in O(deg q) when q lacks
// k neighbors carrying it, and otherwise peels the set's candidates on a
// graph.Scratch — epoch-stamped vertex sets, a degree array, worklists,
// borrowed from the graph's own pool for one search and reset in O(1).
// Local, k-truss search, Induce and the theme counter run on the same
// scratch, and communities come out ascending by reading the marks back in
// id order. Vertex lists are immutable once returned: they may be the
// index's memo, sit in the result cache, or belong to a session.
//
// # Parallel index construction
//
// The write path — building indexes — scales with cores too. A dataset's
// three indexes (CL-tree, core numbers, truss decomposition) build
// concurrently under Dataset.BuildIndexes, so the cold-build wall time is
// the slowest individual build rather than their sum; the per-index
// sync.Once guards make the eager build safe to race with lazy builders on
// the query path. The truss engine itself is parallel and CSR-native: the
// graph exposes a canonical edge-ID surface (internal/graph EdgeIDs), the
// degeneracy-oriented triangle counting shards vertex chunks across a
// worker pool with per-worker counters merged afterwards, and the peel loop
// is a bucket queue over materialized triangle lists — O(m + Σ support)
// with no hash map and no heap. Snapshot section encode/decode parallelizes
// across the same worker pool (sections are independent byte ranges; the
// file bytes and trailing CRC are identical to a serial write). One knob
// governs all of it: -index.workers on the cexplorer command (default
// GOMAXPROCS), reported together with per-index build wall times at
// /api/stats.
//
// # Persistence & warm restarts
//
// Datasets persist as snapshots (internal/snapshot): one versioned,
// checksummed binary file carrying the graph's CSR arrays, keyword arenas,
// vocabulary, and names together with the precomputed indexes — core
// numbers, the CL-tree in arena form with its inverted keyword lists, and
// the truss decomposition. Every payload is a length-prefixed contiguous
// array, so opening a snapshot is sequential bulk reads plus pointer
// stitching; a Dataset opened this way (OpenSnapshot) has its lazy index
// builders pre-seeded and never pays construction again.
//
// The server keeps a disk-backed catalog when started with -data.dir:
// uploads persist atomically via temp-file + rename, every snapshot in the
// directory loads at boot, GET /api/graphs reports per-dataset provenance
// and resident indexes, and GET /api/stats accumulates snapshot
// load/persist timings. Offline precomputation lives in the
// `cexplorer snapshot build` and `cexplorer snapshot inspect` subcommands.
//
// # Serve-time speed layer
//
// Query serving sits behind a result cache (internal/servecache) keyed by
// (dataset, version, canonical query): because a search is a pure function
// of the immutable version it resolves, a mutation's version bump makes
// every stale entry unreachable with no invalidation protocol at all.
// Concurrent requests for the same key coalesce through singleflight (one
// leader computes, followers share the answer; a leader's own cancellation
// promotes a follower instead of poisoning the key), deterministic request
// failures are negative-cached, and an optional per-dataset admission bound
// (-shed.inflight) sheds excess cache-miss computations immediately with
// the retryable 429 "overloaded" envelope, keeping the served tail near the
// intrinsic service time under overload. On the write side a
// MutationBatcher (internal/api) coalesces concurrent single-op mutation
// requests into one atomic engine apply and one journal fsync (-batch.size,
// -batch.wait), with per-submission fallback isolation when a combined
// batch fails. Cache and batcher counters appear at /api/stats; the
// open-loop load generator (internal/loadgen, cmd/loadgen) measures the
// whole stack's latency distribution from outside.
//
// # Dynamic graphs & versioning
//
// Datasets are versioned: a Dataset value is one immutable version (graph
// plus indexes), and a mutation batch (api.Mutation via Explorer.Mutate, or
// POST /api/v1/datasets/{name}/mutations) derives the successor — core
// numbers maintained with the incremental subcore kernels (internal/kcore),
// the CL-tree repaired locally (internal/cltree), the truss invalidated to
// rebuild lazily. Publishing is one atomic swap: requests in flight keep
// the exact version they resolved, exploration sessions stay pinned to the
// version they were created on, and new requests see the successor. The
// version counter persists in snapshots, and with a catalog configured
// every acknowledged batch is journaled (.cxjournal, checksummed,
// tail-tolerant) so a warm restart replays exactly the batches the snapshot
// predates; the catalog compacts journals into fresh snapshots once they
// grow. The equivalence harness (internal/dyntest) holds incremental
// maintenance bit-compatible with from-scratch rebuilds: core numbers,
// CL-tree communities, and ACQ answers are asserted identical after every
// random mutation batch, with failing op streams shrunk to minimal repros.
//
// # Replication
//
// The serving stack scales reads horizontally with journal shipping
// (internal/repl). A primary publishes every applied batch — direct,
// coalesced, or replayed — into a per-dataset in-memory ring of CXJRNL
// frames and serves them over long-polling HTTP; sequence numbers are
// dataset versions, so one counter is both replication cursor and
// read-your-writes token. Replicas bootstrap from the primary's snapshot
// stream, tail the journal, and apply records through Explorer.Mutate —
// the same incremental maintenance, minus batching and local journaling —
// verifying each record lands on the exact version the primary published.
// Epoch fencing (409 epoch_fenced) makes every discontinuity — primary
// restart, buffer trim, re-upload, version gap — a forced re-bootstrap
// rather than a silent divergence. A consistent-hashing router fronts the
// fleet: writes to the primary, reads fanned across replicas with stable
// per-dataset affinity (keeping result caches hot) and failover through
// the ring to the primary. Read-your-writes is the X-CExplorer-Min-Version
// header: a lagging replica waits, then answers 503 replica_lagging, which
// the router converts into forwarding. Convergence — replica bit-equal to
// primary at every version, across fences and restarts — is proven by the
// dyntest oracles in internal/repl's test suite.
package cexplorer
