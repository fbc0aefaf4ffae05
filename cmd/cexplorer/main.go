// Command cexplorer runs the C-Explorer web server (the browser–server
// model of Figure 3): a JSON API plus the embedded Exploration/Analysis UI.
//
// Usage:
//
//	cexplorer [-addr :8080] [-data.dir ./data] [-edges graph.txt -attrs attrs.txt -name mygraph]
//	cexplorer -role replica -primary http://primary:8080 [-addr :8081]
//	cexplorer -role router -primary http://primary:8080 -replicas http://r1:8081,http://r2:8082
//	cexplorer snapshot build -o out.cxsnap [-edges graph.txt [-attrs attrs.txt] | -json graph.json] [-name NAME]
//	cexplorer snapshot inspect file.cxsnap
//	cexplorer journal inspect [-v] file.cxjournal
//	cexplorer fleet status -nodes http://n1:8080,http://n2:8081 [-timeout 2s]
//
// -role selects the replication topology position (see internal/repl): a
// primary (the default) accepts writes and ships its mutation journal; a
// replica bootstraps every dataset from the primary's snapshots, tails the
// journal, and serves reads (writes answer 403 read_only); a router fronts
// the fleet, sending writes to the primary and fanning dataset reads across
// the replicas by consistent hashing on the dataset name. A router with
// self-healing on (the default; tune with -probe.interval, -probe.failures,
// -promote) probes every node's /api/v1/health, ejects dead nodes from the
// read ring via a per-node circuit breaker, and on sustained primary failure
// promotes the most-caught-up replica under a fenced fleet epoch. All roles
// drain gracefully on SIGTERM/SIGINT (-drain.timeout).
//
// Without -edges the server serves the built-in datasets: the paper's
// Figure-5 example graph and a synthetic DBLP-like network (size via
// -dblp.n).
//
// With -data.dir the server keeps a disk-backed catalog: every snapshot in
// the directory is loaded at boot (indexes pre-seeded — no rebuild), every
// upload is persisted atomically, and built-in datasets are snapshotted on
// first boot so later restarts are warm.
//
// `snapshot build` precomputes a dataset offline — parse, build all three
// indexes (CL-tree, core numbers, truss), write one checksummed file —
// which a server with -data.dir then opens in O(read) time. `snapshot
// inspect` verifies a file's checksum and prints its layout. `journal
// inspect` walks a mutation journal frame by frame — the same CRC checks
// boot replay and the replication feed perform — and prints each record's
// version, op breakdown and frame size, plus any torn tail. `fleet status`
// probes each node's /api/v1/health (the endpoint the router's failure
// detector uses) and prints role, fleet epoch, and per-dataset applied
// position and lag: the operator's view of who is primary after a failover.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/par"
	"cexplorer/internal/repl"
	"cexplorer/internal/servecache"
	"cexplorer/internal/server"
	"cexplorer/internal/snapshot"
)

func main() {
	if len(os.Args) > 1 && tools[os.Args[1]] != nil {
		switch err := runTool(os.Stdout, os.Args[1:]); {
		case err == nil, errors.Is(err, flag.ErrHelp):
		case errors.Is(err, errUsage):
			os.Exit(2)
		default:
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	runServer()
}

func runServer() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		dataDir       = flag.String("data.dir", "", "snapshot catalog directory (enables persistence + warm restarts)")
		edges         = flag.String("edges", "", "edge-list file to serve (optional)")
		attrs         = flag.String("attrs", "", "vertex-attribute file (optional, with -edges)")
		name          = flag.String("name", "uploaded", "dataset name for -edges")
		dblpN         = flag.Int("dblp.n", 20000, "synthetic DBLP size (0 disables)")
		dblpSeed      = flag.Int64("dblp.seed", 1, "synthetic DBLP seed")
		searchLimit   = flag.Int("search.limit", 0, "max computations running at once on this node; a cache miss past it waits (0 = 2×GOMAXPROCS)")
		searchTimeout = flag.Duration("search.timeout", 0, "deadline per search-class request, compute-slot wait included (0 = none)")
		exploreTTL    = flag.Duration("explore.ttl", 0, "idle lifetime of exploration sessions (0 = 15m default)")
		indexWorkers  = flag.Int("index.workers", 0, "workers for index construction and snapshot encode/decode (0 = GOMAXPROCS)")
		openModeFlag  = flag.String("open.mode", "auto", "how catalog snapshots are materialized: auto (mmap when eligible), mmap (require zero-copy), copy (always heap-decode)")
		cacheEntries  = flag.Int("cache.entries", servecache.DefaultMaxEntries, "result-cache capacity in entries (0 = the default; the cache is always on)")
		cacheBytes    = flag.Int64("cache.bytes", servecache.DefaultMaxBytes, "result-cache capacity in bytes")
		shedInflight  = flag.Int("shed.inflight", 0, "max concurrent cache-miss computations per dataset before shedding with 429 (0 = no shedding)")
		batchSize     = flag.Int("batch.size", api.DefaultBatchMaxOps, "mutation batcher flush threshold in ops (0 disables batching)")
		batchWait     = flag.Duration("batch.wait", api.DefaultBatchMaxWait, "mutation batcher max wait before flushing a partial batch")
		role          = flag.String("role", "primary", "replication role: primary (accept writes, ship journal), replica (tail a primary, serve reads), router (route across nodes)")
		primaryURL    = flag.String("primary", "", "primary base URL (replica and router roles)")
		replicaList   = flag.String("replicas", "", "comma-separated replica base URLs (router role)")
		replicaWait   = flag.Duration("replica.wait", 2*time.Second, "read-your-writes catch-up budget before a replica answers 503 replica_lagging")
		replRefresh   = flag.Duration("replica.refresh", 15*time.Second, "replica dataset-discovery period")
		replBuffer    = flag.Int("repl.buffer", repl.DefaultFeedRecords, "journal-shipping buffer capacity in records per dataset (primary role)")
		probeInterval = flag.Duration("probe.interval", time.Second, "router health-probe cadence (0 disables self-healing)")
		probeFailures = flag.Int("probe.failures", 3, "consecutive probe failures before a node's circuit opens")
		promote       = flag.Bool("promote", true, "router: auto-promote the most-caught-up replica when the primary is declared down")
		drainTimeout  = flag.Duration("drain.timeout", 10*time.Second, "graceful-shutdown drain budget on SIGTERM/SIGINT")
	)
	flag.Parse()

	if *role == "router" {
		runRouter(*addr, *primaryURL, *replicaList, routerHealOptions{
			interval: *probeInterval,
			failures: *probeFailures,
			promote:  *promote,
			drain:    *drainTimeout,
		})
		return
	}

	openMode, err := snapshot.ParseOpenMode(*openModeFlag)
	if err != nil {
		log.Fatalf("%v", err)
	}
	par.SetWorkers(*indexWorkers)
	exp := api.NewExplorer()
	srv := server.New(exp, log.Printf)
	srv.SetOpenMode(openMode)
	srv.SetSearchLimit(*searchLimit)
	if *searchTimeout > 0 {
		srv.SetSearchTimeout(*searchTimeout)
	}
	if *exploreTTL > 0 {
		exp.SetExploreTTL(*exploreTTL)
	}
	srv.EnableCache(*cacheEntries, *cacheBytes, *shedInflight)
	if *batchSize > 0 {
		srv.EnableBatcher(api.BatcherOptions{MaxOps: *batchSize, MaxWait: *batchWait})
	}

	// Fleet control: both server roles get the role-transition endpoints, so
	// a router can promote a replica or demote a returning stale primary
	// without operator intervention. The tailer factory is also what a
	// demotion uses to start following the new primary.
	srv.EnableFleet(server.FleetControl{
		StartTailer: func(primaryURL string) (server.ReplicaSource, func()) {
			rep := repl.NewReplica(exp, primaryURL, repl.ReplicaOptions{
				Refresh: *replRefresh,
				Logf:    log.Printf,
			})
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				rep.Run(ctx)
			}()
			return rep, func() {
				cancel()
				<-done
			}
		},
		Feed:        repl.FeedOptions{MaxRecords: *replBuffer},
		ReplicaWait: *replicaWait,
	})

	if *role == "replica" {
		// A replica owns no data: it bootstraps everything from the primary
		// and applies the journal stream, so local sources and the catalog
		// are ignored (replication would immediately replace them anyway).
		if *primaryURL == "" {
			log.Fatalf("-role replica requires -primary")
		}
		if *dataDir != "" || *edges != "" {
			log.Printf("replica: ignoring -data.dir/-edges (datasets come from the primary)")
		}
		srv.StartFleetReplica(*primaryURL)
		log.Printf("replica: tailing %s (refresh %s, read-your-writes wait %s)", *primaryURL, *replRefresh, *replicaWait)
		serveUntilSignal(func() error { return srv.ListenAndServe(*addr) }, srv.Shutdown, *drainTimeout)
		return
	}
	if *role != "primary" {
		log.Fatalf("unknown -role %q (want primary, replica, or router)", *role)
	}
	srv.EnableReplicationPrimary(repl.FeedOptions{MaxRecords: *replBuffer})

	if *dataDir != "" {
		if err := srv.SetDataDir(*dataDir); err != nil {
			log.Fatalf("%v", err)
		}
		start := time.Now()
		loaded, err := srv.LoadSnapshots()
		if err != nil {
			log.Fatalf("%v", err)
		}
		if loaded > 0 {
			log.Printf("catalog: %d dataset(s) warm from %s in %s",
				loaded, *dataDir, time.Since(start).Round(time.Millisecond))
		}
	}

	// Built-ins: generated only when the catalog did not already provide
	// them, and snapshotted on first boot so the next restart is warm.
	if _, ok := exp.Dataset("figure5"); !ok {
		if _, err := exp.AddGraph("figure5", gen.Figure5()); err != nil {
			log.Fatalf("figure5: %v", err)
		}
		persistBuiltin(srv, exp, "figure5")
	}

	if *dblpN > 0 {
		if ds, ok := exp.Dataset("dblp"); ok {
			log.Printf("dblp: served from catalog snapshot (%d vertices; -dblp.n/-dblp.seed ignored — delete %s/dblp.cxsnap to regenerate)",
				ds.Graph.N(), *dataDir)
		} else {
			cfg := gen.DefaultDBLPConfig()
			cfg.Authors = *dblpN
			cfg.Seed = *dblpSeed
			log.Printf("generating synthetic DBLP (%d authors)...", cfg.Authors)
			d := gen.GenerateDBLP(cfg)
			if _, err := exp.AddGraph("dblp", d.Graph); err != nil {
				log.Fatalf("dblp: %v", err)
			}
			srv.SetProfiles("dblp", d.Profiles)
			st := d.Graph.ComputeStats()
			log.Printf("dblp ready: %d vertices, %d edges, avg degree %.1f",
				st.Vertices, st.Edges, st.AvgDegree)
			persistBuiltin(srv, exp, "dblp")
		}
	}

	if *edges != "" {
		if ds, ok := exp.Dataset(*name); ok {
			// Same warm-restart rule as the built-ins: the catalog copy
			// (indexes pre-seeded) wins over an O(build) re-parse.
			log.Printf("%s: served from catalog snapshot (%d vertices; -edges ignored — delete its .cxsnap to re-import)",
				*name, ds.Graph.N())
		} else {
			g, err := loadFiles(*edges, *attrs)
			if err != nil {
				log.Fatalf("loading %s: %v", *edges, err)
			}
			if _, err := exp.AddGraph(*name, g); err != nil {
				log.Fatalf("adding %s: %v", *name, err)
			}
			log.Printf("%s ready: %d vertices, %d edges", *name, g.N(), g.M())
			persistBuiltin(srv, exp, *name)
		}
	}

	serveUntilSignal(func() error { return srv.ListenAndServe(*addr) }, srv.Shutdown, *drainTimeout)
}

// serveUntilSignal runs listen until it fails or a SIGTERM/SIGINT arrives,
// then drains gracefully through shutdown: in-flight requests finish within
// the drain budget (a node's Shutdown also releases journal long-polls and
// stops a replica's tailer before the listener closes). listen returns nil
// or http.ErrServerClosed once shutdown has closed it.
func serveUntilSignal(listen func() error, shutdown func(context.Context) error, drain time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- listen() }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills us
		log.Printf("shutdown: draining (budget %s)", drain)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		<-errc
		log.Printf("shutdown: complete")
	}
}

// routerHealOptions carries the self-healing flags into runRouter.
type routerHealOptions struct {
	interval time.Duration
	failures int
	promote  bool
	drain    time.Duration
}

// runRouter serves the routing role: no engine, no datasets — just the
// consistent-hash proxy over the primary and replicas, plus (unless
// -probe.interval=0) the health monitor and promotion supervisor.
func runRouter(addr, primary, replicaList string, heal routerHealOptions) {
	if primary == "" {
		log.Fatalf("-role router requires -primary")
	}
	var replicas []string
	for _, r := range strings.Split(replicaList, ",") {
		if r = strings.TrimSpace(r); r != "" {
			replicas = append(replicas, r)
		}
	}
	rt := repl.NewRouter(primary, replicas, repl.RouterOptions{Logf: log.Printf})
	// The monitor stops when the drain starts, so it cannot promote a
	// replica while this router shuts down.
	ctx, stopMonitor := context.WithCancel(context.Background())
	defer stopMonitor()
	if heal.interval > 0 {
		rt.EnableSelfHealing(repl.SelfHealOptions{
			Monitor: repl.MonitorOptions{
				Interval:      heal.interval,
				FailThreshold: heal.failures,
				Logf:          log.Printf,
			},
			Promote: heal.promote,
		})
		go rt.Run(ctx)
		log.Printf("router: self-healing on (probe %s, threshold %d, promote %v)",
			heal.interval, heal.failures, heal.promote)
	}
	log.Printf("router: writes → %s, reads → %d replica(s) by dataset hash", primary, len(replicas))
	srv := &http.Server{
		Addr:              addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	serveUntilSignal(srv.ListenAndServe, func(ctx context.Context) error {
		stopMonitor()
		return srv.Shutdown(ctx)
	}, heal.drain)
}

// persistBuiltin snapshots a freshly built dataset into the catalog (no-op
// without -data.dir). Failures are logged, not fatal: the dataset still
// serves from memory.
func persistBuiltin(srv *server.Server, exp *api.Explorer, name string) {
	if srv.DataDir() == "" {
		return
	}
	ds, ok := exp.Dataset(name)
	if !ok {
		return
	}
	if _, err := srv.PersistDataset(ds); err != nil {
		log.Printf("catalog: persisting %s: %v", name, err)
	}
}

func loadFiles(edgePath, attrPath string) (*graph.Graph, error) {
	ef, err := os.Open(edgePath)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	if attrPath == "" {
		return graph.LoadEdgeList(ef)
	}
	af, err := os.Open(attrPath)
	if err != nil {
		return nil, err
	}
	defer af.Close()
	return graph.LoadAttributed(ef, af)
}
