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
// inspect` verifies a file's checksum and prints its layout.
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
	"path/filepath"
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
	if len(os.Args) > 1 && os.Args[1] == "snapshot" {
		if err := runSnapshot(os.Args[2:]); err != nil {
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
		searchLimit   = flag.Int("search.limit", 0, "max concurrent searches (0 = 2×GOMAXPROCS)")
		searchTimeout = flag.Duration("search.timeout", 0, "deadline per search-class request, queue wait included (0 = none)")
		exploreTTL    = flag.Duration("explore.ttl", 0, "idle lifetime of exploration sessions (0 = 15m default)")
		indexWorkers  = flag.Int("index.workers", 0, "workers for index construction and snapshot encode/decode (0 = GOMAXPROCS)")
		openModeFlag  = flag.String("open.mode", "auto", "how catalog snapshots are materialized: auto (mmap when eligible), mmap (require zero-copy), copy (always heap-decode)")
		cacheEntries  = flag.Int("cache.entries", servecache.DefaultMaxEntries, "result-cache capacity in entries (0 disables the cache)")
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
	if *searchLimit > 0 {
		srv.SetSearchLimit(*searchLimit)
	}
	if *searchTimeout > 0 {
		srv.SetSearchTimeout(*searchTimeout)
	}
	if *exploreTTL > 0 {
		exp.SetExploreTTL(*exploreTTL)
	}
	if *cacheEntries > 0 {
		srv.EnableCache(*cacheEntries, *cacheBytes, *shedInflight)
	}
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
		serveUntilSignal(srv, *addr, *drainTimeout)
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

	serveUntilSignal(srv, *addr, *drainTimeout)
}

// serveUntilSignal runs the server until it fails or a SIGTERM/SIGINT
// arrives, then drains gracefully: in-flight requests finish (bounded by the
// drain budget), journal long-polls are released, and a replica's tailer
// stops before the listener closes.
func serveUntilSignal(srv *server.Server, addr string, drain time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(addr) }()
	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills us
		log.Printf("shutdown: draining (budget %s)", drain)
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		<-errc // ListenAndServe returns nil after a clean Shutdown
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
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
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
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		log.Printf("shutdown: draining router (budget %s)", heal.drain)
		sctx, cancel := context.WithTimeout(context.Background(), heal.drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		<-errc
		log.Printf("shutdown: complete")
	}
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

// runSnapshot dispatches the `cexplorer snapshot` subcommands.
func runSnapshot(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: cexplorer snapshot <build|inspect> ...")
	}
	switch args[0] {
	case "build":
		return snapshotBuild(args[1:])
	case "inspect":
		return snapshotInspect(args[1:])
	default:
		return fmt.Errorf("unknown snapshot subcommand %q (want build or inspect)", args[0])
	}
}

// snapshotBuild is the offline index precomputation step: load a graph
// from text or JSON, build all three indexes, and write one snapshot file.
func snapshotBuild(args []string) error {
	fs := flag.NewFlagSet("snapshot build", flag.ExitOnError)
	var (
		out      = fs.String("o", "", "output snapshot file (required)")
		edges    = fs.String("edges", "", "edge-list input")
		attrs    = fs.String("attrs", "", "vertex-attribute input (with -edges)")
		jsonPath = fs.String("json", "", "JSON wire-format input (alternative to -edges)")
		name     = fs.String("name", "", "dataset name to embed (default: derived from input filename)")
		dblpN    = fs.Int("dblp.n", 0, "generate a synthetic DBLP of this size instead of reading a file")
		dblpSeed = fs.Int64("dblp.seed", 1, "synthetic DBLP seed")
		workers  = fs.Int("index.workers", 0, "workers for index construction and snapshot encoding (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("snapshot build: -o is required")
	}
	par.SetWorkers(*workers)

	var (
		g   *graph.Graph
		err error
		src string
	)
	switch {
	case *dblpN > 0:
		cfg := gen.DefaultDBLPConfig()
		cfg.Authors = *dblpN
		cfg.Seed = *dblpSeed
		g = gen.GenerateDBLP(cfg).Graph
		src = "dblp"
	case *jsonPath != "":
		f, ferr := os.Open(*jsonPath)
		if ferr != nil {
			return ferr
		}
		g, err = graph.LoadJSON(f)
		f.Close()
		src = *jsonPath
	case *edges != "":
		g, err = loadFiles(*edges, *attrs)
		src = *edges
	default:
		return fmt.Errorf("snapshot build: need one of -edges, -json, or -dblp.n")
	}
	if err != nil {
		return fmt.Errorf("snapshot build: loading %s: %v", src, err)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("snapshot build: invalid graph: %v", err)
	}
	if *name == "" {
		*name = datasetNameFrom(src)
	}

	ds := api.NewDataset(*name, g)
	start := time.Now()
	ds.BuildIndexes()
	buildTime := time.Since(start)
	start = time.Now()
	n, err := ds.WriteSnapshotFile(*out)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d vertices, %d edges → %s (%d bytes)\n", *name, g.N(), g.M(), *out, n)
	fmt.Printf("indexes built in %s (%d workers), written in %s\n",
		buildTime.Round(time.Millisecond), par.Workers(), time.Since(start).Round(time.Millisecond))
	return nil
}

func datasetNameFrom(src string) string {
	base := strings.TrimSuffix(filepath.Base(src), filepath.Ext(src))
	if base == "" || base == "." || base == string(filepath.Separator) {
		return "dataset"
	}
	return base
}

// snapshotInspect verifies a snapshot file and prints its metadata and
// section layout without materializing the dataset.
func snapshotInspect(args []string) error {
	fs := flag.NewFlagSet("snapshot inspect", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cexplorer snapshot inspect FILE")
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := snapshot.Inspect(f)
	if err != nil {
		return err
	}
	fmt.Printf("%s: snapshot v%d, %d bytes, checksum OK\n", path, info.Version, info.Bytes)
	fmt.Printf("  dataset   %q\n", info.Name)
	fmt.Printf("  graph     %d vertices, %d edges, %d keywords, named=%v\n",
		info.Vertices, info.Edges, info.Keywords, info.Named)
	fmt.Printf("  indexes   core=%v cltree=%v ktruss=%v\n", info.HasCore, info.HasTree, info.HasTruss)
	fmt.Printf("  created   %s\n", info.Created.Format(time.RFC3339))
	if info.ZeroCopy {
		fmt.Printf("  zero-copy eligible (opens via mmap without heap copies)\n")
	} else {
		fmt.Printf("  zero-copy ineligible: %s\n", info.ZeroCopyReason)
	}
	fmt.Printf("  sections         offset       bytes  aligned\n")
	for _, sec := range info.Sections {
		fmt.Printf("    %-14s %7d  %10d  %v\n", sec.Name, sec.Offset, sec.Bytes, sec.Aligned)
	}
	return nil
}
