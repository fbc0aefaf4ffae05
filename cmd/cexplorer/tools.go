package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/par"
	"cexplorer/internal/repl"
	"cexplorer/internal/snapshot"
)

// tools are the operator subcommands, by command then subcommand. Each
// writes its report to w and returns an error instead of exiting.
var tools = map[string]map[string]func(w io.Writer, args []string) error{
	"snapshot": {"build": snapshotBuild, "inspect": snapshotInspect},
	"journal":  {"inspect": journalInspect},
	"fleet":    {"status": fleetStatus},
}

// runTool runs `cexplorer COMMAND SUBCOMMAND [flags]`; args[0] names a
// command in tools.
func runTool(w io.Writer, args []string) error {
	subs := tools[args[0]]
	if len(args) < 2 || subs[args[1]] == nil {
		return fmt.Errorf("usage: cexplorer %s %s ...", args[0], strings.Join(slices.Sorted(maps.Keys(subs)), "|"))
	}
	return subs[args[1]](w, args[2:])
}

// errUsage marks a flag parse error: the flag set has already printed it
// with its usage text, so main exits 2 without printing it again.
var errUsage = errors.New("usage")

// parseFlags parses args into fs, marking a parse error with errUsage (a
// -h request still matches flag.ErrHelp).
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	return nil
}

// snapshotBuild is the offline index precomputation step: load a graph
// from text or JSON, build all three indexes, and write one snapshot file.
func snapshotBuild(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("snapshot build", flag.ContinueOnError)
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
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("snapshot build: -o is required")
	}
	var inputs []string
	for _, in := range []struct {
		flag string
		set  bool
	}{{"-edges", *edges != ""}, {"-json", *jsonPath != ""}, {"-dblp.n", *dblpN > 0}} {
		if in.set {
			inputs = append(inputs, in.flag)
		}
	}
	switch {
	case len(inputs) > 1:
		return fmt.Errorf("snapshot build: %s each name an input; give only one", strings.Join(inputs, " and "))
	case *attrs != "" && *edges == "":
		return fmt.Errorf("snapshot build: -attrs needs -edges")
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
	fmt.Fprintf(w, "%s: %d vertices, %d edges → %s (%d bytes)\n", *name, g.N(), g.M(), *out, n)
	fmt.Fprintf(w, "indexes built in %s (%d workers), written in %s\n",
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
func snapshotInspect(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("snapshot inspect", flag.ContinueOnError)
	if err := parseFlags(fs, args); err != nil {
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
	fmt.Fprintf(w, "%s: snapshot v%d, %d bytes, checksum OK\n", path, info.Version, info.Bytes)
	fmt.Fprintf(w, "  dataset   %q\n", info.Name)
	fmt.Fprintf(w, "  graph     %d vertices, %d edges, %d keywords, named=%v\n",
		info.Vertices, info.Edges, info.Keywords, info.Named)
	fmt.Fprintf(w, "  indexes   core=%v cltree=%v ktruss=%v\n", info.HasCore, info.HasTree, info.HasTruss)
	fmt.Fprintf(w, "  created   %s\n", info.Created.Format(time.RFC3339))
	if info.ZeroCopy {
		fmt.Fprintf(w, "  zero-copy eligible (opens via mmap without heap copies)\n")
	} else {
		fmt.Fprintf(w, "  zero-copy ineligible: %s\n", info.ZeroCopyReason)
	}
	fmt.Fprintf(w, "  sections         offset       bytes  aligned\n")
	for _, sec := range info.Sections {
		fmt.Fprintf(w, "    %-14s %7d  %10d  %v\n", sec.Name, sec.Offset, sec.Bytes, sec.Aligned)
	}
	return nil
}

// journalInspect verifies a mutation journal frame by frame and prints each
// record's version (its replication seq), op breakdown, and frame size —
// the journal-side mirror of snapshotInspect. A torn tail (crash
// mid-append) is reported, not treated as corruption; a bad header, a
// checksummed-but-malformed record, or a record whose version is not one
// past the one before it (where boot replay stops) is an error matching
// snapshot.ErrJournalCorrupt.
func journalInspect(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("journal inspect", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print every op, not just per-record summaries")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cexplorer journal inspect [-v] FILE")
	}
	path := fs.Arg(0)
	if _, err := os.Stat(path); err != nil {
		return err
	}
	cur := snapshot.OpenJournalCursor(path)
	defer cur.Close()

	var (
		records  int
		totalOps int
		kinds    [4]int
		first    uint64
		last     uint64
	)
	for {
		rec, frame, err := cur.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", records+1, err)
		}
		if records > 0 && rec.Version != last+1 {
			return fmt.Errorf("record %d: %w: version %d does not follow %d", records+1, snapshot.ErrJournalCorrupt, rec.Version, last)
		}
		if records == 0 {
			first = rec.Version
		}
		last = rec.Version
		records++
		totalOps += len(rec.Ops)
		counts := map[byte]int{}
		for _, op := range rec.Ops {
			if int(op.Kind) < len(kinds) {
				kinds[op.Kind]++
			}
			counts[op.Kind]++
		}
		fmt.Fprintf(w, "  record %-4d seq=%-6d ops=%-4d %-40s %6d bytes  crc OK\n",
			records, rec.Version, len(rec.Ops), opSummary(counts), len(frame))
		if *verbose {
			for _, op := range rec.Ops {
				switch op.Kind {
				case snapshot.JournalAddVertex:
					fmt.Fprintf(w, "    addVertex  name=%q keywords=%v\n", op.Name, op.Keywords)
				case snapshot.JournalAddEdge:
					fmt.Fprintf(w, "    addEdge    %d-%d\n", op.U, op.V)
				case snapshot.JournalRemoveEdge:
					fmt.Fprintf(w, "    removeEdge %d-%d\n", op.U, op.V)
				}
			}
		}
	}
	if cur.Offset() == 0 {
		// The cursor never got past the header: the file ends inside it.
		fmt.Fprintf(w, "%s: %d bytes, no complete journal header (a partial first append; replay truncates it)\n",
			path, cur.Pending())
		return nil
	}
	fmt.Fprintf(w, "%s: journal v1, %d records (%d ops), %d bytes, checksums OK\n",
		path, records, totalOps, cur.Offset())
	if records > 0 {
		fmt.Fprintf(w, "  versions  %d..%d\n", first, last)
		fmt.Fprintf(w, "  ops       addEdge=%d removeEdge=%d addVertex=%d\n",
			kinds[snapshot.JournalAddEdge], kinds[snapshot.JournalRemoveEdge], kinds[snapshot.JournalAddVertex])
	}
	if pending := cur.Pending(); pending > 0 {
		fmt.Fprintf(w, "  torn tail %d trailing bytes (partial append; replay and tailers skip it)\n", pending)
	}
	return nil
}

// opSummary renders a per-record op-kind histogram compactly.
func opSummary(counts map[byte]int) string {
	var parts []string
	for _, k := range []struct {
		kind byte
		name string
	}{
		{snapshot.JournalAddEdge, "addEdge"},
		{snapshot.JournalRemoveEdge, "removeEdge"},
		{snapshot.JournalAddVertex, "addVertex"},
	} {
		if n := counts[k.kind]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k.name, n))
		}
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}

// fleetStatus probes every node's health endpoint concurrently and prints
// a node table and a per-dataset position table. Any unreachable node is
// an error, after both tables are printed.
func fleetStatus(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fleet status", flag.ContinueOnError)
	nodes := fs.String("nodes", "", "comma-separated node base URLs to probe")
	timeout := fs.Duration("timeout", 2*time.Second, "probe deadline per node")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	var list []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimRight(strings.TrimSpace(n), "/"); n != "" {
			list = append(list, n)
		}
	}
	if len(list) == 0 {
		return fmt.Errorf("fleet status: -nodes lists no usable URLs")
	}

	type probed struct {
		node   string
		health *repl.HealthStatus
		err    error
	}
	results := make([]probed, len(list))
	var wg sync.WaitGroup
	for i, n := range list {
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			defer cancel()
			h, err := repl.FetchHealth(ctx, nil, n)
			results[i] = probed{node: n, health: h, err: err}
		}(i, n)
	}
	wg.Wait()

	unreachable := 0
	fmt.Fprintf(w, "%-32s %-10s %6s %8s %s\n", "NODE", "ROLE", "EPOCH", "UPTIME", "PRIMARY")
	for _, p := range results {
		if p.err != nil {
			unreachable++
			fmt.Fprintf(w, "%-32s %-10s %6s %8s (%v)\n", p.node, "DOWN", "-", "-", p.err)
			continue
		}
		h := p.health
		fmt.Fprintf(w, "%-32s %-10s %6d %7ds %s\n", p.node, h.Role, h.FleetEpoch, h.UptimeSec, h.Primary)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-32s %-16s %22s %10s %10s %6s %s\n",
		"NODE", "DATASET", "EPOCH", "APPLIED", "HEAD", "LAG", "PHASE")
	for _, p := range results {
		if p.err != nil {
			continue
		}
		for _, name := range slices.Sorted(maps.Keys(p.health.Datasets)) {
			d := p.health.Datasets[name]
			lag := int64(d.HeadSeq) - int64(d.AppliedSeq)
			fmt.Fprintf(w, "%-32s %-16s %22d %10d %10d %6d %s\n",
				p.node, name, d.Epoch, d.AppliedSeq, d.HeadSeq, lag, d.Phase)
		}
	}
	if unreachable > 0 {
		return fmt.Errorf("fleet status: %d of %d nodes unreachable", unreachable, len(list))
	}
	return nil
}
