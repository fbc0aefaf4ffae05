// Command bench is the fleet-level benchmark of this repository: it boots a
// primary, two replicas and a router in one process over loopback HTTP,
// drives one of four workloads through the router, checks the answers, and
// prints every metric by name and unit. BENCHMARK.json at the repository
// root declares the contract; README.md here explains the choices.
//
// Usage:
//
//	bench --workload browse_hot --seed 1 --seconds 10 --trace 0   one run; the last stdout line is the result
//	bench -repeat 5 -out set.json [-commit abc123]                all workloads × 5 seeds, one result set
//	bench -compare a.json b.json                                  two result sets under BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"cexplorer/internal/servecache"
)

// options selects one run.
type options struct {
	workload string
	seed     int64
	seconds  float64 // measured window
	trace    bool
	scale    scale
	work     string // scratch directory for data dirs and trace.json
	closed   bool
	setups   int // fleet boots whose median is setup_s
}

// outcome is what one run reports.
type outcome struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Errors    []string
	Metrics   metrics
}

// counters is the fleet's public Stats() state at one instant.
type counters struct {
	cache                  servecache.Stats // summed over the replicas
	failovers, relayAborts int64
	bootstraps             int64
	batches, batchOps      int64
	persists               int64
	persistMS              float64
}

func (f *fleet) counters() counters {
	var c counters
	for _, r := range f.replicas {
		s := r.exp.Cache().Stats()
		c.cache.Hits += s.Hits
		c.cache.Misses += s.Misses
		c.cache.Coalesced += s.Coalesced
		c.cache.Computations += s.Computations
		c.cache.Evictions += s.Evictions
		c.bootstraps += r.rep.Stats().Bootstraps
	}
	rs := f.router.Stats()
	c.failovers, c.relayAborts = rs.Failovers, rs.RelayAborts
	ps := f.primary.srv.Stats()
	if ps.Batcher != nil {
		c.batches, c.batchOps = ps.Batcher.Batches, ps.Batcher.Ops
	}
	c.persists, c.persistMS = ps.SnapshotPersists, ps.SnapshotPersistMS
	return c
}

// runOne boots the fleet, runs one workload against it and reports: the
// end-to-end metrics from an untraced run, the per-layer ones from a traced
// run.
func runOne(o options) (*outcome, error) {
	if !slices.Contains(workloadNames, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	// A run that was killed leaves its fleet's data dir behind; one run at a
	// time uses a work directory, so whatever is there is stale.
	stale, _ := filepath.Glob(filepath.Join(o.work, "fleet-*"))
	for _, dir := range stale {
		os.RemoveAll(dir)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Set-up, o.setups times over; the last fleet is the one measured.
	var f *fleet
	var st setupTimes
	var setupS []float64
	for i := range o.setups {
		var err error
		if f, st, err = bootFleet(ctx, o.scale, o.seed, o.work); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, st.Total.Seconds())
		if i < o.setups-1 {
			f.stop()
		}
	}
	defer f.stop()

	clients := runtime.GOMAXPROCS(0)
	r := &run{
		f: f, c: newClient(clients), rec: &recorder{}, clients: clients, closed: o.closed,
		window: time.Duration(o.seconds * float64(time.Second)),
	}
	r.warm = min(r.window/5, 2*time.Second)
	defer r.c.close()

	layers := zeroed(perLayer)
	if o.trace {
		home, err := f.home(r.c)
		if err != nil {
			return nil, err
		}
		far := time.Now().Add(24 * time.Hour) // nothing is sampled until the workload opens its window
		r.tr = &tracer{start: time.Now(), home: home, from: far, until: far}
		if err := r.bootScratch(layers); err != nil {
			return nil, err
		}
	}

	workload := map[string]func(int64){
		"browse_hot": r.browseHot, "browse_cold": r.browseCold,
		"mixed_95_5": r.mixed, "ingest_restart": r.ingest,
	}[o.workload]
	workload(o.seed)
	after := f.counters()

	var failures []error
	r.verifyAll()
	before := r.atStart
	if after.cache.Evictions > before.cache.Evictions && o.workload == "browse_hot" {
		failures = append(failures, fmt.Errorf("browse_hot evicted %d cache entries: the hot panel must fit the result cache",
			after.cache.Evictions-before.cache.Evictions))
	}
	runtime.GC()
	runtime.GC() // the second collection empties the sync.Pools' victim caches
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	if len(r.streams) > 0 {
		if err := r.converged(); err != nil {
			failures = append(failures, err)
		}
	}
	e2e := metrics{}
	e2e.set("setup_s", median(setupS), "s")
	e2e["req_p50_ms"] = latencyStat(r.rec.samples, r.window, 0.50, classRead, classStep, classWrite)
	e2e["req_p95_ms"] = latencyStat(r.rec.samples, r.window, 0.95, classRead, classStep, classWrite)
	e2e["throughput_ops_s"] = rateStat(r.rec.samples, r.window, "1/s", classRead, classStep, classWrite)
	e2e.set("live_heap_mb", float64(mem.HeapAlloc)/(1<<20), "MB")

	if o.trace {
		if err := r.restarts(o.workload == "ingest_restart"); err != nil {
			failures = append(failures, err)
		}
		r.classMetrics(layers)
		r.setupMetrics(layers, st)
		r.atTraceMu.Lock()
		r.counterMetrics(layers, before, r.atTrace, after)
		r.atTraceMu.Unlock()
		r.kernelLayers(layers)
		r.servingLayers(layers)
		r.writeLayers(layers, o.seed)
		if err := r.snapshotLayers(layers, st); err != nil {
			failures = append(failures, err)
		}
		if err := r.tr.finish(o.work); err != nil {
			failures = append(failures, err)
		}
		r.traceMetrics(layers)
	}

	for _, err := range failures {
		r.rec.fail(err)
	}
	out := &outcome{
		Correct: r.rec.failed == 0, Attempted: r.rec.attempted, Failed: r.rec.failed,
		Errors: r.rec.errs, Metrics: e2e,
	}
	if o.trace {
		layers.set("fail_frac", float64(out.Failed)/float64(max(out.Attempted, 1)), "ratio")
		out.Metrics = layers
	}
	if out.Attempted == 0 {
		return nil, errors.New("the workload attempted nothing")
	}
	return out, nil
}

// classMetrics are latency and rate per request class.
func (r *run) classMetrics(m metrics) {
	s, w := r.rec.samples, r.window
	m["read_p50_ms"], m["read_p95_ms"] = latencyStat(s, w, 0.50, classRead), latencyStat(s, w, 0.95, classRead)
	m["read_rps"] = rateStat(s, w, "1/s", classRead)
	m["step_p50_ms"], m["step_p95_ms"] = latencyStat(s, w, 0.50, classStep), latencyStat(s, w, 0.95, classStep)
	m["write_ack_p50_ms"], m["write_ack_p95_ms"] = latencyStat(s, w, 0.50, classWrite), latencyStat(s, w, 0.95, classWrite)
	m["write_ops_s"] = rateStat(s, w, "1/s", classWrite)
	m["visible_lag_p50_ms"], m["visible_lag_p95_ms"] = latencyStat(s, w, 0.50, classLag), latencyStat(s, w, 0.95, classLag)
	for i, name := range []string{"repl.apply_lag_r1_ms", "repl.apply_lag_r2_ms"} {
		if len(r.lagByRep[i]) > 0 {
			m[name] = stat{Value: median(r.lagByRep[i]), Unit: "ms", N: len(r.lagByRep[i])}
		}
	}
	if len(r.respBytes) > 0 {
		m["server.resp_bytes_p50"] = stat{Value: median(r.respBytes), Unit: "bytes", N: len(r.respBytes)}
	}
	var late []float64
	for _, d := range r.rec.late {
		late = append(late, ms(d))
	}
	slices.Sort(late)
	m["loadgen.lateness_p95_ms"] = stat{Value: quantile(late, 0.95), Unit: "ms", N: len(late)}
	m.set("bench.verified", float64(r.verified), "count")
	m.set("bench.unverified", float64(r.unverified), "count")
	if len(r.restartMS) > 0 {
		m["restart_ms"] = stat{Value: median(r.restartMS), Unit: "ms", N: len(r.restartMS)}
		m.set("server.journal_replay_ms", median(r.replayMS), "ms")
	}

	// Tracing overhead: the traced half of the window against the untraced.
	var half [2][]float64
	for _, x := range s {
		if x.class != classLag && x.at >= 0 && x.at < w {
			i := int(2 * x.at / w)
			half[i] = append(half[i], ms(x.lat))
		}
	}
	if len(half[0]) > 0 && len(half[1]) > 0 {
		if plain := median(half[0]); plain > 0 {
			m.set("bench.trace_overhead_frac", median(half[1])/plain-1, "ratio")
		}
	}
}

func (r *run) setupMetrics(m metrics, st setupTimes) {
	m.set("gen.generate_ms", ms(st.Generate), "ms")
	m.set("api.build_indexes_ms", ms(st.BuildIndexes), "ms")
	m.set("kcore.decompose_ms", st.Index.CoreMS, "ms")
	m.set("cltree.build_ms", st.Index.CLTreeMS, "ms")
	m.set("ktruss.decompose_ms", st.Index.TrussMS, "ms")
}

// counterMetrics are the deltas of the fleet's public counters over the
// workload; the cache's over its untraced first half (see run.atTrace).
func (r *run) counterMetrics(m metrics, before, mid, after counters) {
	c := mid.cache
	hits, misses := c.Hits-before.cache.Hits, c.Misses-before.cache.Misses
	coalesced := c.Coalesced - before.cache.Coalesced
	if lookups := hits + misses + coalesced; lookups > 0 {
		m.set("servecache.hit_ratio", float64(hits)/float64(lookups), "ratio")
	}
	m.set("servecache.computations", float64(c.Computations-before.cache.Computations), "count")
	m.set("servecache.evictions", float64(c.Evictions-before.cache.Evictions), "count")
	m.set("servecache.coalesced", float64(coalesced), "count")
	m.set("repl.router_failovers", float64(after.failovers-before.failovers), "count")
	m.set("repl.relay_aborts", float64(after.relayAborts-before.relayAborts), "count")
	m.set("repl.replica_rebootstraps", float64(after.bootstraps-before.bootstraps), "count")
	if flushes := after.batches - before.batches; flushes > 0 {
		m.set("api.batcher_ops_per_flush", float64(after.batchOps-before.batchOps)/float64(flushes), "count")
	}
	m.set("server.persist_ms_total", after.persistMS-before.persistMS, "ms")
	m.set("server.compactions", float64(after.persists-before.persists), "count")
}

func (r *run) traceMetrics(m metrics) {
	for kind, names := range map[string][]string{
		"read":  {"router", "server", "explorer", "engine", "encode"},
		"write": {"router", "server", "mutate", "journal", "visible"},
	} {
		for name, v := range r.tr.selfTimes(kind, names) {
			m.set("trace."+kind+"."+name+"_ms", v, "ms")
		}
	}
}

// printResult writes the contract's result line: exactly correct, attempted,
// failed and metrics, each metric exactly a value and a unit.
func printResult(out *outcome) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for name, s := range out.Metrics {
		ms[name] = mv{s.Value, s.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": out.Correct, "attempted": out.Attempted, "failed": out.Failed, "metrics": ms,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// repeat runs every workload once per seed (untraced) plus one traced run
// on the first seed, and returns the result set.
func repeat(o options, n int, commit string) (*resultSet, error) {
	rs := newResultSet(commit, o.scale, int(o.seconds))
	for i := range n {
		rs.Seeds = append(rs.Seeds, o.seed+int64(i))
	}
	for _, wl := range workloadNames {
		for i, seed := range rs.Seeds {
			for _, trace := range []bool{false, true}[:1+btoi(i == 0)] {
				ro := o
				ro.workload, ro.seed, ro.trace = wl, seed, trace
				if trace {
					ro.setups = 1
				}
				start := time.Now()
				out, err := runOne(ro)
				if err != nil {
					return nil, fmt.Errorf("%s seed %d: %w", wl, seed, err)
				}
				fmt.Fprintf(os.Stderr, "%s seed %d trace %v: correct %v, %d attempted, %d failed (%.0fs)\n",
					wl, seed, trace, out.Correct, out.Attempted, out.Failed, time.Since(start).Seconds())
				rs.Runs = append(rs.Runs, runDoc{
					Workload: wl, Seed: seed, Trace: trace, Correct: out.Correct,
					Attempted: out.Attempted, Failed: out.Failed, Errors: out.Errors, Metrics: out.Metrics,
				})
			}
		}
	}
	return rs, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: browse_hot, browse_cold, mixed_95_5 or ingest_restart")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds   = flag.Float64("seconds", 10, "length of the measured window")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace.json instead of end-to-end metrics")
		scaleName = flag.String("scale", "default", "dataset scale: smoke, default or paper")
		work      = flag.String("work", ".bench_build", "scratch directory (data dirs, trace.json)")
		closed    = flag.Bool("closed", false, "drive the open-loop workloads closed-loop, to calibrate their rates")
		nRepeat   = flag.Int("repeat", 0, "run all workloads over this many seeds and write one result set")
		out       = flag.String("out", "", "with -repeat: result-set file (default stdout)")
		commit    = flag.String("commit", "unknown", "with -repeat: commit id recorded in the result set")
		cmp       = flag.Bool("compare", false, "compare two result-set files given as arguments")
		benchFile = flag.String("benchmark", "BENCHMARK.json", "with -compare: the file holding the bounds")
	)
	flag.Parse()
	sc, ok := scales[*scaleName]
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}
	o := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		scale: sc, work: *work, closed: *closed, setups: 3,
	}
	if o.trace || o.closed {
		o.setups = 1
	}
	switch {
	case *cmp:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result-set files"))
		}
		worse, err := compare(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *nRepeat > 0:
		rs, err := repeat(o, *nRepeat, *commit)
		if err != nil {
			fatal(err)
		}
		data, err := json.MarshalIndent(rs, "", " ")
		if err != nil {
			fatal(err)
		}
		if *out == "" {
			fmt.Println(string(data))
		} else if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		rs.printSpreads(os.Stderr)
		for _, r := range rs.Runs {
			if !r.Correct {
				os.Exit(1)
			}
		}
	default:
		res, err := runOne(o)
		if err != nil {
			fatal(err)
		}
		for _, e := range res.Errors {
			fmt.Fprintln(os.Stderr, "bench:", e)
		}
		if o.trace {
			fmt.Fprintln(os.Stderr, "bench: spans written to", filepath.Join(o.work, "trace.json"))
		}
		if err := printResult(res); err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
