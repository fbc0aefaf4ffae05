package main

// What the benchmark reports: the metric registry BENCHMARK.json mirrors,
// the versioned result-set document `-repeat` writes, and `-compare`.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// names and units plus the regression bounds; a test keeps the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the fleet would see. Every workload
// reports every one of them (the benchmark contract requires it), so they
// are the ones all four workloads exercise: their requests' latency and
// rate, boot and memory. Latency and rate per request class are in perLayer.
var endToEnd = []metricDef{
	{"setup_s", "s"},            // generate + index + persist + boot + both replicas bootstrapped; median of the run's set-ups
	{"req_p50_ms", "ms"},        // routed request latency, every request the workload's users send
	{"req_p95_ms", "ms"},        //
	{"throughput_ops_s", "1/s"}, // user work completed: 1 per read or step, ops per mutation request
	{"live_heap_mb", "MB"},      // HeapAlloc after GC at the end of the window, whole fleet
}

// perLayer are the unbounded metrics: per request class first, then one
// group per module. README.md maps each to the end-to-end metric it moves.
var perLayer = []metricDef{
	{"read_p50_ms", "ms"}, {"read_p95_ms", "ms"}, {"read_rps", "1/s"},
	{"step_p50_ms", "ms"}, {"step_p95_ms", "ms"},
	{"write_ack_p50_ms", "ms"}, {"write_ack_p95_ms", "ms"}, {"write_ops_s", "1/s"},
	{"visible_lag_p50_ms", "ms"}, {"visible_lag_p95_ms", "ms"},
	{"fail_frac", "ratio"},

	{"gen.generate_ms", "ms"}, {"kcore.decompose_ms", "ms"}, {"cltree.build_ms", "ms"},
	{"ktruss.decompose_ms", "ms"}, {"api.build_indexes_ms", "ms"}, {"repl.bootstrap_ms", "ms"},

	{"core.acq_ms", "ms"}, {"core.acq_allocs_per_op", "count"}, {"csearch.global_ms", "ms"},
	{"csearch.local_ms", "ms"}, {"ktruss.communities_ms", "ms"},
	{"api.explore_open_ms", "ms"}, {"api.explore_step_ms", "ms"},
	{"layout.fr_ms", "ms"}, {"metrics.analyze_ms", "ms"},

	{"servecache.hit_ns", "ns"}, {"servecache.hit_ratio", "ratio"}, {"servecache.computations", "count"},
	{"servecache.evictions", "count"}, {"servecache.coalesced", "count"},

	{"server.hit_overhead_ms", "ms"}, {"server.resp_bytes_p50", "bytes"}, {"server.search_direct_ms", "ms"},

	{"repl.router_hop_ms", "ms"}, {"repl.gate_wait_ms", "ms"}, {"repl.router_failovers", "count"},
	{"repl.relay_aborts", "count"}, {"repl.replica_rebootstraps", "count"},

	{"api.mutate_single_ms", "ms"}, {"api.mutate_batch64_us_per_op", "us"}, {"api.batcher_ops_per_flush", "count"},
	{"snapshot.journal_append_ms", "ms"}, {"snapshot.journal_bytes_per_op", "bytes"},
	{"snapshot.bytes_per_edge", "bytes"}, {"server.persist_ms_total", "ms"}, {"server.compactions", "count"},

	// restart_ms is the cold restart of the primary to its first answered
	// search. It was an end-to-end metric until two ten-seed sets of the same
	// code disagreed on it by 30% (87 ms against 113 ms on browse_cold): a
	// tenth of a second of page faults on a fresh mapping is what this
	// virtual machine repeats worst.
	{"restart_ms", "ms"}, {"server.journal_replay_ms", "ms"},
	{"snapshot.encode_ms", "ms"}, {"snapshot.open_mmap_ms", "ms"}, {"snapshot.open_copy_ms", "ms"},
	{"snapshot.warm_vs_cold_ratio", "ratio"},

	{"repl.feed_ship_us", "us"}, {"repl.apply_lag_r1_ms", "ms"}, {"repl.apply_lag_r2_ms", "ms"},

	{"loadgen.lateness_p95_ms", "ms"}, {"bench.trace_overhead_frac", "ratio"},
	{"bench.verified", "count"}, {"bench.unverified", "count"},

	// Mean self time per depth of the traced replays (span minus child
	// spans); total is the mean routed span they add up to.
	{"trace.read.total_ms", "ms"}, {"trace.write.total_ms", "ms"},
	{"trace.read.router_ms", "ms"}, {"trace.read.server_ms", "ms"}, {"trace.read.explorer_ms", "ms"},
	{"trace.read.engine_ms", "ms"}, {"trace.read.encode_ms", "ms"},
	{"trace.write.router_ms", "ms"}, {"trace.write.server_ms", "ms"}, {"trace.write.mutate_ms", "ms"},
	{"trace.write.journal_ms", "ms"}, {"trace.write.visible_ms", "ms"},
}

// metrics is one run's reported numbers by name.
type metrics map[string]stat

func (m metrics) set(name string, v float64, unit string) { m[name] = stat{Value: v, Unit: unit} }

// zeroed returns a metrics map holding every def at zero, so a workload that
// does not exercise a layer still reports its metric.
func zeroed(defs []metricDef) metrics {
	m := metrics{}
	for _, d := range defs {
		m[d.Name] = stat{Unit: d.Unit}
	}
	return m
}

// schemaVersion names the result-set layout below.
const schemaVersion = "cexplorer-bench/1"

// resultSet is the one schema every committed benchmark record uses.
type resultSet struct {
	Schema     string   `json:"schema"`
	Commit     string   `json:"commit"`
	Scale      string   `json:"scale"`
	Seconds    int      `json:"seconds"`
	Seeds      []int64  `json:"seeds"`
	GoVersion  string   `json:"goVersion"`
	Hardware   string   `json:"hardware"`
	CPUs       int      `json:"cpus"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Runs       []runDoc `json:"runs"`
}

// runDoc is one workload execution: end-to-end metrics from an untraced
// run, per-layer metrics from a traced one.
type runDoc struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   metrics  `json:"metrics"`
}

func newResultSet(commit string, sc scale, seconds int) *resultSet {
	return &resultSet{
		Schema: schemaVersion, Commit: commit, Scale: sc.Name, Seconds: seconds,
		GoVersion: runtime.Version(), Hardware: runtime.GOOS + "/" + runtime.GOARCH,
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// values collects one end-to-end metric of one workload across the set's
// untraced runs.
func (rs *resultSet) values(workload, metric string) []float64 {
	var vals []float64
	for _, r := range rs.Runs {
		if r.Workload == workload && !r.Trace {
			if s, ok := r.Metrics[metric]; ok {
				vals = append(vals, s.Value)
			}
		}
	}
	return vals
}

// quartiles follows Python's statistics.quantiles(values, n=4), the method
// the benchmark contract measures spread with.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := slices.Clone(vals)
	slices.Sort(d)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) (med, share float64) {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0, 0
	}
	return q2, (q3 - q1) / q2
}

// printSpreads prints each workload × end-to-end metric's median and spread.
func (rs *resultSet) printSpreads(w io.Writer) {
	fmt.Fprintf(w, "%-15s %-18s %4s %12s %8s\n", "workload", "metric", "runs", "median", "spread")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			vals := rs.values(wl, d.Name)
			med, sh := spread(vals)
			fmt.Fprintf(w, "%-15s %-18s %4d %12.4f %7.1f%%\n", wl, d.Name, len(vals), med, 100*sh)
		}
	}
}

// benchmarkFile is BENCHMARK.json as far as this program reads it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compare prints one row per workload × end-to-end metric: both medians, the
// ratio with its base, and a verdict under BENCHMARK.json's bound — "worse"
// when b is worse than a by more than the bound, "unresolved" when either
// side's own spread is wider than the bound, "ok" otherwise. It reports
// whether any row is worse.
func compare(w io.Writer, benchPath, aPath, bPath string) (worse bool, err error) {
	var bf benchmarkFile
	var a, b resultSet
	for path, v := range map[string]any{benchPath: &bf, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	if a.Schema != schemaVersion || b.Schema != schemaVersion {
		return false, fmt.Errorf("result sets must be %s (got %q and %q)", schemaVersion, a.Schema, b.Schema)
	}
	fmt.Fprintf(w, "a = %s (commit %s, %s scale)\nb = %s (commit %s, %s scale)\n", aPath, a.Commit, a.Scale, bPath, b.Commit, b.Scale)
	fmt.Fprintf(w, "%-15s %-18s %12s %12s  %-24s %6s  %s\n", "workload", "metric", "a median", "b median", "ratio", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, d := range bf.EndToEnd {
			am, as := spread(a.values(wl, d.Name))
			bm, bs := spread(b.values(wl, d.Name))
			if am == 0 || bm == 0 {
				fmt.Fprintf(w, "%-15s %-18s %12s %12s  %-24s %5.0f%%  %s\n", wl, d.Name, "-", "-", "-", 100*d.Bound, "missing")
				continue
			}
			change := bm/am - 1 // share of a's median by which b is higher
			if d.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case as > d.Bound || bs > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread a %.0f%%, b %.0f%%)", 100*as, 100*bs)
			case change > d.Bound:
				verdict = "worse"
				worse = true
			}
			ratio := fmt.Sprintf("b/a = %.3f of %.4g %s", bm/am, am, d.Unit)
			fmt.Fprintf(w, "%-15s %-18s %12.4f %12.4f  %-24s %5.0f%%  %s\n", wl, d.Name, am, bm, ratio, 100*d.Bound, verdict)
		}
	}
	return worse, nil
}
