package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
)

// generated renders every input a run sends for (smoke scale, seed) as
// bytes: panels, schedules and the head of each mutation stream.
func generated(t *testing.T, seed int64) []byte {
	t.Helper()
	sc := scales["smoke"]
	d := gen.GenerateDBLP(datasetConfig(sc))
	ds := api.NewDataset(datasetName, d.Graph)
	in := buildInputs(sc, d.Graph, ds.CoreNumbers(), seed)
	var buf bytes.Buffer
	for _, q := range in.Hot {
		buf.Write(q.body)
		buf.WriteByte('\n')
	}
	for _, it := range in.Cold {
		buf.Write(it.Query.body)
		buf.Write(mustJSON([]bool{it.Session, it.Analyze}))
		buf.WriteByte('\n')
	}
	buf.Write(mustJSON(hotSchedule(seed, 500)))
	for id := range 2 {
		s := newMutationStream(d, seed, id, 2)
		for range 200 {
			buf.Write(mustJSON(s.next(id == 0)))
		}
		buf.Write(mustJSON(s.batch(batchOps)))
	}
	return buf.Bytes()
}

// TestInputsDeterministic: the seed alone decides what the program is sent,
// and nothing sent tells it which workload is running.
func TestInputsDeterministic(t *testing.T) {
	a, again, b := generated(t, 7), generated(t, 7), generated(t, 8)
	if !bytes.Equal(a, again) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, b) {
		t.Fatal("different seeds generated identical inputs")
	}
	for _, name := range workloadNames {
		if i := bytes.Index(a, []byte(name)); i >= 0 {
			t.Fatalf("generated inputs mention %q: …%s…", name, a[max(0, i-40):min(len(a), i+40)])
		}
	}
}

// TestMutationStreamsStayValid applies two interleaved streams to a real
// dataset in the worst order (alternating) and checks the streams' own model
// of the graph against the result.
func TestMutationStreamsStayValid(t *testing.T) {
	sc := scales["smoke"]
	d := gen.GenerateDBLP(datasetConfig(sc))
	exp := api.NewExplorer()
	if _, err := exp.AddGraph(datasetName, d.Graph); err != nil {
		t.Fatal(err)
	}
	streams := []*mutationStream{newMutationStream(d, 3, 0, 2), newMutationStream(d, 3, 1, 2)}
	for i := range 600 {
		s := streams[i%2]
		var ops []api.Mutation
		if i%50 == 49 {
			ops = s.batch(batchOps)
		} else {
			ops = []api.Mutation{s.next(i%2 == 0)}
		}
		if _, err := exp.Mutate(t.Context(), datasetName, ops); err != nil {
			t.Fatalf("op %d rejected: %v", i, err)
		}
		if i%100 == 0 && ops[0].Op != api.OpAddVertex {
			if _, err := exp.Mutate(t.Context(), datasetName, []api.Mutation{s.inverse(ops[0])}); err != nil {
				t.Fatalf("inverse of op %d rejected: %v", i, err)
			}
		}
	}
	ds, _ := exp.Dataset(datasetName)
	wantN, wantM := d.Graph.N(), d.Graph.M()
	for _, s := range streams {
		wantN += s.Vertices
		wantM += s.Edges
	}
	if ds.Graph.N() != wantN || ds.Graph.M() != wantM {
		t.Fatalf("graph has %d vertices / %d edges, the streams' model says %d / %d", ds.Graph.N(), ds.Graph.M(), wantN, wantM)
	}
}

// TestSmoke runs all four workloads, untraced and traced, at smoke scale
// and checks the shape of what they report: names, units, sample counts and
// the correctness verdict. It asserts no timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eight fleets")
	}
	for _, wl := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: wl, seed: 1, seconds: 0.6, trace: trace, scale: scales["smoke"], work: t.TempDir(), setups: 1}
			out, err := runOne(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", wl, trace, out.Correct, out.Attempted, out.Failed, out.Errors)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", wl, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				s, ok := out.Metrics[d.Name]
				if !ok || s.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s reported as %+v, want unit %s", wl, trace, d.Name, s, d.Unit)
				}
				if !trace && s.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; every workload must exercise every one", wl, d.Name, s.Value)
				}
			}
			if !trace {
				if n := out.Metrics["req_p50_ms"].N; n == 0 {
					t.Errorf("%s: no latency samples inside the window", wl)
				}
				continue
			}
			if v := out.Metrics["bench.verified"].Value; v == 0 && wl != "ingest_restart" {
				t.Errorf("%s: no answer was verified against the primary", wl)
			}
			checkTrace(t, wl, filepath.Join(o.work, "trace.json"))
		}
	}
}

// checkTrace requires parent-linked spans for the path the workload takes:
// every read depth on the workloads that read, every write depth on ingest.
func checkTrace(t *testing.T, wl, path string) {
	t.Helper()
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := readJSON(path, &doc); err != nil {
		t.Fatalf("%s: %v", wl, err)
	}
	names := map[string]map[string]bool{"read": {}, "write": {}}
	byReq := map[int64]map[string]bool{}
	for _, s := range doc.Spans {
		names[s.Kind][s.Name] = true
		if byReq[s.Req] == nil {
			byReq[s.Req] = map[string]bool{}
		}
		byReq[s.Req][s.Name] = true
	}
	for _, s := range doc.Spans {
		if s.Parent != "" && !byReq[s.Req][s.Parent] {
			t.Errorf("%s: span %s of request %d names parent %s, which the request has no span for", wl, s.Name, s.Req, s.Parent)
		}
		if s.EndUS < s.StartUS {
			t.Errorf("%s: span %s of request %d ends before it starts", wl, s.Name, s.Req)
		}
	}
	kind, want := "read", []string{"router", "server", "explorer", "engine", "encode"}
	if wl == "ingest_restart" {
		kind, want = "write", []string{"router", "server", "mutate", "journal", "visible"}
	}
	for _, n := range want {
		if !names[kind][n] {
			t.Errorf("%s: trace has no %s span named %s (has %v)", wl, kind, n, names[kind])
		}
	}
}

// TestBenchmarkFileMatchesRegistry keeps BENCHMARK.json and the program's
// metric registry in step.
func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	var bf benchmarkFile
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d + %d metrics, the program reports %d + %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end[%d] is %s (%s), the program reports %s (%s)", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end[%d] %s: bound %v better %q", i, m.Name, m.Bound, m.Better)
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per_layer[%d] is %s (%s), the program reports %s (%s)", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be declared, lower is better")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Fatalf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
}

// TestCompareVerdicts feeds compare two synthetic result sets: one metric
// unchanged, one worse than its bound, one too noisy to call.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, p50, p95 []float64) string {
		rs := newResultSet("test", scales["smoke"], 1)
		for _, wl := range workloadNames {
			for i := range p50 {
				m := metrics{}
				for _, d := range endToEnd {
					m.set(d.Name, 10, d.Unit)
				}
				m.set("req_p50_ms", p50[i], "ms")
				m.set("req_p95_ms", p95[i], "ms")
				rs.Runs = append(rs.Runs, runDoc{Workload: wl, Seed: int64(i), Correct: true, Attempted: 1, Metrics: m})
			}
		}
		path := filepath.Join(dir, name)
		data, _ := json.Marshal(rs)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := set("a.json", []float64{10, 10.1, 9.9, 10, 10}, []float64{20, 20, 20, 20, 20})
	b := set("b.json", []float64{13, 13.1, 12.9, 13, 13}, []float64{5, 20, 60, 20, 40})
	var out bytes.Buffer
	worse, err := compare(&out, filepath.Join("..", "..", "BENCHMARK.json"), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 30% slower median was not reported as worse")
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "browse_hot" {
			rows[f[1]] = line
		}
	}
	for metric, want := range map[string]string{"req_p50_ms": "worse", "req_p95_ms": "unresolved", "setup_s": "ok"} {
		if !strings.Contains(rows[metric], want) {
			t.Errorf("%s: want verdict %q in row %q", metric, want, rows[metric])
		}
	}
	if !strings.Contains(rows["req_p50_ms"], "b/a = 1.300 of 10 ms") {
		t.Errorf("ratio must come with its base: %q", rows["req_p50_ms"])
	}
}
