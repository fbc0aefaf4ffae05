package cexplorer

// Benchmark harness: one benchmark per table/figure/claim of the paper
// (experiment IDs E1–E10 from DESIGN.md §4) plus the design-choice
// ablations. Each benchmark prints its paper-style table once (so
// `go test -bench=.` regenerates every artifact) and then times the
// operation that dominates that experiment.
//
// The default dataset is the 20k-author synthetic DBLP; set
// CEXPLORER_PAPER_SCALE=1 to run E7 at the paper's 977,288-vertex scale.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"cexplorer/internal/core"
	"cexplorer/internal/csearch"
	"cexplorer/internal/expt"
	"cexplorer/internal/gen"
	"cexplorer/internal/kcore"
)

var (
	envOnce  sync.Once
	benchEnv *expt.Env
)

func sharedEnv() *expt.Env {
	envOnce.Do(func() {
		benchEnv = expt.NewEnv(gen.DefaultDBLPConfig())
	})
	return benchEnv
}

var printOnce sync.Map

func printExperiment(id string, fn func()) {
	if _, done := printOnce.LoadOrStore(id, true); !done {
		fmt.Println()
		fn()
		fmt.Println()
	}
}

// BenchmarkE1_Figure5Example times the full worked example of Figure 5
// (index build + ACQ query on the 10-vertex graph) and prints it once.
func BenchmarkE1_Figure5Example(b *testing.B) {
	printExperiment("E1", func() {
		if err := expt.E1Figure5(os.Stdout); err != nil {
			b.Fatal(err)
		}
	})
	g := Figure5()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := BuildIndex(g)
		eng := NewEngine(idx)
		if _, err := eng.Search(0, 2, nil, Dec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_Fig6aStatsTable prints the Figure 6(a) statistics table and
// times the four-method comparison row generation.
func BenchmarkE2_Fig6aStatsTable(b *testing.B) {
	env := sharedEnv()
	var rows []expt.Fig6aRow
	printExperiment("E2", func() {
		var err error
		rows, err = expt.E2Fig6aTable(os.Stdout, env)
		if err != nil {
			b.Fatal(err)
		}
		_ = rows
	})
	g := env.DBLP.Graph
	q, k := env.HubQuery()
	eng := core.NewEngine(env.Tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(q, k, nil, core.Dec); err != nil {
			b.Fatal(err)
		}
		csearch.Global(g, env.Core, q, k)
		csearch.Local(g, q, k, csearch.LocalOptions{})
	}
}

// BenchmarkE3_Fig6aQualityBars prints the CPJ/CMF bars and times metric
// computation for the hub community.
func BenchmarkE3_Fig6aQualityBars(b *testing.B) {
	env := sharedEnv()
	printExperiment("E3", func() {
		rows, err := expt.E2Fig6aTable(os.Stdout, env)
		if err != nil {
			b.Fatal(err)
		}
		expt.E3QualityBars(os.Stdout, rows)
	})
	g := env.DBLP.Graph
	q, k := env.HubQuery()
	eng := core.NewEngine(env.Tree)
	res, err := eng.Search(q, k, nil, core.Dec)
	if err != nil || len(res) == 0 {
		b.Fatalf("no community: %v", err)
	}
	comm := res[0].Vertices
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CPJ(g, comm)
		_ = CMF(g, comm, q)
	}
}

// BenchmarkE4_ExplorationScenario times the Figures 1–2 flow: search, theme,
// profile, follow-on search.
func BenchmarkE4_ExplorationScenario(b *testing.B) {
	env := sharedEnv()
	printExperiment("E4", func() {
		if err := expt.E4Exploration(os.Stdout, env); err != nil {
			b.Fatal(err)
		}
	})
	q, k := env.HubQuery()
	eng := core.NewEngine(env.Tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Search(q, k, nil, core.Dec)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) > 0 {
			_ = Theme(env.DBLP.Graph, res[0].Vertices, 5)
		}
	}
}

// BenchmarkE5_ACQAlgorithms prints the Dec vs Inc-S vs Inc-T vs Basic sweep
// and then times each algorithm as a sub-benchmark at |S|=6.
func BenchmarkE5_ACQAlgorithms(b *testing.B) {
	env := sharedEnv()
	printExperiment("E5", func() {
		if _, err := expt.E5ACQAlgorithms(os.Stdout, env, []int{2, 4, 6, 8}, []int32{4, 6}); err != nil {
			b.Fatal(err)
		}
	})
	g := env.DBLP.Graph
	q, k := env.HubQuery()
	S := g.Keywords(q)
	if len(S) > 6 {
		S = S[:6]
	}
	for _, algo := range []core.Algorithm{core.Dec, core.IncS, core.IncT, core.Basic} {
		b.Run(algo.String(), func(b *testing.B) {
			eng := core.NewEngine(env.Tree)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Search(q, k, S, algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE6_CLTreeScaling prints the linear-scaling table and times index
// construction at n=50k.
func BenchmarkE6_CLTreeScaling(b *testing.B) {
	printExperiment("E6", func() {
		expt.E6CLTreeScaling(os.Stdout, []int{10000, 20000, 40000, 80000, 160000})
	})
	g := gen.GNM(50000, 200000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildIndex(g)
	}
}

// BenchmarkE7_PaperScaleLatency times warm ACQ queries; with
// CEXPLORER_PAPER_SCALE=1 the graph is the paper's 977k-vertex size,
// otherwise the shared 20k dataset is used.
func BenchmarkE7_PaperScaleLatency(b *testing.B) {
	env := sharedEnv()
	if os.Getenv("CEXPLORER_PAPER_SCALE") == "1" {
		cfg := gen.PaperScaleConfig()
		env = expt.NewEnv(cfg)
	}
	printExperiment("E7", func() {
		if err := expt.E7PaperScale(os.Stdout, env, 20); err != nil {
			b.Fatal(err)
		}
	})
	q, k := env.HubQuery()
	eng := core.NewEngine(env.Tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(q, k, nil, core.Dec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_GlobalVsLocal prints the comparison and times both methods as
// sub-benchmarks.
func BenchmarkE8_GlobalVsLocal(b *testing.B) {
	env := sharedEnv()
	printExperiment("E8", func() {
		expt.E8GlobalVsLocal(os.Stdout, env)
	})
	g := env.DBLP.Graph
	q, k := env.HubQuery()
	b.Run("Global-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csearch.Global(g, nil, q, k)
		}
	})
	b.Run("Global-warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csearch.Global(g, env.Core, q, k)
		}
	})
	b.Run("Local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			csearch.Local(g, q, k, csearch.LocalOptions{})
		}
	})
}

// BenchmarkE9_VisualComparison prints the Figure 6(b) report and times the
// community layout.
func BenchmarkE9_VisualComparison(b *testing.B) {
	env := sharedEnv()
	printExperiment("E9", func() {
		if err := expt.E9Visual(os.Stdout, env); err != nil {
			b.Fatal(err)
		}
	})
	q, k := env.HubQuery()
	eng := core.NewEngine(env.Tree)
	res, err := eng.Search(q, k, nil, core.Dec)
	if err != nil || len(res) == 0 {
		b.Skip("no community")
	}
	sub := env.DBLP.Graph.Induce(res[0].Vertices)
	el := EdgeList{Count: sub.N()}
	for l := int32(0); l < int32(sub.N()); l++ {
		for _, u := range sub.Neighbors(l) {
			if l < u {
				el.Pairs = append(el.Pairs, [2]int32{l, u})
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FruchtermanReingold(el, LayoutOptions{Seed: 1})
	}
}

// BenchmarkE10_APIRoundTrip prints the Figure-4 API walk and times the
// search endpoint path.
func BenchmarkE10_APIRoundTrip(b *testing.B) {
	printExperiment("E10", func() {
		if err := expt.E10APIRoundTrip(os.Stdout); err != nil {
			b.Fatal(err)
		}
	})
	exp := NewExplorer()
	if _, err := exp.AddGraph("fig5", Figure5()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Search(context.Background(), "fig5", "ACQ", Query{Vertices: []int32{0}, K: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (design choices called out in DESIGN.md) ---

func BenchmarkAblation_IndexVsNoIndex(b *testing.B) {
	env := sharedEnv()
	printExperiment("AB1", func() {
		if err := expt.AblationIndexVsNoIndex(os.Stdout, env, 8); err != nil {
			b.Fatal(err)
		}
	})
	q, k := env.HubQuery()
	S := env.DBLP.Graph.Keywords(q)
	if len(S) > 8 {
		S = S[:8]
	}
	b.Run("Dec", func(b *testing.B) {
		eng := core.NewEngine(env.Tree)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Search(q, k, S, core.Dec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Basic", func(b *testing.B) {
		eng := core.NewEngine(env.Tree)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Search(q, k, S, core.Basic); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblation_CoreDecomposition(b *testing.B) {
	printExperiment("AB2", func() {
		expt.AblationCoreDecomposition(os.Stdout, 20000)
	})
	g := gen.GNM(20000, 80000, 13)
	b.Run("binsort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kcore.Decompose(g)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kcore.NaiveDecompose(g)
		}
	})
}

func BenchmarkAblation_LayoutBarnesHut(b *testing.B) {
	printExperiment("AB3", func() {
		expt.AblationLayout(os.Stdout, []int{200, 800, 3200})
	})
	g := gen.BarabasiAlbert(2000, 3, 5)
	el := EdgeList{Count: g.N()}
	g.Edges(func(u, v int32) bool {
		el.Pairs = append(el.Pairs, [2]int32{u, v})
		return true
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FruchtermanReingold(el, LayoutOptions{Seed: 1, Iterations: 10, ForceExact: true})
		}
	})
	b.Run("barnes-hut", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FruchtermanReingold(el, LayoutOptions{Seed: 1, Iterations: 10, BarnesHut: true})
		}
	})
}

func BenchmarkAblation_CodicilSparsify(b *testing.B) {
	env := sharedEnv()
	printExperiment("AB4", func() {
		expt.AblationCodicilSparsify(os.Stdout, env)
	})
	g := env.DBLP.Graph
	b.Run("sparsify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Codicil(g, CodicilOptions{Seed: 1})
		}
	})
	b.Run("no-sparsify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Codicil(g, CodicilOptions{Seed: 1, NoSparsify: true})
		}
	})
}

// BenchmarkIndexSerialization times CL-tree save/load round trips.
func BenchmarkIndexSerialization(b *testing.B) {
	env := sharedEnv()
	var buf writeCounter
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf.n = 0
			if _, err := env.Tree.WriteTo(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(buf.n)
	})
}

type writeCounter struct{ n int64 }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestFacadeSmoke exercises the public facade end to end (the README
// quick-start must keep working).
func TestFacadeSmoke(t *testing.T) {
	g := Figure5()
	eng := NewEngine(BuildIndex(g))
	q, ok := g.VertexByName("A")
	if !ok {
		t.Fatal("no vertex A")
	}
	comms, err := eng.Search(q, 2, nil, Dec)
	if err != nil {
		t.Fatal(err)
	}
	if len(comms) != 1 || len(comms[0].Vertices) != 3 {
		t.Fatalf("quickstart result = %+v", comms)
	}
	exp := NewExplorer()
	if _, err := exp.AddGraph("fig5", g); err != nil {
		t.Fatal(err)
	}
	res, err := exp.Search(context.Background(), "fig5", "ACQ", Query{Vertices: []int32{q}, K: 2})
	if err != nil || len(res) != 1 {
		t.Fatalf("facade explorer: %v %+v", err, res)
	}
}

// --- concurrent query serving (the browser–server model under load) ---

// parallelBenchDataset returns a Dataset over the shared DBLP benchmark
// graph with its CL-tree pre-built, so the timed region measures query
// serving only.
func parallelBenchDataset(b *testing.B) (*Dataset, int32, int32) {
	env := sharedEnv()
	exp := NewExplorer()
	ds, err := exp.AddGraph("dblp", env.DBLP.Graph)
	if err != nil {
		b.Fatal(err)
	}
	ds.Tree() // warm the shared index outside the timer
	q, k := env.HubQuery()
	return ds, q, k
}

// runParallelSearch times ACQ/Dec over pooled engines: "serial" is the
// single-goroutine baseline, "parallel-8" drives eight goroutines through
// b.RunParallel, each checking engines out of the dataset pool. The
// per-query steady state must stay allocation-free in the peeler (its
// membership sets are epoch-stamped scratch, not maps) — watch the
// -benchmem delta between the two.
func runParallelSearch(b *testing.B, S []int32) {
	ds, q, k := parallelBenchDataset(b)
	b.Run("serial", func(b *testing.B) {
		eng := ds.AcquireEngine()
		defer ds.ReleaseEngine(eng)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Search(q, k, S, Dec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-8", func(b *testing.B) {
		// b.RunParallel spawns GOMAXPROCS×parallelism goroutines; scale the
		// factor so the total is (at least) the 8 the serving model targets.
		factor := (8 + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
		b.SetParallelism(factor)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			eng := ds.AcquireEngine()
			defer ds.ReleaseEngine(eng)
			for pb.Next() {
				if _, err := eng.Search(q, k, S, Dec); err != nil {
					// Fatal must not be called from a RunParallel worker.
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkParallelACQ is the keywordless ACQ/Dec query (the UI default).
func BenchmarkParallelACQ(b *testing.B) {
	runParallelSearch(b, nil)
}

// BenchmarkParallelACQKeywords runs the peel-heavy variant: six query
// keywords, so every candidate set is verified by the allocation-free
// peeler.
func BenchmarkParallelACQKeywords(b *testing.B) {
	env := sharedEnv()
	q, _ := env.HubQuery()
	S := env.DBLP.Graph.Keywords(q)
	if len(S) > 6 {
		S = S[:6]
	}
	runParallelSearch(b, S)
}

// BenchmarkEngineCheckout isolates what the pool buys per request: acquiring
// a warm engine versus constructing one (O(n) scratch) per query, the way
// the API layer did before pooling.
func BenchmarkEngineCheckout(b *testing.B) {
	ds, q, k := parallelBenchDataset(b)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := ds.AcquireEngine()
			if _, err := eng.Search(q, k, nil, Dec); err != nil {
				b.Fatal(err)
			}
			ds.ReleaseEngine(eng)
		}
	})
	b.Run("fresh-per-query", func(b *testing.B) {
		tree := ds.Tree()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := NewEngine(tree)
			if _, err := eng.Search(q, k, nil, Dec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
