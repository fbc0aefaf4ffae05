// Package expt is the experiment harness, one function per table or figure
// of the paper. The experiment index:
//
//	E1 Figure 5 worked example      E6 CL-tree build scaling
//	E2 Figure 6(a) method table     E7 query latency at paper scale
//	E3 Figure 6(a) CPJ/CMF bars     E8 Global vs Local
//	E4 Figures 1–2 exploration      E9 Figure 6(b) layouts
//	E5 ACQ variants by |S| and k    E10 Figure 4 API round trip
//
// and the ablations AB1–AB4 (the Ablation* functions). Both bench_test.go
// and cmd/experiments call these, so their outputs always agree.
package expt

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/cltree"
	"cexplorer/internal/codicil"
	"cexplorer/internal/core"
	"cexplorer/internal/csearch"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
	"cexplorer/internal/layout"
	"cexplorer/internal/metrics"
)

// Env carries the shared dataset so experiments reuse one generation.
type Env struct {
	DBLP *gen.DBLP
	Tree *cltree.Tree
	Core []int32
}

// NewEnv generates the benchmark dataset and indexes once.
func NewEnv(cfg gen.DBLPConfig) *Env {
	d := gen.GenerateDBLP(cfg)
	t := cltree.Build(d.Graph)
	return &Env{DBLP: d, Tree: t, Core: t.CoreNumbers()}
}

// HubQuery returns the canonical demo query: the highest-core famous author
// ("jim gray" in the walkthrough) and a k it can satisfy.
func (e *Env) HubQuery() (q int32, k int32) {
	g := e.DBLP.Graph
	best, bestCore := int32(0), int32(-1)
	for i := 0; i < gen.NumFamousAuthors(); i++ {
		if v, ok := g.VertexByName(gen.FamousAuthor(i)); ok {
			if e.Core[v] > bestCore {
				best, bestCore = v, e.Core[v]
			}
		}
	}
	k = 4
	if bestCore < k {
		k = bestCore
	}
	return best, k
}

// E1Figure5 reproduces the paper's worked example (Figure 5): the graph,
// its CL-tree, and the ACQ query (q=A, k=2, S={w,x,y}) → {A,C,D} sharing
// {x,y}.
func E1Figure5(w io.Writer) error {
	g := gen.Figure5()
	tr := cltree.Build(g)
	fmt.Fprintf(w, "E1  Figure 5 worked example\n")
	fmt.Fprintf(w, "graph: %d vertices, %d edges (paper: 10, 11)\n", g.N(), g.M())
	fmt.Fprintf(w, "CL-tree: %d nodes, depth %d\n", tr.NumNodes(), tr.Depth())
	// Print the tree level by level, as in Figure 5(b).
	var walk func(n *cltree.Node, indent string)
	walk = func(n *cltree.Node, indent string) {
		names := make([]string, 0, len(n.Vertices))
		for _, v := range n.Vertices {
			names = append(names, g.Name(v))
		}
		fmt.Fprintf(w, "%score=%d: {%s}\n", indent, n.Core, strings.Join(names, ","))
		for _, ch := range n.Children {
			walk(ch, indent+"  ")
		}
	}
	walk(tr.Root(), "  ")

	eng := core.NewEngine(tr)
	S := []int32{}
	for _, kw := range []string{"w", "x", "y"} {
		id, _ := g.Vocab().ID(kw)
		S = append(S, id)
	}
	slices.Sort(S)
	res, err := eng.Search(0, 2, S, core.Dec)
	if err != nil {
		return err
	}
	for _, c := range res {
		names := make([]string, 0, len(c.Vertices))
		for _, v := range c.Vertices {
			names = append(names, g.Name(v))
		}
		fmt.Fprintf(w, "ACQ(q=A, k=2, S={w,x,y}) -> {%s} sharing {%s}  (paper: {A,C,D} sharing {x,y})\n",
			strings.Join(names, ","), strings.Join(g.Vocab().Words(c.SharedKeywords), ","))
	}
	return nil
}

// Fig6aRow is one row of the Figure 6(a) table.
type Fig6aRow struct {
	Method      string
	Communities int
	AvgVertices float64
	AvgEdges    float64
	AvgDegree   float64
	CPJ         float64
	CMF         float64
	Elapsed     time.Duration
}

// E2Fig6aTable runs Global, Local, CODICIL, and ACQ for the hub query and
// prints the statistics table of Figure 6(a).
func E2Fig6aTable(w io.Writer, env *Env) ([]Fig6aRow, error) {
	g := env.DBLP.Graph
	q, k := env.HubQuery()
	fmt.Fprintf(w, "E2  Figure 6(a) statistics table — query %q, degree ≥ %d, graph %dv/%de\n",
		g.Name(q), k, g.N(), g.M())
	rows := make([]Fig6aRow, 0, 4)

	addRow := func(method string, comms [][]int32, elapsed time.Duration) {
		row := Fig6aRow{Method: method, Communities: len(comms), Elapsed: elapsed}
		for _, c := range comms {
			st := metrics.Stats(g, c)
			row.AvgVertices += float64(st.Vertices)
			row.AvgEdges += float64(st.Edges)
			row.AvgDegree += st.AvgDegree
			cpj, _ := metrics.CPJ(context.Background(), g, c) // never done
			row.CPJ += cpj
			row.CMF += metrics.CMF(g, c, q)
		}
		if len(comms) > 0 {
			n := float64(len(comms))
			row.AvgVertices /= n
			row.AvgEdges /= n
			row.AvgDegree /= n
			row.CPJ /= n
			row.CMF /= n
		}
		rows = append(rows, row)
	}

	start := time.Now()
	gr := csearch.Global(g, env.Core, q, k)
	var globalComms [][]int32
	if gr != nil {
		globalComms = [][]int32{gr.Vertices}
	}
	addRow("Global", globalComms, time.Since(start))

	start = time.Now()
	lr := csearch.Local(g, q, k, csearch.LocalOptions{})
	var localComms [][]int32
	if lr != nil {
		localComms = [][]int32{lr.Vertices}
	}
	addRow("Local", localComms, time.Since(start))

	start = time.Now()
	cd := codicil.Detect(g, codicil.Options{Seed: 1})
	var codicilComms [][]int32
	codicilComms = append(codicilComms, cd.CommunityOf(q))
	addRow("CODICIL", codicilComms, time.Since(start))

	start = time.Now()
	eng := core.NewEngine(env.Tree)
	acq, err := eng.Search(q, k, nil, core.Dec)
	if err != nil {
		return nil, err
	}
	var acqComms [][]int32
	for _, c := range acq {
		acqComms = append(acqComms, c.Vertices)
	}
	addRow("ACQ", acqComms, time.Since(start))

	fmt.Fprintf(w, "%-8s %12s %9s %7s %7s %7s %7s %10s\n",
		"Method", "Communities", "Vertices", "Edges", "Degree", "CPJ", "CMF", "Time")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %12d %9.1f %7.1f %7.1f %7.3f %7.3f %10s\n",
			r.Method, r.Communities, r.AvgVertices, r.AvgEdges, r.AvgDegree, r.CPJ, r.CMF, r.Elapsed.Round(time.Microsecond))
	}
	return rows, nil
}

// E3QualityBars prints the CPJ/CMF bar chart of Figure 6(a) in ASCII.
func E3QualityBars(w io.Writer, rows []Fig6aRow) {
	fmt.Fprintf(w, "E3  Figure 6(a) quality bars (CPJ, CMF)\n")
	bar := func(v float64) string {
		n := int(v * 60)
		if n > 60 {
			n = 60
		}
		return strings.Repeat("#", n)
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s CPJ %.3f |%s\n", r.Method, r.CPJ, bar(r.CPJ))
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s CMF %.3f |%s\n", r.Method, r.CMF, bar(r.CMF))
	}
}

// E4Exploration scripts the Figures 1–2 scenario: search an author, show
// the community + theme, open a member profile, continue from there.
func E4Exploration(w io.Writer, env *Env) error {
	g := env.DBLP.Graph
	q, k := env.HubQuery()
	fmt.Fprintf(w, "E4  Exploration scenario (Figures 1-2)\n")
	eng := core.NewEngine(env.Tree)
	res, err := eng.Search(q, k, nil, core.Dec)
	if err != nil {
		return err
	}
	if len(res) == 0 {
		fmt.Fprintf(w, "no community for %q at k=%d\n", g.Name(q), k)
		return nil
	}
	c := res[0]
	fmt.Fprintf(w, "query %q (degree %d): community of %d members\n", g.Name(q), g.Degree(q), len(c.Vertices))
	fmt.Fprintf(w, "theme: %s\n", strings.Join(metrics.Theme(g, c.Vertices, 5), ", "))
	// Profile drill-down: first other member with a profile.
	for _, v := range c.Vertices {
		if v == q {
			continue
		}
		if p, ok := env.DBLP.Profiles[v]; ok {
			fmt.Fprintf(w, "profile of %q: areas=%v institutes=%v\n", p.Name, p.Areas, p.Institutes)
			// Continue exploring from that member.
			res2, err := eng.Search(v, k, nil, core.Dec)
			if err != nil {
				return err
			}
			if len(res2) > 0 {
				fmt.Fprintf(w, "follow-on community of %q: %d members\n", p.Name, len(res2[0].Vertices))
			}
			break
		}
	}
	return nil
}

// E5Row is one row of the ACQ algorithm comparison.
type E5Row struct {
	SLen          int
	K             int32
	Algorithm     string
	Elapsed       time.Duration
	Verifications int
}

// E5ACQAlgorithms measures Basic/Inc-S/Inc-T/Dec latency sweeping |S| and k
// (the §3.2 performance claim: Dec fastest, Basic impractical).
func E5ACQAlgorithms(w io.Writer, env *Env, sizes []int, ks []int32) ([]E5Row, error) {
	g := env.DBLP.Graph
	q, _ := env.HubQuery()
	S := g.Keywords(q)
	fmt.Fprintf(w, "E5  ACQ query algorithms — query %q, |W(q)|=%d\n", g.Name(q), len(S))
	fmt.Fprintf(w, "%4s %3s %8s %12s %14s\n", "|S|", "k", "algo", "time", "verifications")
	var rows []E5Row
	for _, sz := range sizes {
		if sz > len(S) {
			continue
		}
		sub := S[:sz]
		for _, k := range ks {
			for _, algo := range []core.Algorithm{core.Basic, core.IncS, core.IncT, core.Dec} {
				eng := core.NewEngine(env.Tree)
				start := time.Now()
				if _, err := eng.Search(q, k, sub, algo); err != nil {
					return nil, err
				}
				el := time.Since(start)
				row := E5Row{SLen: sz, K: k, Algorithm: algo.String(), Elapsed: el,
					Verifications: eng.LastStats().Verifications}
				rows = append(rows, row)
				fmt.Fprintf(w, "%4d %3d %8s %12s %14d\n", sz, k, algo, el.Round(time.Microsecond), row.Verifications)
			}
		}
	}
	return rows, nil
}

// E6CLTreeScaling measures index build time and size across graph sizes
// (the "linear space and time" claim).
func E6CLTreeScaling(w io.Writer, sizes []int) {
	fmt.Fprintf(w, "E6  CL-tree scaling (G(n, 4n) graphs)\n")
	fmt.Fprintf(w, "%10s %10s %12s %12s %10s\n", "n", "m", "build", "bytes", "bytes/n")
	for _, n := range sizes {
		g := gen.GNM(n, 4*n, 7)
		start := time.Now()
		tr := cltree.Build(g)
		el := time.Since(start)
		fmt.Fprintf(w, "%10d %10d %12s %12d %10.1f\n",
			n, g.M(), el.Round(time.Microsecond), tr.Bytes(), float64(tr.Bytes())/float64(n))
	}
}

// E7PaperScale measures warm-index query latency at the given scale — the
// "online and interactive" claim (§1: queries on a 977k-vertex DBLP graph
// return "instantly").
func E7PaperScale(w io.Writer, env *Env, queries int) error {
	g := env.DBLP.Graph
	fmt.Fprintf(w, "E7  query latency at scale — graph %dv/%de\n", g.N(), g.M())
	q, k := env.HubQuery()
	eng := core.NewEngine(env.Tree)
	var total time.Duration
	var worst time.Duration
	for i := 0; i < queries; i++ {
		start := time.Now()
		if _, err := eng.Search(q, k, nil, core.Dec); err != nil {
			return err
		}
		el := time.Since(start)
		total += el
		if el > worst {
			worst = el
		}
	}
	fmt.Fprintf(w, "ACQ(Dec) warm: avg %s, worst %s over %d queries (interactive: < 1s)\n",
		(total / time.Duration(queries)).Round(time.Microsecond), worst.Round(time.Microsecond), queries)
	return nil
}

// E8GlobalVsLocal compares Global and Local latency and touched vertices
// (the §2 claim: Local's local expansion beats Global's whole-graph work).
func E8GlobalVsLocal(w io.Writer, env *Env) {
	g := env.DBLP.Graph
	q, k := env.HubQuery()
	fmt.Fprintf(w, "E8  Global vs Local — query %q, k=%d\n", g.Name(q), k)

	start := time.Now()
	gr := csearch.Global(g, nil, q, k) // nil core: pay the full decomposition, as Global does cold
	gTime := time.Since(start)

	start = time.Now()
	lr := csearch.Local(g, q, k, csearch.LocalOptions{})
	lTime := time.Since(start)

	fmt.Fprintf(w, "%-8s %12s %10s %10s\n", "Method", "time", "visited", "|community|")
	if gr != nil {
		fmt.Fprintf(w, "%-8s %12s %10d %10d\n", "Global", gTime.Round(time.Microsecond), gr.Visited, len(gr.Vertices))
	}
	if lr != nil {
		fmt.Fprintf(w, "%-8s %12s %10d %10d\n", "Local", lTime.Round(time.Microsecond), lr.Visited, len(lr.Vertices))
	}
}

// E9Visual reproduces Figure 6(b): layouts of the ACQ and Local communities
// for the same query, with their overlap.
func E9Visual(w io.Writer, env *Env) error {
	g := env.DBLP.Graph
	q, k := env.HubQuery()
	fmt.Fprintf(w, "E9  Figure 6(b) visual comparison — query %q\n", g.Name(q))
	eng := core.NewEngine(env.Tree)
	acq, err := eng.Search(q, k, nil, core.Dec)
	if err != nil {
		return err
	}
	lr := csearch.Local(g, q, k, csearch.LocalOptions{})
	if len(acq) == 0 || lr == nil {
		fmt.Fprintf(w, "one of the methods found nothing; skipping\n")
		return nil
	}
	a := acq[0].Vertices
	l := lr.Vertices
	placeA := layoutFor(g, a)
	placeL := layoutFor(g, l)
	fmt.Fprintf(w, "ACQ community: %d vertices, layout computed (%d points)\n", len(a), len(placeA))
	fmt.Fprintf(w, "Local community: %d vertices, layout computed (%d points)\n", len(l), len(placeL))
	fmt.Fprintf(w, "vertex overlap (Jaccard): %.3f\n", metrics.SetJaccard(a, l))
	return nil
}

func layoutFor(g *graph.Graph, vs []int32) []layout.Point {
	sub := g.Induce(vs)
	el := layout.EdgeList{Count: sub.N()}
	for l := int32(0); l < int32(sub.N()); l++ {
		for _, u := range sub.Neighbors(l) {
			if l < u {
				el.Pairs = append(el.Pairs, [2]int32{l, u})
			}
		}
	}
	return layout.FruchtermanReingold(el, layout.Options{Seed: 1, Iterations: 50})
}

// E10APIRoundTrip exercises the five Figure-4 functions end to end.
func E10APIRoundTrip(w io.Writer) error {
	fmt.Fprintf(w, "E10 API round trip (Figure 4: upload/search/detect/analyze/display)\n")
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		return err
	}
	comms, err := exp.Search(context.Background(), "fig5", "ACQ", api.Query{Vertices: []int32{0}, K: 2})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "search: %d communities\n", len(comms))
	det, err := exp.Detect(context.Background(), "fig5", "CODICIL")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "detect: %d communities\n", len(det))
	if len(comms) > 0 {
		a, err := exp.Analyze(context.Background(), "fig5", comms[0], 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "analyze: CPJ=%.3f CMF=%.3f vertices=%d\n", a.CPJ, a.CMF, a.Stats.Vertices)
		pl, err := exp.Display(context.Background(), "fig5", comms[0], layout.Options{Seed: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "display: %d points, %d edges\n", len(pl.Points), len(pl.Edges))
	}
	return nil
}

// AblationIndexVsNoIndex compares Dec (CL-tree) with Basic (enumeration).
func AblationIndexVsNoIndex(w io.Writer, env *Env, sLen int) error {
	g := env.DBLP.Graph
	q, k := env.HubQuery()
	S := g.Keywords(q)
	if sLen > len(S) {
		sLen = len(S)
	}
	S = S[:sLen]
	fmt.Fprintf(w, "Ablation: Dec (indexed) vs Basic (enumeration), |S|=%d\n", sLen)
	eng := core.NewEngine(env.Tree)
	start := time.Now()
	if _, err := eng.Search(q, k, S, core.Dec); err != nil {
		return err
	}
	decT := time.Since(start)
	decV := eng.LastStats().Verifications
	start = time.Now()
	if _, err := eng.Search(q, k, S, core.Basic); err != nil {
		return err
	}
	basicT := time.Since(start)
	basicV := eng.LastStats().Verifications
	fmt.Fprintf(w, "Dec:   %12s (%d verifications)\nBasic: %12s (%d verifications)\nspeedup: %.1fx\n",
		decT.Round(time.Microsecond), decV, basicT.Round(time.Microsecond), basicV,
		float64(basicT)/float64(decT+1))
	return nil
}

// AblationCoreDecomposition compares bin-sort vs naive peeling. The
// preferential-attachment graph forces the long removal cascades where the
// naive full-rescan algorithm degrades.
func AblationCoreDecomposition(w io.Writer, n int) {
	g := gen.BarabasiAlbert(n, 5, 13)
	fmt.Fprintf(w, "Ablation: core decomposition on BA(%d, 5) (%d edges)\n", n, g.M())
	start := time.Now()
	kcore.Decompose(g)
	fast := time.Since(start)
	start = time.Now()
	kcore.NaiveDecompose(g)
	slow := time.Since(start)
	fmt.Fprintf(w, "bin-sort: %12s\nnaive:    %12s (%.1fx slower)\n",
		fast.Round(time.Microsecond), slow.Round(time.Microsecond), float64(slow)/float64(fast+1))
}

// AblationCodicilSparsify compares CODICIL with and without local
// sparsification.
func AblationCodicilSparsify(w io.Writer, env *Env) {
	g := env.DBLP.Graph
	fmt.Fprintf(w, "Ablation: CODICIL sparsification\n")
	start := time.Now()
	full := codicil.Detect(g, codicil.Options{Seed: 1, NoSparsify: true})
	fullT := time.Since(start)
	start = time.Now()
	sparse := codicil.Detect(g, codicil.Options{Seed: 1})
	sparseT := time.Since(start)
	fmt.Fprintf(w, "no-sparsify: %12s, %d edges clustered, %d communities\n",
		fullT.Round(time.Millisecond), full.SparsifiedEdges, full.Partition.Count)
	fmt.Fprintf(w, "sparsify:    %12s, %d edges clustered, %d communities\n",
		sparseT.Round(time.Millisecond), sparse.SparsifiedEdges, sparse.Partition.Count)
}

// AblationLayout compares exact vs Barnes–Hut FR at growing sizes.
func AblationLayout(w io.Writer, sizes []int) {
	fmt.Fprintf(w, "Ablation: layout exact vs Barnes-Hut\n")
	fmt.Fprintf(w, "%8s %12s %12s\n", "n", "exact", "barnes-hut")
	for _, n := range sizes {
		g := gen.BarabasiAlbert(n, 3, 5)
		el := layout.EdgeList{Count: n}
		g.Edges(func(u, v int32) bool {
			el.Pairs = append(el.Pairs, [2]int32{u, v})
			return true
		})
		start := time.Now()
		layout.FruchtermanReingold(el, layout.Options{Seed: 1, Iterations: 20, ForceExact: true})
		exact := time.Since(start)
		start = time.Now()
		layout.FruchtermanReingold(el, layout.Options{Seed: 1, Iterations: 20, BarnesHut: true})
		bh := time.Since(start)
		fmt.Fprintf(w, "%8d %12s %12s\n", n, exact.Round(time.Microsecond), bh.Round(time.Microsecond))
	}
}
