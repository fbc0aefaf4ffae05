package api

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cexplorer/internal/core"
	"cexplorer/internal/csearch"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
	"cexplorer/internal/ktruss"
	"cexplorer/internal/metrics"
	"cexplorer/internal/snapshot"
)

// The query kernels run on dense pooled scratch and on what the indexes
// already know. The tests in this file hold them to the code they replaced,
// kept here as by-definition oracles on hash maps: a map-visited walk, a
// recount-until-stable peel, subset enumeration over the whole graph for
// ACQ, map-keyed triangle connectivity over ktruss.Naive trussness, and a
// frequency map for themes — on random graphs, on a version produced by an
// overlay mutation (with added vertices), and on a base borrowed from a
// mapped snapshot file.

// --- oracles ---

// oracleWalk returns, ascending, the vertices reachable from start through
// members.
func oracleWalk(g *graph.Graph, start int32, member map[int32]bool) []int32 {
	if !member[start] {
		return nil
	}
	visited := map[int32]bool{start: true}
	out := []int32{start}
	for head := 0; head < len(out); head++ {
		for _, u := range g.Neighbors(out[head]) {
			if member[u] && !visited[u] {
				visited[u] = true
				out = append(out, u)
			}
		}
	}
	slices.Sort(out)
	return out
}

// oraclePeel returns, ascending, the connected component holding every
// vertex of qs in the k-core of the subgraph induced by vertices; nil when
// there is none.
func oraclePeel(g *graph.Graph, vertices []int32, k int32, qs []int32) []int32 {
	in := map[int32]bool{}
	for _, v := range vertices {
		in[v] = true
	}
	for changed := true; changed; {
		changed = false
		for v := range in {
			d := int32(0)
			for _, u := range g.Neighbors(v) {
				if in[u] {
					d++
				}
			}
			if d < k {
				delete(in, v)
				changed = true
			}
		}
	}
	comp := oracleWalk(g, qs[0], in)
	for _, q := range qs {
		if _, ok := slices.BinarySearch(comp, q); !ok {
			return nil
		}
	}
	return comp
}

func allVertices(g *graph.Graph) []int32 {
	all := make([]int32, g.N())
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

func containsAll(sorted, sub []int32) bool {
	for _, w := range sub {
		if _, ok := slices.BinarySearch(sorted, w); !ok {
			return false
		}
	}
	return true
}

// oracleACQ answers Problem 1 by definition, with no index: the query
// keyword set S is W(q) of every query vertex intersected (with the given S
// when there is one); every subset T of S, largest first, is tried on all
// vertices of the graph carrying T; the first size with a community wins;
// shared keywords come from the materialized subgraph.
func oracleACQ(g *graph.Graph, qs []int32, k int32, S []int32) []core.Community {
	var common []int32
	for _, w := range g.Keywords(qs[0]) {
		if S != nil && !slices.Contains(S, w) {
			continue
		}
		everywhere := true
		for _, q := range qs[1:] {
			if _, ok := slices.BinarySearch(g.Keywords(q), w); !ok {
				everywhere = false
			}
		}
		if everywhere {
			common = append(common, w)
		}
	}
	for size := len(common); size >= 1; size-- {
		var answers []core.Community
		for mask := 0; mask < 1<<len(common); mask++ {
			var T []int32
			for i, w := range common {
				if mask&(1<<i) != 0 {
					T = append(T, w)
				}
			}
			if len(T) != size {
				continue
			}
			var cand []int32
			for v := int32(0); v < int32(g.N()); v++ {
				if containsAll(g.Keywords(v), T) {
					cand = append(cand, v)
				}
			}
			if comp := oraclePeel(g, cand, k, qs); comp != nil {
				answers = append(answers, core.Community{
					Vertices:       comp,
					SharedKeywords: g.Induce(comp).SharedKeywords(common),
				})
			}
		}
		if len(answers) > 0 {
			slices.SortFunc(answers, func(x, y core.Community) int {
				if c := slices.Compare(x.SharedKeywords, y.SharedKeywords); c != 0 {
					return c
				}
				return slices.Compare(x.Vertices, y.Vertices)
			})
			return answers
		}
	}
	if comp := oraclePeel(g, allVertices(g), k, qs); comp != nil {
		return []core.Community{{Vertices: comp}}
	}
	return nil
}

// oracleTopKeywords ranks keywords by a frequency map: descending count,
// ties by ascending id.
func oracleTopKeywords(g *graph.Graph, vertices []int32, limit int) []int32 {
	freq := map[int32]int{}
	for _, v := range vertices {
		for _, w := range g.Keywords(v) {
			freq[w]++
		}
	}
	ids := make([]int32, 0, len(freq))
	for w := range freq {
		ids = append(ids, w)
	}
	slices.SortFunc(ids, func(a, b int32) int {
		if freq[a] != freq[b] {
			return freq[b] - freq[a]
		}
		return int(a) - int(b)
	})
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	return ids
}

// oracleTruss finds the triangle-connected k-truss edge classes around q
// with maps keyed by edge, over by-definition trussness values.
func oracleTruss(g *graph.Graph, truss []int32, q, k int32) []ktruss.Community {
	type edge = [2]int32
	mk := func(u, v int32) edge { return edge{min(u, v), max(u, v)} }
	strong := map[edge]bool{}
	for id, e := range g.EdgeTable() {
		if truss[id] >= k {
			strong[e] = true
		}
	}
	visited := map[edge]bool{}
	var out []ktruss.Community
	for _, x := range g.Neighbors(q) {
		seed := mk(q, x)
		if !strong[seed] || visited[seed] {
			continue
		}
		visited[seed] = true
		queue := []edge{seed}
		verts := map[int32]bool{}
		var class []edge
		for len(queue) > 0 {
			e := queue[0]
			queue = queue[1:]
			class = append(class, e)
			verts[e[0]], verts[e[1]] = true, true
			for _, w := range g.Neighbors(e[0]) {
				e1, e2 := mk(e[0], w), mk(e[1], w)
				if !strong[e1] || !strong[e2] {
					continue
				}
				for _, n := range []edge{e1, e2} {
					if !visited[n] {
						visited[n] = true
						queue = append(queue, n)
					}
				}
			}
		}
		c := ktruss.Community{Edges: class}
		for v := range verts {
			c.Vertices = append(c.Vertices, v)
		}
		slices.Sort(c.Vertices)
		slices.SortFunc(c.Edges, func(a, b edge) int { return slices.Compare(a[:], b[:]) })
		out = append(out, c)
	}
	return out
}

// --- graphs under test ---

type kernelCase struct {
	name string
	ds   *Dataset
}

// kernelCases builds the datasets the differential tests sweep: the paper's
// worked example, random attributed graphs with and without resident
// indexes, a successor version materialized from an overlay mutation that
// added vertices, and a base whose arenas are borrowed from a mapped file.
func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	cases := []kernelCase{{"figure5", NewDataset("figure5", gen.Figure5())}}
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.GNMAttributed(36+int(seed)*8, 90+int(seed)*40, 6, seed)
		cases = append(cases, kernelCase{fmt.Sprintf("random%d", seed), NewDataset("random", g)})
	}
	// Lazy indexes: Global falls back to the index-free search.
	cases = append(cases, kernelCase{"lazy", NewDataset("lazy", gen.GNMAttributed(40, 130, 5, 9))})
	for _, c := range cases[:len(cases)-1] {
		c.ds.BuildIndexes()
	}

	base := NewDataset("mutated", gen.GNMAttributed(48, 150, 6, 4))
	base.BuildIndexes()
	n := int32(base.Graph.N())
	ops := []Mutation{
		{Op: OpAddVertex, Name: "new-a", Keywords: []string{"w0", "w1", "fresh"}},
		{Op: OpAddVertex, Name: "new-b", Keywords: []string{"w0", "fresh"}},
		{Op: OpAddVertex, Name: "new-c"},
		{Op: OpAddEdge, U: n, V: n + 1},
	}
	for v := int32(0); v < 6; v++ {
		ops = append(ops, Mutation{Op: OpAddEdge, U: n, V: v}, Mutation{Op: OpAddEdge, U: n + 1, V: v})
	}
	e := base.Graph.EdgeTable()[0]
	ops = append(ops, Mutation{Op: OpRemoveEdge, U: e[0], V: e[1]})
	next, _, err := base.Mutate(context.Background(), ops)
	if err != nil {
		t.Fatalf("mutate: %v", err)
	}
	cases = append(cases, kernelCase{"mutated", next})

	src := NewDataset("mapped", gen.GNMAttributed(44, 140, 6, 5))
	path := filepath.Join(t.TempDir(), "base.cxsnap")
	if _, err := src.WriteSnapshotFile(path); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	mapped, err := OpenSnapshotFileMode("", path, snapshot.OpenMmap)
	switch {
	case err == nil:
		if !mapped.Graph.Borrowed() {
			t.Fatal("mmap-opened dataset does not borrow its arenas")
		}
		t.Cleanup(func() { mapped.Close() })
		cases = append(cases, kernelCase{"mapped", mapped})
	case errors.Is(err, snapshot.ErrNotZeroCopy):
		t.Fatalf("mmap open: %v", err)
	default:
		t.Logf("mmap unavailable, borrowed-base case skipped: %v", err)
	}
	return cases
}

// --- differential tests ---

func TestStructuralKernelsMatchOracles(t *testing.T) {
	ctx := context.Background()
	for _, tc := range kernelCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.ds.Graph
			naive := kcore.NaiveDecompose(g)
			if !slices.Equal(tc.ds.CoreNumbers(), naive) {
				t.Fatal("core numbers differ from NaiveDecompose")
			}
			trussness := ktruss.Naive(g)
			maxK := kcore.Degeneracy(naive) + 1
			for q := int32(0); q < int32(g.N()); q++ {
				for k := int32(0); k <= maxK; k++ {
					member := map[int32]bool{}
					for v, c := range naive {
						member[int32(v)] = c >= k
					}
					want := oracleWalk(g, q, member)

					// Global: the index lookup (or, with lazy indexes, the
					// walk over cached core numbers) and the index-free search.
					got, err := GlobalAlgorithm{}.Search(ctx, tc.ds, Query{Vertices: []int32{q}, K: int(k)})
					if err != nil {
						t.Fatalf("Global q=%d k=%d: %v", q, k, err)
					}
					if want == nil && got != nil || want != nil && (len(got) != 1 || !slices.Equal(got[0].Vertices, want)) {
						t.Fatalf("Global q=%d k=%d = %v, want %v", q, k, got, want)
					}
					r := csearch.Global(g, nil, q, k)
					if (r == nil) != (want == nil) || r != nil && !slices.Equal(r.Vertices, want) {
						t.Fatalf("csearch.Global q=%d k=%d = %v, want %v", q, k, r, want)
					}
					if r != nil && int(r.MinDegree) != g.Induce(want).MinDegree() {
						t.Fatalf("csearch.Global q=%d k=%d MinDegree = %d, want %d", q, k, r.MinDegree, g.Induce(want).MinDegree())
					}
					if tc.ds.Indexes().CLTree {
						if lookup := tc.ds.Tree().ConnectedKCore(q, k); !slices.Equal(lookup, want) {
							t.Fatalf("Tree.ConnectedKCore q=%d k=%d = %v, want %v", q, k, lookup, want)
						}
					}
					if comp := kcore.ConnectedKCore(g, naive, q, k); !slices.Equal(comp, want) {
						t.Fatalf("kcore.ConnectedKCore q=%d k=%d = %v, want %v", q, k, comp, want)
					}

					// Local is a heuristic — there is no by-definition answer
					// — so it is held to the properties of one: an ascending
					// connected set around q inside the Global answer, every
					// member with k neighbors inside.
					if l := csearch.Local(g, q, k, csearch.LocalOptions{}); l != nil {
						in := map[int32]bool{}
						for _, v := range l.Vertices {
							in[v] = true
						}
						sub := g.Induce(l.Vertices)
						if !slices.IsSorted(l.Vertices) || !slices.Equal(oracleWalk(g, q, in), l.Vertices) ||
							!containsAll(want, l.Vertices) || int32(sub.MinDegree()) < k || int(l.MinDegree) != sub.MinDegree() {
							t.Fatalf("Local q=%d k=%d = %+v: not a connected k-core around q", q, k, l)
						}
					}

					// KTruss: same classes, same vertex and edge lists, largest first.
					wantT := oracleTruss(g, trussness, q, k)
					gotT := tc.ds.Truss().CommunitiesWithEdges(q, k)
					if k < 2 {
						wantT = nil
					}
					if !slices.IsSortedFunc(gotT, func(a, b ktruss.Community) int { return len(b.Vertices) - len(a.Vertices) }) {
						t.Fatalf("KTruss q=%d k=%d: classes not largest first", q, k)
					}
					byFirstEdge := func(a, b ktruss.Community) int { return slices.Compare(a.Edges[0][:], b.Edges[0][:]) }
					slices.SortFunc(wantT, byFirstEdge)
					slices.SortFunc(gotT, byFirstEdge)
					if !reflect.DeepEqual(gotT, wantT) {
						t.Fatalf("KTruss q=%d k=%d = %v, want %v", q, k, gotT, wantT)
					}
				}
			}
		})
	}
}

func TestACQMatchesSubsetEnumeration(t *testing.T) {
	for _, tc := range kernelCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.ds.Graph
			eng := tc.ds.AcquireEngine()
			defer tc.ds.ReleaseEngine(eng)
			rng := rand.New(rand.NewSource(7))
			maxK := kcore.Degeneracy(tc.ds.CoreNumbers()) + 1
			same := func(what string, got, want []core.Community) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d answers %v, want %d %v", what, len(got), got, len(want), want)
				}
				for i := range want {
					if !slices.Equal(got[i].Vertices, want[i].Vertices) || !slices.Equal(got[i].SharedKeywords, want[i].SharedKeywords) {
						t.Fatalf("%s: answer %d = %v, want %v", what, i, got[i], want[i])
					}
				}
			}
			for q := int32(0); q < int32(g.N()); q++ {
				for k := int32(0); k <= maxK; k++ {
					// All of W(q), and a restriction that may name keywords q lacks.
					for _, S := range [][]int32{nil, {0, 2, 3}} {
						want := oracleACQ(g, []int32{q}, k, S)
						for _, algo := range []core.Algorithm{core.Dec, core.IncS, core.IncT, core.Basic} {
							got, err := eng.Search(q, k, S, algo)
							if err != nil {
								t.Fatalf("%v q=%d k=%d: %v", algo, q, k, err)
							}
							same(fmt.Sprintf("%v q=%d k=%d S=%v", algo, q, k, S), got, want)
						}
					}
					// Multi-vertex: q with a neighbor (if any) and with a random vertex.
					others := []int32{int32(rng.Intn(g.N()))}
					if nb := g.Neighbors(q); len(nb) > 0 {
						others = append(others, nb[rng.Intn(len(nb))])
					}
					for _, o := range others {
						if o == q {
							continue
						}
						got, err := eng.SearchMulti([]int32{q, o}, k, nil)
						if err != nil {
							t.Fatalf("multi q=%d,%d k=%d: %v", q, o, k, err)
						}
						same(fmt.Sprintf("multi q=%d,%d k=%d", q, o, k), got, oracleACQ(g, []int32{min(q, o), max(q, o)}, k, nil))
					}
				}
			}
		})
	}
}

func TestThemeMatchesFrequencyMap(t *testing.T) {
	for _, tc := range kernelCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.ds.Graph
			rng := rand.New(rand.NewSource(11))
			for trial := 0; trial < 60; trial++ {
				var vs []int32
				switch trial {
				case 0: // empty community
				case 1:
					vs = []int32{int32(g.N() - 1)} // singleton; an added vertex in the mutated case
				default:
					for v := int32(0); v < int32(g.N()); v++ {
						if rng.Intn(3) == 0 {
							vs = append(vs, v)
						}
					}
				}
				for _, limit := range []int{0, 1, 3, 5} {
					want := oracleTopKeywords(g, vs, limit)
					if got := g.TopKeywords(vs, limit); !slices.Equal(got, want) {
						t.Fatalf("TopKeywords(%v, %d) = %v, want %v", vs, limit, got, want)
					}
					if got := metrics.Theme(g, vs, limit); !slices.Equal(got, g.Vocab().Words(want)) {
						t.Fatalf("Theme(%v, %d) = %v, want %v", vs, limit, got, g.Vocab().Words(want))
					}
				}
			}
		})
	}
}

// --- answers pinned to the previous implementation ---

// answerDigests were produced by this very test at the commit before the
// kernels moved onto dense scratch (hash-map walks, sort-everything
// ordering, per-query peelers): every search and every exploration state
// must stay byte-identical in its JSON form — vertex order, shared keywords
// and theme tie-breaks included. Local's frontier order in particular has no
// other oracle.
var answerDigests = map[string]string{
	"ACQ":     "3887300e9e108eaec11f73d4cb43a0bb76cb0b607fe01b6fdf7d9b201bebdfe2",
	"Global":  "a37b663ff34c1786e29f9b4475be5c9a990890f5c76ef19a39e745a0b3bbb76b",
	"Local":   "c4cdde583937bf75a2cac155371c725f0528d35fc6e5ec59ebf9da68e2b5057d",
	"KTruss":  "52fba339b8a4db374c2a8a65fa31063d1c41c492fdbb305c3855d8914d4839d9",
	"Explore": "21bf0f238b2794f8a8ffc9b1f231b6a77417d09142d9400fd2059a75aa1a2840",
}

func TestAnswersUnchanged(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine byte comparison; ten times slower under the detector")
	}
	cfg := gen.DefaultDBLPConfig()
	cfg.Authors, cfg.Seed = 2500, 3
	g := gen.GenerateDBLP(cfg).Graph
	exp := NewExplorer()
	ds, err := exp.AddGraph("dblp", g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	coreNum := ds.CoreNumbers()
	digest := func(name string, run func(q Query) (any, error)) {
		h := sha256.New()
		enc := json.NewEncoder(h)
		for v := int32(0); int(v) < g.N(); v += 7 {
			for _, k := range []int{0, 1, 2, 3, 4, 6} {
				words := slices.Clone(g.KeywordStrings(v))
				slices.Sort(words)
				res, err := run(Query{Vertices: []int32{v}, K: k, Keywords: words[:min(3, len(words))]})
				if err != nil {
					if errors.Is(err, ErrInvalidQuery) {
						continue
					}
					t.Fatalf("%s v=%d k=%d: %v", name, v, k, err)
				}
				if err := enc.Encode(res); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != answerDigests[name] {
			t.Errorf("%s answers changed: digest %s, want %s", name, got, answerDigests[name])
		}
	}
	for _, algo := range []string{"ACQ", "Global", "Local", "KTruss"} {
		digest(algo, func(q Query) (any, error) {
			if algo != "ACQ" {
				q.Keywords = nil
			}
			return exp.Search(ctx, "dblp", algo, q)
		})
	}
	digest("Explore", func(q Query) (any, error) {
		if q.K == 0 || int(coreNum[q.Vertices[0]]) < q.K {
			return nil, ErrInvalidQuery
		}
		st, err := exp.Explore(ctx, "dblp", q)
		if err != nil {
			return nil, err
		}
		defer exp.ExploreClose("dblp", st.ID)
		type view struct {
			K          int
			AnchorCore int32
			Ring       []int32
			Comms      []Community
		}
		views := []view{{st.K, st.AnchorCore, st.Ring, st.Communities}}
		for _, action := range []string{"expand", "expand", "contract"} {
			st, err := exp.ExploreStep(ctx, "dblp", st.ID, action, 0)
			if errors.Is(err, ErrInvalidQuery) {
				continue // already at the loosest community
			} else if err != nil {
				return nil, err
			}
			views = append(views, view{st.K, st.AnchorCore, st.Ring, st.Communities})
		}
		return views, nil
	})
}

// --- allocation ceilings ---

// TestKernelAllocationCeilings: in the steady state — scratch and engines
// pooled, anchors memoized — a cache-miss read allocates its answer and
// little else. The graph is small so the test is quick; the counts do not
// depend on its size (the same kernels make 3–30 allocations per search on
// the 100k-vertex bench graph, where ACQ alone used to make 7,682).
func TestKernelAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	cfg := gen.DefaultDBLPConfig()
	cfg.Authors, cfg.Seed = 2500, 3
	g := gen.GenerateDBLP(cfg).Graph
	ds := NewDataset("dblp", g)
	ds.BuildIndexes()
	coreNum := ds.CoreNumbers()
	q := int32(slices.Index(coreNum, slices.Max(coreNum)))
	ctx := context.Background()
	query := Query{Vertices: []int32{q}, K: 3}
	acq := query
	acq.Keywords = g.KeywordStrings(q)[:3]
	community := ds.Tree().ConnectedKCore(q, 3)
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		// Answer slice + one community: vertices are the anchor's memoized
		// list, the theme is two small slices.
		{"Global", 5, func() { GlobalAlgorithm{}.Search(ctx, ds, query) }},
		// Result struct + ascending copy of the component.
		{"csearch.Global", 3, func() { csearch.GlobalContext(ctx, g, coreNum, q, 3) }},
		// The candidate list grows by doubling; the frontier heap and every
		// set are pooled.
		{"Local", 24, func() { LocalAlgorithm{}.Search(ctx, ds, query) }},
		// One vertex list per edge class plus the list of classes.
		{"KTruss", 16, func() { KTrussAlgorithm{}.Search(ctx, ds, query) }},
		// Ranked ids + their words.
		{"Theme", 3, func() { metrics.Theme(g, community, 5) }},
		// Per-keyword candidate lists, one community per verified set, the
		// lattice bookkeeping of Dec.
		{"ACQ", 64, func() { (&ACQAlgorithm{}).Search(ctx, ds, acq) }},
	} {
		tc.run() // warm the pools and memos
		if got := testing.AllocsPerRun(20, tc.run); got > tc.ceiling {
			t.Errorf("%s: %.0f allocations per search, ceiling %.0f", tc.name, got, tc.ceiling)
		} else {
			t.Logf("%s: %.0f allocations per search (ceiling %.0f)", tc.name, got, tc.ceiling)
		}
	}
}

// --- shared-slice safety ---

// TestSharedAnchorListsStayIntact runs ACQ (keywordless, so the answer is
// the anchor's memoized vertex list itself), Global and exploration steps
// concurrently on one anchor, keeps every result, and checks afterwards
// that none of them was written behind its holder's back: the lists are
// shared between callers, the result cache and sessions, and must be
// immutable once published. Under -race any in-place write is reported as
// it happens.
func TestSharedAnchorListsStayIntact(t *testing.T) {
	cfg := gen.DefaultDBLPConfig()
	cfg.Authors, cfg.Seed = 2500, 3
	g := gen.GenerateDBLP(cfg).Graph
	exp := NewExplorer()
	exp.SetCache(NewServeCache(64, 8<<20, 0))
	ds, err := exp.AddGraph("dblp", g)
	if err != nil {
		t.Fatal(err)
	}
	ds.BuildIndexes()
	coreNum := ds.CoreNumbers()
	// Query vertices of the deepest core: at k=3 they share one anchor.
	var qs []int32
	anchor := ds.Tree().Anchor(int32(slices.Index(coreNum, slices.Max(coreNum))), 3)
	for v := int32(0); int(v) < g.N() && len(qs) < 6; v++ {
		if ds.Tree().Anchor(v, 3) == anchor {
			qs = append(qs, v)
		}
	}
	want := oracleWalk(g, qs[0], func() map[int32]bool {
		m := map[int32]bool{}
		for v, c := range coreNum {
			m[int32(v)] = c >= 3
		}
		return m
	}())
	if len(want) < 1024 {
		t.Fatalf("anchor has %d vertices: too small to be memoized, pick a denser graph", len(want))
	}

	ctx := context.Background()
	var mu sync.Mutex
	var kept [][]int32
	keep := func(vs []int32) {
		mu.Lock()
		kept = append(kept, vs)
		mu.Unlock()
	}
	const rounds = 8
	var wg sync.WaitGroup
	fail := make(chan error, 64)
	for i, q := range qs {
		wg.Add(3)
		// Every round is a fresh cache key, so every search computes.
		go func() { // ACQ with a keyword nobody carries: the keywordless answer
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				res, err := exp.Search(ctx, "dblp", "ACQ", Query{Vertices: []int32{q}, K: 3, Keywords: []string{fmt.Sprint("no-such-keyword-", round)}})
				if err != nil || len(res) != 1 {
					fail <- fmt.Errorf("ACQ q=%d: %v, %d answers", q, err, len(res))
					return
				}
				keep(res[0].Vertices)
			}
		}()
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				res, err := exp.Search(ctx, "dblp", "Global", Query{Vertices: []int32{q}, K: 3, Params: map[string]string{"maxResults": fmt.Sprint(round + 1)}})
				if err != nil || len(res) != 1 {
					fail <- fmt.Errorf("Global q=%d: %v, %d answers", q, err, len(res))
					return
				}
				keep(res[0].Vertices)
			}
		}()
		go func() { // explore: open below the anchor, expand onto it, contract, expand again
			defer wg.Done()
			words := g.KeywordStrings(q) // three, as a user picks; all twenty make Dec's lattice explode
			st, err := exp.Explore(ctx, "dblp", Query{Vertices: []int32{q}, K: min(4-i%2, int(coreNum[q])), Keywords: words[:min(3, len(words))]})
			if err != nil {
				fail <- fmt.Errorf("explore q=%d: %v", q, err)
				return
			}
			defer exp.ExploreClose("dblp", st.ID)
			for _, action := range []string{"expand", "contract", "expand"} {
				st, err := exp.ExploreStep(ctx, "dblp", st.ID, action, 0)
				if err != nil {
					fail <- fmt.Errorf("explore step q=%d %s: %v", q, action, err)
					return
				}
				if st.K == 3 {
					keep(st.Ring)
				}
			}
		}()
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
	if len(kept) == 0 {
		t.Fatal("nothing retained")
	}
	for i, vs := range kept {
		if !slices.Equal(vs, want) {
			t.Fatalf("retained result %d of %d no longer equals the connected 3-core (%d vs %d vertices)", i, len(kept), len(vs), len(want))
		}
	}
}
