package ktruss

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
)

func TestDecomposeFigure5(t *testing.T) {
	g := gen.Figure5()
	d := Decompose(g)
	want := map[[2]string]int32{
		{"A", "B"}: 4, {"A", "C"}: 4, {"A", "D"}: 4,
		{"B", "C"}: 4, {"B", "D"}: 4, {"C", "D"}: 4,
		{"C", "E"}: 3, {"D", "E"}: 3,
		{"E", "F"}: 2, {"A", "G"}: 2, {"H", "I"}: 2,
	}
	for pair, k := range want {
		u, _ := g.VertexByName(pair[0])
		v, _ := g.VertexByName(pair[1])
		got, ok := d.Trussness(u, v)
		if !ok {
			t.Fatalf("edge %v missing", pair)
		}
		if got != k {
			t.Fatalf("truss(%v) = %d, want %d", pair, got, k)
		}
	}
	if d.MaxTruss() != 4 {
		t.Fatalf("MaxTruss = %d", d.MaxTruss())
	}
	if _, ok := d.Trussness(0, 9); ok {
		t.Fatal("non-edge reported trussness")
	}
}

func TestCommunitiesFigure5(t *testing.T) {
	g := gen.Figure5()
	d := Decompose(g)
	// k=4: the K4.
	comms := d.Communities(0, 4)
	if len(comms) != 1 || !reflect.DeepEqual(comms[0], []int32{0, 1, 2, 3}) {
		t.Fatalf("k=4 communities = %v", comms)
	}
	// k=3: K4 plus E through the CDE triangle.
	comms = d.Communities(0, 3)
	if len(comms) != 1 || !reflect.DeepEqual(comms[0], []int32{0, 1, 2, 3, 4}) {
		t.Fatalf("k=3 communities = %v", comms)
	}
	// k=2: triangle component {A..E} and the triangle-less pendant edge A–G.
	comms = d.Communities(0, 2)
	if len(comms) != 2 {
		t.Fatalf("k=2 communities = %v", comms)
	}
	if !reflect.DeepEqual(comms[0], []int32{0, 1, 2, 3, 4}) || !reflect.DeepEqual(comms[1], []int32{0, 6}) {
		t.Fatalf("k=2 communities = %v", comms)
	}
	// k beyond max truss: none.
	if got := d.Communities(0, 5); got != nil {
		t.Fatalf("k=5 communities = %v", got)
	}
	// Invalid args.
	if d.Communities(-1, 3) != nil || d.Communities(0, 1) != nil {
		t.Fatal("invalid args accepted")
	}
}

// naiveTrussness computes trussness by definition: for each k, repeatedly
// delete edges with < k-2 triangles until fixpoint; an edge's trussness is
// the largest k at which it survives.
func naiveTrussness(g *graph.Graph) map[int64]int32 {
	type edge struct{ u, v int32 }
	edges := map[edge]bool{}
	g.Edges(func(u, v int32) bool {
		edges[edge{u, v}] = true
		return true
	})
	alive := func(u, v int32) bool {
		if u > v {
			u, v = v, u
		}
		return edges[edge{u, v}]
	}
	result := map[int64]int32{}
	for e := range edges {
		result[int64(e.u)<<32|int64(e.v)] = 2
	}
	for k := int32(2); len(edges) > 0; k++ {
		// Mark survivors at this k.
		for e := range edges {
			result[int64(e.u)<<32|int64(e.v)] = k
		}
		// Peel for k+1.
		for changed := true; changed; {
			changed = false
			for e := range edges {
				cnt := 0
				for _, w := range g.Neighbors(e.u) {
					if w != e.v && alive(e.u, w) && g.HasEdge(e.v, w) && alive(e.v, w) {
						cnt++
					}
				}
				if int32(cnt) < k+1-2 {
					delete(edges, e)
					changed = true
				}
			}
		}
	}
	return result
}

// TestDecomposeMatchesNaive validates the CSR-native parallel engine
// against the by-definition oracle on random graphs, at one worker, two
// workers, and the process default (GOMAXPROCS) — the result must be
// identical at every worker count.
func TestDecomposeMatchesNaive(t *testing.T) {
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(25)
		b := graph.NewBuilder(n, 0)
		b.AddVertexIDs(int32(n - 1))
		for i := 0; i < 3*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.MustBuild()
		want := naiveTrussness(g)
		for _, workers := range workerCounts {
			d, err := DecomposeParallel(context.Background(), g, workers)
			if err != nil {
				t.Errorf("seed %d workers %d: %v", seed, workers, err)
				return false
			}
			ok := true
			g.Edges(func(u, v int32) bool {
				got, _ := d.Trussness(u, v)
				if got != want[int64(u)<<32|int64(v)] {
					t.Errorf("seed %d workers %d: truss(%d,%d) = %d, want %d",
						seed, workers, u, v, got, want[int64(u)<<32|int64(v)])
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
			// The exported array-indexed oracle must agree with the map one.
			if _, tr := d.Parts(); !slices.Equal(tr, Naive(g)) {
				t.Errorf("seed %d: Naive disagrees with decomposition", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDecomposeParallelCancel: a pre-canceled context must abort both the
// support-counting and peel phases with ctx.Err, at any worker count.
func TestDecomposeParallelCancel(t *testing.T) {
	g := gen.GenerateDBLP(gen.SmallDBLPConfig()).Graph
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		if _, err := DecomposeParallel(ctx, g, workers); err == nil {
			t.Fatalf("workers=%d: canceled decomposition returned nil error", workers)
		}
	}
}

// TestEdgeTableMatchesParts: the decomposition's edge table is the graph's
// canonical edge table in (u<v)-lexicographic order — the contract
// Parts/FromParts and the snapshot layer rely on.
func TestEdgeTableMatchesParts(t *testing.T) {
	g := gen.Figure5()
	d := Decompose(g)
	edges, truss := d.Parts()
	if len(edges) != g.M() || len(truss) != g.M() {
		t.Fatalf("parts sized %d/%d for m=%d", len(edges), len(truss), g.M())
	}
	var want [][2]int32
	g.Edges(func(u, v int32) bool {
		want = append(want, [2]int32{u, v})
		return true
	})
	if !slices.Equal(edges, want) {
		t.Fatalf("edge table %v, want %v", edges, want)
	}
	// Round-trip through FromParts and verify lookups still resolve.
	d2, err := FromParts(g, edges, truss)
	if err != nil {
		t.Fatal(err)
	}
	for id, e := range edges {
		got, ok := d2.Trussness(e[0], e[1])
		if !ok || got != truss[id] {
			t.Fatalf("FromParts truss(%d,%d) = %d,%v want %d", e[0], e[1], got, ok, truss[id])
		}
	}
}

// TestCommunityInvariants: every edge inside a returned k-truss community
// joins ≥ k-2 triangles within the community's trussness-filtered edges,
// and the community contains q.
func TestCommunityInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		b := graph.NewBuilder(n, 0)
		b.AddVertexIDs(int32(n - 1))
		for i := 0; i < 4*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.MustBuild()
		d := Decompose(g)
		for trial := 0; trial < 5; trial++ {
			q := int32(rng.Intn(n))
			k := int32(3 + rng.Intn(2))
			for _, comm := range d.CommunitiesWithEdges(q, k) {
				hasQ := false
				for _, v := range comm.Vertices {
					if v == q {
						hasQ = true
					}
				}
				if !hasQ {
					return false
				}
				// Each edge of the triangle-connected class must close
				// ≥ k-2 triangles with other class edges.
				classEdge := map[int64]bool{}
				for _, e := range comm.Edges {
					classEdge[int64(e[0])<<32|int64(e[1])] = true
				}
				isClass := func(u, v int32) bool {
					if u > v {
						u, v = v, u
					}
					return classEdge[int64(u)<<32|int64(v)]
				}
				for _, e := range comm.Edges {
					u, v := e[0], e[1]
					cnt := 0
					for _, w := range g.Neighbors(u) {
						if isClass(u, w) && g.HasEdge(v, w) && isClass(v, w) {
							cnt++
						}
					}
					if int32(cnt) < k-2 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
