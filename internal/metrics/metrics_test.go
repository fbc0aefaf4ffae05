package metrics

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
)

func fixture(t testing.TB) *graph.Graph {
	t.Helper()
	return gen.Figure5()
}

func TestCPJ(t *testing.T) {
	g := fixture(t)
	// {A,C,D}: W(A)={w,x,y}, W(C)={x,y}, W(D)={x,y,z}.
	// J(A,C)=2/3, J(A,D)=2/4, J(C,D)=2/3 → mean = (2/3+1/2+2/3)/3.
	got, err := CPJ(context.Background(), g, []int32{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := (2.0/3 + 0.5 + 2.0/3) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("CPJ = %f, want %f", got, want)
	}
	if cpj(g, []int32{0}) != 0 || cpj(g, nil) != 0 {
		t.Fatal("degenerate CPJ should be 0")
	}
}

// cpj is CPJ under a context that is never done.
func cpj(g *graph.Graph, vs []int32) float64 {
	c, _ := CPJ(context.Background(), g, vs)
	return c
}

// TestCPJStopsOnDoneContext: a canceled or expired ctx stops the pair loop
// and is reported as the context's error.
func TestCPJStopsOnDoneContext(t *testing.T) {
	g := fixture(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CPJ(canceled, g, []int32{0, 2, 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: err = %v", err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if _, err := CPJ(expired, g, []int32{0, 2, 3}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired: err = %v", err)
	}
}

func TestCPJRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.GenerateDBLP(gen.DBLPConfig{
			Authors: 200, Communities: 4, EdgeFactor: 2, CrossFrac: 0.05,
			KeywordsPerAuthor: 10, SecondaryProb: 0.2, Seed: seed,
		})
		vs := make([]int32, 0, 8)
		for i := 0; i < 8; i++ {
			vs = append(vs, int32(rng.Intn(g.Graph.N())))
		}
		c := cpj(g.Graph, vs)
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestCMF(t *testing.T) {
	g := fixture(t)
	// q=A (W={w,x,y}), community {A,C,D}:
	// C: |{x,y}∩{w,x,y}|/3 = 2/3; D: |{x,y,z}∩{w,x,y}|/3 = 2/3.
	got := CMF(g, []int32{0, 2, 3}, 0)
	want := 2.0 / 3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("CMF = %f, want %f", got, want)
	}
	// q with no keywords (none in Figure 5; use community without others).
	if CMF(g, []int32{0}, 0) != 0 {
		t.Fatal("community of only q should give 0")
	}
}

func TestStatsAndAggregate(t *testing.T) {
	g := fixture(t)
	s := Stats(g, []int32{0, 1, 2, 3}) // the K4
	if s.Vertices != 4 || s.Edges != 6 || s.AvgDegree != 3 || s.MinDegree != 3 {
		t.Fatalf("stats = %+v", s)
	}
	sd := StatsWithDiameter(g, []int32{0, 1, 2, 3})
	if sd.Diameter != 1 {
		t.Fatalf("K4 diameter = %d", sd.Diameter)
	}
	agg := Aggregate([]CommunityStats{s, {Vertices: 2, Edges: 1, AvgDegree: 1}})
	if agg.Communities != 2 || agg.AvgVertices != 3 || agg.AvgEdges != 3.5 || agg.AvgDegree != 2 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if got := Aggregate(nil); got.Communities != 0 {
		t.Fatalf("empty aggregate = %+v", got)
	}
}

func TestSetJaccardAndF1(t *testing.T) {
	a := []int32{1, 2, 3, 4}
	b := []int32{3, 4, 5, 6}
	if got := SetJaccard(a, b); got != 2.0/6 {
		t.Fatalf("SetJaccard = %f", got)
	}
	if got := F1(a, a); got != 1 {
		t.Fatalf("F1 self = %f", got)
	}
	if got := F1(a, []int32{9}); got != 0 {
		t.Fatalf("F1 disjoint = %f", got)
	}
	// F1 of a half-overlap: p=0.5, r=0.5 → 0.5.
	if got := F1([]int32{1, 2}, []int32{2, 3}); got != 0.5 {
		t.Fatalf("F1 = %f", got)
	}
	if F1(nil, a) != 0 || F1(a, nil) != 0 {
		t.Fatal("empty F1 should be 0")
	}
}

func TestNMI(t *testing.T) {
	a := []int32{0, 0, 1, 1}
	if got := NMI(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NMI self = %f", got)
	}
	// Relabeled partition is identical.
	b := []int32{5, 5, 9, 9}
	if got := NMI(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("NMI relabeled = %f", got)
	}
	// Completely uninformative second partition (all one label).
	c := []int32{7, 7, 7, 7}
	if got := NMI(a, c); got != 0 {
		t.Fatalf("NMI against trivial = %f", got)
	}
	if NMI(a, []int32{1}) != 0 {
		t.Fatal("mismatched lengths should give 0")
	}
	if NMI(c, c) != 1 {
		t.Fatal("identical trivial partitions should give 1")
	}
}

func TestNMIRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		a := make([]int32, n)
		b := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Intn(5))
			b[i] = int32(rng.Intn(5))
		}
		v := NMI(a, b)
		return v >= -1e-9 && v <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTheme(t *testing.T) {
	g := fixture(t)
	th := Theme(g, []int32{0, 2, 3}, 2)
	if len(th) != 2 || th[0] != "x" && th[0] != "y" {
		t.Fatalf("theme = %v", th)
	}
}

// TestACQBeatsRandomOnQuality reproduces the qualitative claim behind
// Figure 6(a)'s bars: a keyword-cohesive community scores higher CPJ/CMF
// than a random set of the same size around the same query.
func TestACQBeatsRandomOnQuality(t *testing.T) {
	g := fixture(t)
	acq := []int32{0, 2, 3}    // the ACQ answer for (A,2,{w,x,y})
	random := []int32{0, 5, 8} // A, F, I
	if cpj(g, acq) <= cpj(g, random) {
		t.Fatalf("CPJ(acq)=%f ≤ CPJ(random)=%f", cpj(g, acq), cpj(g, random))
	}
	if CMF(g, acq, 0) <= CMF(g, random, 0) {
		t.Fatalf("CMF(acq) ≤ CMF(random)")
	}
}
