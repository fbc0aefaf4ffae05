package api

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"cexplorer/internal/gen"
	"cexplorer/internal/ktruss"
	"cexplorer/internal/snapshot"
)

// checkCarriedTruss fails unless ds holds a resident truss over its own
// graph that equals a from-scratch decomposition edge for edge, with both
// adjacency slots of every edge agreeing.
func checkCarriedTruss(t *testing.T, ds *Dataset, what string) {
	t.Helper()
	got, ok := ds.truss.resident()
	if !ok {
		t.Fatalf("%s: no resident truss", what)
	}
	g := ds.Graph
	if got.Graph() != g {
		t.Fatalf("%s: resident truss is over another graph", what)
	}
	want := ktruss.Decompose(g)
	for u := int32(0); u < int32(g.N()); u++ {
		gs, ws := got.Slots(u), want.Slots(u)
		for i, v := range g.Neighbors(u) {
			if gs[i] != ws[i] {
				t.Fatalf("%s: truss({%d,%d}) carried %d, rebuilt %d", what, u, v, gs[i], ws[i])
			}
			if v > u {
				j, _ := slices.BinarySearch(g.Neighbors(v), u)
				if r := got.Slots(v)[j]; r != gs[i] {
					t.Fatalf("%s: edge {%d,%d} reads %d at %d and %d at %d", what, u, v, gs[i], u, r, v)
				}
			}
		}
	}
}

// benchStream generates ops shaped like the benchmark's write streams:
// inserts between two members of one ground-truth community, removals of
// existing edges, and the odd addVertex. It tracks the batch in progress so
// every op it returns is valid where it lands.
type benchStream struct {
	d   *gen.DBLP
	rng *rand.Rand
	cur *Dataset
	pen map[[2]int32]bool // edges the pending batch added (true) or removed (false)
}

func (s *benchStream) has(u, v int32) bool {
	if p, ok := s.pen[[2]int32{min(u, v), max(u, v)}]; ok {
		return p
	}
	return s.cur.Graph.HasEdge(u, v)
}

func (s *benchStream) set(u, v int32, present bool) {
	s.pen[[2]int32{min(u, v), max(u, v)}] = present
}

// absent returns a community pair that is not an edge.
func (s *benchStream) absent() (int32, int32) {
	for {
		c := s.d.Truth[s.rng.Intn(len(s.d.Truth))]
		u, v := c[s.rng.Intn(len(c))], c[s.rng.Intn(len(c))]
		if u != v && !s.has(u, v) {
			return u, v
		}
	}
}

// present returns an existing edge.
func (s *benchStream) present() (int32, int32) {
	for {
		u := int32(s.rng.Intn(s.cur.Graph.N()))
		if ns := s.cur.Graph.Neighbors(u); len(ns) > 0 {
			if v := ns[s.rng.Intn(len(ns))]; s.has(u, v) {
				return u, v
			}
		}
	}
}

func (s *benchStream) batch(n int) []Mutation {
	s.pen = map[[2]int32]bool{}
	ops := make([]Mutation, 0, n+4)
	for len(ops) < n {
		switch p := s.rng.Intn(100); {
		case p < 5:
			src := int32(s.rng.Intn(s.cur.Graph.N()))
			ops = append(ops, Mutation{Op: OpAddVertex, Name: fmt.Sprintf("carry author %d", s.rng.Int63()),
				Keywords: s.cur.Graph.KeywordStrings(src)})
		case p < 50:
			u, v := s.present()
			s.set(u, v, false)
			ops = append(ops, Mutation{Op: OpRemoveEdge, U: u, V: v})
		default:
			u, v := s.absent()
			s.set(u, v, true)
			ops = append(ops, Mutation{Op: OpAddEdge, U: u, V: v})
		}
	}
	if n > 1 {
		// One edge in and out again, one out and in again, in one batch.
		u, v := s.absent()
		x, y := s.present()
		ops = append(ops,
			Mutation{Op: OpAddEdge, U: u, V: v}, Mutation{Op: OpRemoveEdge, U: x, V: y},
			Mutation{Op: OpRemoveEdge, U: u, V: v}, Mutation{Op: OpAddEdge, U: x, V: y})
	}
	return ops
}

// TestCarriedTrussMatchesRebuildOnBenchStreams is the exactness oracle of
// truss maintenance on the workload it serves: a small DBLP graph with its
// truss resident takes ~300 bench-shaped ops, as single ops and as 64-op
// batches, and after every batch the carried truss must equal a
// from-scratch decomposition of the successor, built at no cost.
func TestCarriedTrussMatchesRebuildOnBenchStreams(t *testing.T) {
	d := gen.GenerateDBLP(gen.SmallDBLPConfig())
	ds := NewDataset("dblp", d.Graph)
	ds.BuildIndexes()
	s := &benchStream{d: d, rng: rand.New(rand.NewSource(7)), cur: ds}
	ops, moved := 0, 0
	for b := 0; ops < 300; b++ {
		n := 1
		if b%8 == 7 {
			n = 64
		}
		batch := s.batch(n)
		next, _, err := s.cur.Mutate(context.Background(), batch)
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		checkCarriedTruss(t, next, fmt.Sprintf("batch %d (%d ops)", b, len(batch)))
		if tm := next.BuildTimings(); tm.TrussMS != 0 {
			t.Fatalf("batch %d: successor built its truss (%.2f ms)", b, tm.TrussMS)
		}
		prev, cur := s.cur.Truss(), next.Truss()
		next.Graph.Edges(func(u, v int32) bool {
			was, ok := prev.Trussness(u, v)
			if now, _ := cur.Trussness(u, v); ok && now != was {
				moved++
			}
			return true
		})
		s.cur = next
		ops += len(batch)
	}
	if moved == 0 {
		t.Fatal("no batch moved an existing edge's trussness; the stream tests nothing")
	}
	t.Logf("%d ops moved %d existing edges' trussness", ops, moved)
}

// TestTrussCarryPerWriteCost pins what carrying the truss adds to a write
// at the default generator scale: a single-op Mutate on a truss-resident
// base spends at most 2 ms more than on the same base without a truss,
// allocates at most 1.1× the carried per-slot array (8 B per edge) more,
// and never builds the successor's edge-ID arena.
func TestTrussCarryPerWriteCost(t *testing.T) {
	d := gen.GenerateDBLP(gen.DefaultDBLPConfig())
	with := NewDataset("dblp", d.Graph)
	with.BuildIndexes()
	without := NewDataset("dblp", d.Graph)
	without.Tree()
	without.CoreNumbers()
	s := &benchStream{d: d, rng: rand.New(rand.NewSource(3)), cur: with}
	var writes [][]Mutation
	for len(writes) < 20 {
		s.pen = map[[2]int32]bool{}
		u, v := s.absent()
		writes = append(writes, []Mutation{{Op: OpAddEdge, U: u, V: v}})
		u, v = s.present()
		writes = append(writes, []Mutation{{Op: OpRemoveEdge, U: u, V: v}})
	}
	// run returns the mean wall time and allocated bytes of one write.
	run := func(base *Dataset) (time.Duration, float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for _, w := range writes {
			if _, _, err := base.Mutate(context.Background(), w); err != nil {
				t.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return elapsed / time.Duration(len(writes)), float64(after.TotalAlloc-before.TotalAlloc) / float64(len(writes))
	}
	bestWith, bestWithout := time.Duration(1<<62), time.Duration(1<<62)
	var bytesWith, bytesWithout float64
	for rep := 0; rep < 5; rep++ {
		tw, bw := run(with)
		to, bo := run(without)
		bestWith, bestWithout = min(bestWith, tw), min(bestWithout, to)
		bytesWith, bytesWithout = bw, bo
	}
	carried := float64(8 * d.Graph.M())
	t.Logf("per write: %v with truss, %v without; %.0f B more allocated, carried array %.0f B",
		bestWith, bestWithout, bytesWith-bytesWithout, carried)
	// The time bound holds for the uninstrumented build; the race
	// detector slows the maintenance kernels an order of magnitude.
	if extra := bestWith - bestWithout; extra > 2*time.Millisecond && !raceEnabled {
		t.Errorf("carrying the truss adds %v per write, want ≤ 2ms", extra)
	}
	if extra := bytesWith - bytesWithout; extra > 1.1*carried {
		t.Errorf("carrying the truss allocates %.0f B more per write, want ≤ 1.1 × %.0f", extra, carried)
	}

	next, _, err := with.Mutate(context.Background(), writes[0])
	if err != nil {
		t.Fatal(err)
	}
	if !next.Indexes().Truss {
		t.Fatal("successor of a truss-resident base carries no truss")
	}
	size := next.Graph.Bytes()
	next.Graph.EdgeIDs(0)
	if next.Graph.Bytes() == size {
		t.Fatal("Mutate built the successor's edge-ID arena")
	}
}

// TestCarriedTrussPersistsAndReopens: a successor several writes past a
// truss-resident base persists its carried truss through the compaction
// path (the resident-index snapshot) with no truss build anywhere, and the
// snapshot reopens, copied and mapped, with trussness equal to a rebuild.
func TestCarriedTrussPersistsAndReopens(t *testing.T) {
	d := gen.GenerateDBLP(gen.SmallDBLPConfig())
	ds := NewDataset("dblp", d.Graph)
	ds.BuildIndexes()
	s := &benchStream{d: d, rng: rand.New(rand.NewSource(11)), cur: ds}
	built := BuildTotals().TrussMS
	for b := 0; b < 6; b++ {
		next, _, err := s.cur.Mutate(context.Background(), s.batch(1+b%2*15))
		if err != nil {
			t.Fatal(err)
		}
		if tm := next.BuildTimings(); tm.TrussMS != 0 {
			t.Fatalf("write %d built a truss (%.2f ms)", b, tm.TrussMS)
		}
		s.cur = next
	}
	path := filepath.Join(t.TempDir(), "dblp.cxsnap")
	if _, err := s.cur.WriteResidentSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	if now := BuildTotals().TrussMS; now != built {
		t.Fatalf("writes and persist built a truss: totals %.2f -> %.2f ms", built, now)
	}
	for _, mode := range []snapshot.OpenMode{snapshot.OpenCopy, snapshot.OpenMmap} {
		got, err := OpenSnapshotFileMode("", path, mode)
		if err != nil {
			t.Fatalf("open %v: %v", mode, err)
		}
		if got.Version != s.cur.Version || !got.Indexes().Truss {
			t.Fatalf("open %v: version %d (want %d), indexes %+v", mode, got.Version, s.cur.Version, got.Indexes())
		}
		checkCarriedTruss(t, got, fmt.Sprintf("reopened (%v)", mode))
		if tm := got.BuildTimings(); tm.TrussMS != 0 {
			t.Fatalf("open %v: truss rebuilt on open", mode)
		}
		got.Close()
	}
}
