package snapshot

import (
	"bytes"
	"sync"
	"testing"

	"cexplorer/internal/cltree"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
	"cexplorer/internal/ktruss"
)

// The acceptance benchmark of the persistence subsystem: opening a
// snapshotted dataset (graph + all three indexes) against the cold path —
// parsing edge-list/attribute text and rebuilding the CL-tree, core, and
// truss indexes — on a graph of ≥100k edges.
//
//	go test -bench 'Start' -benchtime 3x ./internal/snapshot
//
// then compare BenchmarkWarmStartSnapshot to BenchmarkColdStartParseAndIndex.

const (
	benchN = 40_000
	benchM = 120_000
)

var benchInput struct {
	once      sync.Once
	edgeText  []byte // "u v" lines
	attrText  []byte // "id\tname\tkw..." lines
	snapBytes []byte // full snapshot: graph + core + cltree + ktruss
}

func benchSetup(b testing.TB) {
	b.Helper()
	benchInput.once.Do(func() {
		g := randomAttributed(b, benchN, benchM, 1)
		var edges, attrs bytes.Buffer
		if err := g.WriteEdgeList(&edges); err != nil {
			b.Fatalf("edge list: %v", err)
		}
		if err := g.WriteAttributes(&attrs); err != nil {
			b.Fatalf("attributes: %v", err)
		}
		benchInput.edgeText = edges.Bytes()
		benchInput.attrText = attrs.Bytes()
		benchInput.snapBytes = encode(b, fullSnapshot(b, "bench", g))
	})
}

// coldStart is everything a restart used to cost: text parse + CSR build +
// core decomposition + CL-tree build + truss decomposition.
func coldStart(b testing.TB) (*graph.Graph, []int32, *cltree.Tree, *ktruss.Decomposition) {
	g, err := graph.LoadAttributed(bytes.NewReader(benchInput.edgeText), bytes.NewReader(benchInput.attrText))
	if err != nil {
		b.Fatalf("load: %v", err)
	}
	tree := cltree.Build(g)
	return g, kcore.Decompose(g), tree, ktruss.Decompose(g)
}

func BenchmarkColdStartParseAndIndex(b *testing.B) {
	benchSetup(b)
	b.SetBytes(int64(len(benchInput.edgeText) + len(benchInput.attrText)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, core, tree, truss := coldStart(b)
		if g.M() < 100_000 || core == nil || tree == nil || truss == nil {
			b.Fatalf("cold start incomplete")
		}
	}
}

func BenchmarkWarmStartSnapshot(b *testing.B) {
	benchSetup(b)
	b.SetBytes(int64(len(benchInput.snapBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Read(bytes.NewReader(benchInput.snapBytes))
		if err != nil {
			b.Fatalf("read: %v", err)
		}
		if s.Graph.M() < 100_000 || s.Core == nil || s.Tree == nil || s.Truss == nil {
			b.Fatalf("warm start incomplete")
		}
	}
}

// BenchmarkSnapshotWrite measures the persist cost (what an upload pays
// once so that every later boot is a warm start).
func BenchmarkSnapshotWrite(b *testing.B) {
	benchSetup(b)
	s, err := Read(bytes.NewReader(benchInput.snapBytes))
	if err != nil {
		b.Fatalf("read: %v", err)
	}
	b.SetBytes(int64(len(benchInput.snapBytes)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(len(benchInput.snapBytes))
		if _, err := Write(&buf, s); err != nil {
			b.Fatalf("write: %v", err)
		}
	}
}

// TestWarmOpenBuildsNothing is the machine-independent stand-in for the
// acceptance ratio (which the cmd/bench harness tracks as
// snapshot.warm_vs_cold_ratio; a wall-clock ratio has no place in go test):
// a warm open hands back every index ready-made, so nothing is left to
// build, and it allocates less than two objects per vertex where the cold
// path — text parse plus three index builds — allocates about ten.
func TestWarmOpenBuildsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	benchSetup(t)
	s, err := Read(bytes.NewReader(benchInput.snapBytes))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if s.Graph.N() != benchN || s.Graph.M() < 100_000 {
		t.Fatalf("warm open: graph %d vertices / %d edges", s.Graph.N(), s.Graph.M())
	}
	if len(s.Core) != benchN || s.Tree == nil || s.Truss == nil {
		t.Fatalf("warm open left an index to build: core %d entries, tree %v, truss %v",
			len(s.Core), s.Tree != nil, s.Truss != nil)
	}
	if raceEnabled {
		return // the detector allocates on its own account
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Read(bytes.NewReader(benchInput.snapBytes)); err != nil {
			t.Fatalf("read: %v", err)
		}
	})
	t.Logf("warm open: %.0f allocations (%.2f per vertex)", allocs, allocs/benchN)
	if allocs > 2*benchN {
		t.Fatalf("warm open made %.0f allocations, want ≤ %d (two per vertex)", allocs, 2*benchN)
	}
}
