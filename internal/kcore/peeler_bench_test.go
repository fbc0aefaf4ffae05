package kcore

import (
	"math/rand"
	"testing"

	"cexplorer/internal/graph"
)

func benchGraph(n, m int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n, m)
	for i := 0; i < n; i++ {
		b.AddVertex("")
	}
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// BenchmarkPeelerSteadyState measures the verification hot path of the ACQ
// engine: repeated ConnectedKCoreContaining calls over one reused Peeler.
// The membership and visited sets are epoch-stamped dense scratch, so the
// only allocation per call is the returned component slice (callers retain
// it) — allocs/op must stay at 1 regardless of working-set size.
func BenchmarkPeelerSteadyState(b *testing.B) {
	g := benchGraph(20000, 100000, 42)
	vertices := make([]int32, g.N())
	for i := range vertices {
		vertices[i] = int32(i)
	}
	p := NewPeeler(g.AcquireScratch())
	// Locate a vertex that survives a k=4 peel so the BFS runs a real
	// component walk each iteration.
	surv := VerticesWithCoreAtLeast(Decompose(g), 4)
	if len(surv) == 0 {
		b.Skip("no 4-core in benchmark graph")
	}
	q := surv[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comp := p.ConnectedKCoreContaining(vertices, 4, q); comp == nil {
			b.Fatal("component vanished")
		}
	}
}

// BenchmarkPeelerMultiContaining exercises the multi-query-vertex variant,
// whose per-call component membership checks used to build a map.
func BenchmarkPeelerMultiContaining(b *testing.B) {
	g := benchGraph(20000, 100000, 42)
	vertices := make([]int32, g.N())
	for i := range vertices {
		vertices[i] = int32(i)
	}
	p := NewPeeler(g.AcquireScratch())
	surv := VerticesWithCoreAtLeast(Decompose(g), 4)
	if len(surv) < 2 {
		b.Skip("no 4-core in benchmark graph")
	}
	comp := p.ConnectedKCoreContaining(vertices, 4, surv[0])
	if len(comp) < 2 {
		b.Skip("component too small")
	}
	qs := []int32{comp[0], comp[len(comp)/2], comp[len(comp)-1]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.ConnectedKCoreContainingAll(vertices, 4, qs); got == nil {
			b.Fatal("component vanished")
		}
	}
}
