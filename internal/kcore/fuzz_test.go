package kcore

import (
	"slices"
	"testing"

	"cexplorer/internal/graph"
)

// FuzzCoreMaintenance decodes bytes into a small graph and a stream of
// addEdge, removeEdge and addVertex ops, applies the stream on a
// graph.Overlay and materializes every few ops, carrying the core array and
// k-order across exactly as Dataset.Mutate carries them from version to
// version (cloned into a pooled, Reset Maintainer). After every op the core
// numbers must equal a rebuild and the order invariant must hold.
//
// Layout: data[0] picks n; data[1] the number of initial edges, then two
// bytes per edge; then three bytes per op: kind, u, v (mod the current n),
// at most 256 ops.
func FuzzCoreMaintenance(f *testing.F) {
	f.Add([]byte{6, 6, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 0, 0, 3, 0, 1, 4, 1, 1, 4, 6, 0, 0, 0, 6, 5})
	f.Add([]byte{10, 0, 0, 0, 1, 0, 1, 2, 0, 2, 0, 1, 0, 2, 0, 1, 3, 0, 2, 3, 0, 3, 0, 1, 0, 3, 2, 1, 2, 1})
	f.Add([]byte{12, 20, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 6, 6, 4, 7, 8, 8, 9, 9, 7, 7, 10, 10, 11, 11, 8, 3, 7, 0, 4, 0, 5, 1, 4, 0, 3, 7, 1, 2, 9, 6, 0, 0, 0, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]%14)
		b := graph.NewBuilder(n, 0)
		b.AddVertexIDs(int32(n - 1))
		data = data[1:]
		edges := int(data[0] % 40)
		data = data[1:]
		for ; edges > 0 && len(data) >= 2; edges-- {
			b.AddEdge(int32(data[0])%int32(n), int32(data[1])%int32(n))
			data = data[2:]
		}
		g := b.MustBuild()
		core, ord := BuildOrder(g)
		o := graph.NewOverlay(g)
		m := NewMaintainer(slices.Clone(core), ord.Clone())
		for i := 0; len(data) >= 3 && i < 256; i++ {
			kind, u, v := data[0]%8, int32(data[1])%int32(o.N()), int32(data[2])%int32(o.N())
			data = data[3:]
			switch {
			case kind == 7:
				o.AddVertex("", nil)
				m.AddVertex()
			case u == v:
				continue
			case kind < 4 && !o.HasEdge(u, v):
				if err := o.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				m.InsertEdge(o, u, v)
			case kind >= 4 && o.HasEdge(u, v):
				if err := o.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				m.RemoveEdge(o, u, v)
			default:
				continue
			}
			checkMaintained(t, o, m, "op")
			if i%4 == 3 {
				// A version boundary: the successor adopts copies of the
				// maintained state, and a fresh overlay starts on its graph.
				o = graph.NewOverlay(mustMaterialize(t, o))
				m.Reset(slices.Clone(m.Core()), m.Order().Clone())
			}
		}
	})
}
