package ktruss

import (
	"slices"
	"testing"

	"cexplorer/internal/graph"
)

// FuzzTrussMaintenance decodes bytes into a small graph and a stream of
// addEdge, removeEdge and addVertex ops, applies the stream on a
// graph.Overlay with a Maintainer, and materializes every few ops, carrying
// the decomposition across exactly as Dataset.Mutate carries it from
// version to version. After every op the maintained trussness must equal a
// rebuild, slot for slot.
//
// Layout: data[0] picks n; data[1] the number of initial edges, then two
// bytes per edge; then three bytes per op: kind, u, v (mod the current n),
// at most 256 ops.
func FuzzTrussMaintenance(f *testing.F) {
	f.Add([]byte{6, 6, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 0, 0, 3, 0, 1, 4, 1, 1, 4, 6, 0, 0, 0, 6, 5})
	f.Add([]byte{10, 0, 0, 0, 1, 0, 1, 2, 0, 2, 0, 1, 0, 2, 0, 1, 3, 0, 2, 3, 0, 3, 0, 1, 0, 3, 2, 1, 2, 1})
	f.Add([]byte{12, 20, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 6, 6, 4, 7, 8, 8, 9, 9, 7, 7, 10, 10, 11, 11, 8, 3, 7, 0, 4, 0, 5, 1, 4, 0, 3, 7, 1, 2, 9, 6, 0, 0, 0, 10, 11})
	// A K5 minus one edge, then the edge in and out again.
	f.Add([]byte{5, 9, 0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 0, 3, 4, 4, 3, 4, 0, 3, 4, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0]%14)
		b := graph.NewBuilder(n, 0)
		b.AddVertexIDs(int32(n - 1))
		data = data[1:]
		edges := int(data[0] % 48)
		data = data[1:]
		for ; edges > 0 && len(data) >= 2; edges-- {
			b.AddEdge(int32(data[0])%int32(n), int32(data[1])%int32(n))
			data = data[2:]
		}
		base := Decompose(b.MustBuild())
		o := graph.NewOverlay(base.Graph())
		m := NewMaintainer(base, o)
		for i := 0; len(data) >= 3 && i < 256; i++ {
			kind, u, v := data[0]%8, int32(data[1])%int32(o.N()), int32(data[2])%int32(o.N())
			data = data[3:]
			switch {
			case kind == 7:
				o.AddVertex("", nil)
			case u == v:
				continue
			case kind < 4 && !o.HasEdge(u, v):
				if err := o.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				m.InsertEdge(u, v)
			case kind >= 4 && o.HasEdge(u, v):
				if err := o.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				m.RemoveEdge(u, v)
			default:
				continue
			}
			d := checkCarried(t, o, m)
			if i%4 == 3 {
				// A version boundary: the successor's decomposition is the
				// next batch's base.
				o = graph.NewOverlay(d.Graph())
				m = NewMaintainer(d, o)
			}
		}
	})
}

// checkCarried materializes the overlay and the maintained decomposition
// and fails unless the latter equals a rebuild slot for slot. It returns
// the carried decomposition.
func checkCarried(t *testing.T, o *graph.Overlay, m *Maintainer) *Decomposition {
	t.Helper()
	g, err := o.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Decomposition(g)
	if err != nil {
		t.Fatal(err)
	}
	if want := Decompose(g); !slices.Equal(got.truss, want.truss) {
		for u := int32(0); u < int32(g.N()); u++ {
			for i, v := range g.Neighbors(u) {
				if a, b := got.Slots(u)[i], want.Slots(u)[i]; a != b {
					t.Fatalf("truss({%d,%d}) carried %d, rebuilt %d", u, v, a, b)
				}
			}
		}
	}
	return got
}
