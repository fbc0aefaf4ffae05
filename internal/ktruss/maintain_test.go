package ktruss

import (
	"math/rand"
	"testing"

	"cexplorer/internal/graph"
)

// TestMaintainerMatchesRebuild drives random op streams over random graphs
// with planted near-cliques, so that inserts and removals move edges
// several levels deep, checking the carried decomposition against a
// rebuild after every op and crossing a version boundary now and then.
func TestMaintainerMatchesRebuild(t *testing.T) {
	moved := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		b := graph.NewBuilder(n, 0)
		b.AddVertexIDs(int32(n - 1))
		for c := rng.Intn(4); c > 0; c-- {
			vs := rng.Perm(n)[:min(3+rng.Intn(7), n)]
			for i := range vs {
				for j := i + 1; j < len(vs); j++ {
					if rng.Intn(10) < 8 {
						b.AddEdge(int32(vs[i]), int32(vs[j]))
					}
				}
			}
		}
		for i := n * rng.Intn(5); i > 0; i-- {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		base := Decompose(b.MustBuild())
		o := graph.NewOverlay(base.Graph())
		m := NewMaintainer(base, o)
		for op := 0; op < 60; op++ {
			u, v := int32(rng.Intn(o.N())), int32(rng.Intn(o.N()))
			switch {
			case rng.Intn(30) == 0:
				o.AddVertex("", nil)
				continue
			case u == v:
				continue
			case o.HasEdge(u, v):
				if err := o.RemoveEdge(u, v); err != nil {
					t.Fatal(err)
				}
				moved += m.RemoveEdge(u, v)
			default:
				if err := o.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
				moved += m.InsertEdge(u, v)
			}
			d := checkCarried(t, o, m)
			if rng.Intn(12) == 0 {
				o = graph.NewOverlay(d.Graph())
				m = NewMaintainer(d, o)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no op moved any existing edge's trussness; the streams test nothing")
	}
}
