package kcore

import (
	"math/rand"
	"slices"
	"testing"

	"cexplorer/internal/gen"
)

// TestInsertWorkBoundInMaxCore pins down the work bound that makes the
// order-based insert fast, without a wall clock: on a DBLP-like graph, an
// insert with both endpoints in the max core that promotes nothing must
// touch at most 1% of the max core, counted from the scratch stamps of its
// own update. A traversal of the connected level-K region (a subcore walk)
// stamps essentially the whole max core instead.
//
// The touched set is a few candidates' neighbourhoods, which does not shrink
// with the graph while 1% of the max core does: the small config's bound is
// 6 vertices, too few, so this uses the default graph. Core numbers are
// checked against a rebuild every few inserts only, to stay quick under
// -race; the other tests check them after every op.
func TestInsertWorkBoundInMaxCore(t *testing.T) {
	o, m := newOverlayMaintainer(gen.GenerateDBLP(gen.DefaultDBLPConfig()).Graph)
	core := m.Core()
	K := Degeneracy(core)
	var top []int32
	for v, c := range core {
		if c == K {
			top = append(top, int32(v))
		}
	}
	bound := len(top) / 100
	if bound < 4 {
		t.Fatalf("fixture: max core of %d vertices is too small for a 1%% bound", len(top))
	}

	rng := rand.New(rand.NewSource(1))
	quiet, worst, total := 0, 0, 0
	const inserts = 150
	for i := 0; i < inserts; {
		u, v := top[rng.Intn(len(top))], top[rng.Intn(len(top))]
		if u == v || core[u] != K || core[v] != K || o.HasEdge(u, v) {
			continue
		}
		i++
		if err := o.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
		changed := m.InsertEdge(o, u, v)
		touched := 0
		for _, s := range m.stamp {
			if s == m.epoch {
				touched++
			}
		}
		if i%25 == 0 || i == inserts {
			if want := Decompose(mustMaterialize(t, o)); !slices.Equal(core, want) {
				t.Fatalf("after insert %d {%d,%d}: core numbers diverge from a rebuild", i, u, v)
			}
		}
		if len(changed) > 0 {
			continue
		}
		quiet++
		total += touched
		worst = max(worst, touched)
		if touched > bound {
			t.Fatalf("insert %d {%d,%d} promoted nothing but touched %d vertices (> %d, 1%% of the max core)",
				i, u, v, touched, bound)
		}
	}
	if quiet == 0 {
		t.Fatal("no insert left the core numbers unchanged")
	}
	t.Logf("%d inserts promoted nothing: %.2f vertices touched on average, %d at most", quiet, float64(total)/float64(quiet), worst)
}
