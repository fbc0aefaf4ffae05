package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cexplorer/internal/gen"
)

// TestMutateConcurrency runs mutations concurrently with searches,
// exploration-session steps, and snapshot persistence. Its assertions
// encode the copy-on-write consistency contract: every search resolves one
// Dataset and must observe a graph+index snapshot that is internally
// consistent for its whole execution (community members within bounds and
// meeting the degree constraint in that exact graph), and an exploration
// session stays pinned to the version it was created on no matter how many
// versions are published afterwards. Run under -race, the test also makes
// the memory model do the torn-read hunting.
func TestMutateConcurrency(t *testing.T) {
	exp := NewExplorer()
	base := gen.GNMAttributed(300, 900, 12, 42)
	baseN := base.N()
	if _, err := exp.AddGraph("d", base); err != nil {
		t.Fatal(err)
	}
	ds, _ := exp.Dataset("d")
	ds.CoreNumbers()
	ds.Tree()

	deadline := time.Now().Add(600 * time.Millisecond)
	if testing.Short() {
		deadline = time.Now().Add(150 * time.Millisecond)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	fail := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Mutators: random interleaved inserts/deletes/vertex adds. Conflicts
	// with a concurrently published version are expected and tolerated;
	// any other error is a bug.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				cur, _ := exp.Dataset("d")
				n := int32(cur.Graph.N())
				var op Mutation
				u, v := rng.Int31n(n), rng.Int31n(n)
				switch {
				case rng.Intn(20) == 0:
					op = Mutation{Op: OpAddVertex, Keywords: []string{"fresh"}}
				case u == v:
					continue
				case cur.Graph.HasEdge(u, v):
					op = Mutation{Op: OpRemoveEdge, U: u, V: v}
				default:
					op = Mutation{Op: OpAddEdge, U: u, V: v}
				}
				if _, err := exp.Mutate(ctx, "d", []Mutation{op}); err != nil &&
					!errors.Is(err, ErrMutationConflict) && !errors.Is(err, ErrInvalidMutation) {
					report("mutator: %v", err)
					return
				}
			}
		}(int64(w) + 1)
	}

	// Searchers: pin a version, search on it, and verify the answer against
	// that same pinned version — the observable definition of "no torn
	// reads across a version swap".
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for time.Now().Before(deadline) {
				pinned, ok := exp.Dataset("d")
				if !ok {
					report("searcher: dataset vanished")
					return
				}
				q := int32(rng.Intn(baseN)) // base vertices exist in every version
				k := 1 + rng.Intn(3)
				eng := pinned.AcquireEngine()
				res, err := eng.SearchContext(ctx, q, int32(k), nil, 0)
				pinned.ReleaseEngine(eng)
				if err != nil {
					report("searcher: %v", err)
					return
				}
				g := pinned.Graph
				for _, c := range res {
					member := make(map[int32]bool, len(c.Vertices))
					for _, v := range c.Vertices {
						if int(v) >= g.N() {
							report("searcher: vertex %d outside pinned graph (n=%d)", v, g.N())
							return
						}
						member[v] = true
					}
					for _, v := range c.Vertices {
						deg := 0
						for _, u := range g.Neighbors(v) {
							if member[u] {
								deg++
							}
						}
						if deg < k {
							report("searcher: community member %d has induced degree %d < k=%d on its own version", v, deg, k)
							return
						}
					}
				}
			}
		}(int64(w))
	}

	// Explore-session driver: the session must keep serving its pinned
	// version (ring vertices bounded by the creation-time graph) while
	// mutations publish successors underneath it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, err := exp.Explore(ctx, "d", Query{Vertices: []int32{1}, K: 1})
		if err != nil {
			report("explore create: %v", err)
			return
		}
		// Vertex counts only grow along a lineage, so a bound taken right
		// after creation can never under-count the session's pinned graph;
		// a ring escaping it means the session left its version.
		pinned, _ := exp.Dataset("d")
		pinnedN := pinned.Graph.N()
		actions := []string{"contract", "expand"}
		for i := 0; time.Now().Before(deadline); i++ {
			next, err := exp.ExploreStep(ctx, "d", st.ID, actions[i%2], 0)
			if err != nil {
				if errors.Is(err, ErrInvalidQuery) {
					continue // probing past the boundary is part of the loop
				}
				report("explore step: %v", err)
				return
			}
			for _, v := range next.Ring {
				if int(v) >= pinnedN {
					report("explore: ring vertex %d beyond pinned n=%d (session escaped its version)", v, pinnedN)
					return
				}
			}
		}
	}()

	// Persister: snapshot the current version concurrently with swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			cur, _ := exp.Dataset("d")
			if _, err := cur.WriteSnapshot(io.Discard); err != nil {
				report("persist: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}

	// The surviving dataset must still be fully coherent.
	final, _ := exp.Dataset("d")
	if err := final.Graph.Validate(); err != nil {
		t.Fatalf("final graph invalid: %v", err)
	}
	if err := final.Tree().Validate(); err != nil {
		t.Fatalf("final tree invalid: %v", err)
	}
}

// deriveWindowCtx runs inDerive, once, the first time Err is polled while
// the batch holds the dataset name's writer lock (the batch polls it as it
// resolves the dataset and between ops), before Mutate stores the
// successor. That is the window in which a delete or re-upload raced a
// batch.
type deriveWindowCtx struct {
	context.Context
	e        *Explorer
	inDerive func()
}

func (c *deriveWindowCtx) Err() error {
	if f := c.inDerive; f != nil && c.e.writerRefs("fig5") == 1 {
		c.inDerive = nil
		f()
	}
	return c.Context.Err()
}

// writerRefs counts the holder and the waiters of name's writer lock.
func (e *Explorer) writerRefs(name string) int {
	e.writersMu.Lock()
	defer e.writersMu.Unlock()
	if l := e.writers[name]; l != nil {
		return l.refs
	}
	return 0
}

// TestMutateNeverPublishesOverRemovedOrReplacedDataset: a delete or
// re-upload issued while a batch is deriving waits for the batch, which
// commits on the lineage it started on; the delete or re-upload then lands
// over it. No deleted dataset comes back, and no re-upload is overwritten
// by a batch derived from the lineage it replaced.
func TestMutateNeverPublishesOverRemovedOrReplacedDataset(t *testing.T) {
	op := []Mutation{{Op: OpAddEdge, U: 5, V: 9}}
	// during starts write from another goroutine once the batch holds the
	// writer lock, and returns only when write is queued behind it.
	during := func(e *Explorer, write func()) (*deriveWindowCtx, *sync.WaitGroup) {
		var wg sync.WaitGroup
		return &deriveWindowCtx{Context: context.Background(), e: e, inDerive: func() {
			wg.Add(1)
			go func() { defer wg.Done(); write() }()
			for e.writerRefs("fig5") < 2 {
				runtime.Gosched()
			}
		}}, &wg
	}
	t.Run("delete", func(t *testing.T) {
		e, _ := figure5Explorer(t)
		var removed bool
		ctx, wg := during(e, func() { removed = e.RemoveDataset("fig5") })
		res, err := e.Mutate(ctx, "fig5", op)
		wg.Wait()
		if err != nil || res.Version != 1 {
			t.Fatalf("batch before the delete: res %+v, err %v; want version 1", res, err)
		}
		if !removed {
			t.Fatal("the delete found nothing to remove")
		}
		if cur, ok := e.Dataset("fig5"); ok {
			t.Fatalf("deleted dataset resurrected at version %d", cur.Version)
		}
	})
	t.Run("reupload", func(t *testing.T) {
		e, ds := figure5Explorer(t)
		var fresh *Dataset
		ctx, wg := during(e, func() {
			var err error
			if fresh, err = e.AddGraph("fig5", gen.Figure5()); err != nil {
				t.Error(err)
			}
		})
		res, err := e.Mutate(ctx, "fig5", op)
		wg.Wait()
		if err != nil || res.Version != 1 {
			t.Fatalf("batch before the re-upload: res %+v, err %v; want version 1", res, err)
		}
		cur, _ := e.Dataset("fig5")
		if fresh == nil || cur != fresh || cur.lin == ds.lin {
			t.Fatal("the registered dataset is not the re-upload")
		}
		if cur.Version != 0 || cur.Graph.HasEdge(5, 9) {
			t.Fatalf("the re-upload was overwritten: version %d, edge 5-9 %v", cur.Version, cur.Graph.HasEdge(5, 9))
		}
	})
}

// TestStoreRefusedCommitAppliesNothing: a commit error is the write's
// answer, and the registered version does not move.
func TestStoreRefusedCommitAppliesNothing(t *testing.T) {
	e, ds := figure5Explorer(t)
	refused := errors.New("refused")
	w := e.Lock("fig5")
	next, res, err := w.Mutate(context.Background(), []Mutation{{Op: OpAddEdge, U: 5, V: 9}})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Store(next, func() error { return refused })
	w.Unlock()
	if !errors.Is(err, refused) {
		t.Fatalf("err = %v, want the commit's error", err)
	}
	if cur, _ := e.Dataset("fig5"); cur != ds || res.Version != 1 {
		t.Fatalf("registered version %d (the batch derived %d): a refused batch was applied", cur.Version, res.Version)
	}
}
