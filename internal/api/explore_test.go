package api

import (
	"context"
	"errors"
	"testing"
	"time"

	"cexplorer/internal/gen"
)

// TestExploreRoundTrip drives the paper's browse loop through the session
// API: anchor at A on Figure 5, contract to a denser ring, expand back out,
// and check the Figure-6(b) nesting invariant (the ring at k+1 is a strict
// subset of the ring at k).
func TestExploreRoundTrip(t *testing.T) {
	e, _ := figure5Explorer(t)
	ctx := context.Background()

	st, err := e.Explore(ctx, "fig5", Query{Vertices: []int32{0}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.K != 2 || st.Dataset != "fig5" || st.Vertex != 0 {
		t.Fatalf("state = %+v", st)
	}
	if len(st.Communities) == 0 {
		t.Fatal("no attributed community at k=2")
	}
	if st.MaxK != 3 { // core(A) = 3 in Figure 5
		t.Fatalf("MaxK = %d, want 3", st.MaxK)
	}
	// Figure 5: the 2-core component of A is {A,B,C,D,E}.
	if st.RingSize != 5 || len(st.Ring) != 5 {
		t.Fatalf("ring at k=2 = %v", st.Ring)
	}
	at2 := intSet(st.Ring)
	// The attributed communities live inside the ring.
	for v := range vertexSet(st.Communities) {
		if !at2[v] {
			t.Fatalf("ACQ vertex %d outside the k=2 ring", v)
		}
	}

	// Contract: k 2→3, the ring must shrink to a strict subset (the K4).
	st3, err := e.ExploreStep(ctx, "fig5", st.ID, "contract", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st3.K != 3 || st3.Steps != 1 {
		t.Fatalf("after contract: %+v", st3)
	}
	at3 := intSet(st3.Ring)
	if len(at3) == 0 || len(at3) >= len(at2) {
		t.Fatalf("contract did not shrink the ring: %d -> %d vertices", len(at2), len(at3))
	}
	for v := range at3 {
		if !at2[v] {
			t.Fatalf("vertex %d at k=3 missing from k=2 ring", v)
		}
	}

	// Contract past core(q) fails typed and leaves the session in place.
	if _, err := e.ExploreStep(ctx, "fig5", st.ID, "contract", 0); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("contract past MaxK: err = %v, want ErrInvalidQuery", err)
	}
	got, err := e.ExploreGet("fig5", st.ID)
	if err != nil || got.K != 3 {
		t.Fatalf("session moved after failed step: %+v, %v", got, err)
	}

	// Expand back out: k 3→2 reproduces the k=2 ring exactly.
	st2, err := e.ExploreStep(ctx, "fig5", st.ID, "expand", 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.K != 2 || st2.Steps != 2 {
		t.Fatalf("after expand: %+v", st2)
	}
	if len(st2.Ring) != len(st.Ring) {
		t.Fatalf("expand did not restore the k=2 ring: %v vs %v", st2.Ring, st.Ring)
	}

	// Set jumps directly; expand below k=1 fails typed.
	if _, err := e.ExploreStep(ctx, "fig5", st.ID, "set", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExploreStep(ctx, "fig5", st.ID, "expand", 0); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("expand below 1: err = %v, want ErrInvalidQuery", err)
	}

	// Close; the id is gone afterwards, also under the dataset check.
	if err := e.ExploreClose("fig5", st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExploreGet("fig5", st.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("get after close: err = %v, want ErrSessionNotFound", err)
	}
	if err := e.ExploreClose("fig5", st.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("double close: err = %v, want ErrSessionNotFound", err)
	}
}

func vertexSet(comms []Community) map[int32]bool {
	set := map[int32]bool{}
	for _, c := range comms {
		for _, v := range c.Vertices {
			set[v] = true
		}
	}
	return set
}

func intSet(vs []int32) map[int32]bool {
	set := map[int32]bool{}
	for _, v := range vs {
		set[v] = true
	}
	return set
}

// TestExploreErrors covers the typed failure modes of session creation.
func TestExploreErrors(t *testing.T) {
	e, _ := figure5Explorer(t)
	ctx := context.Background()
	if _, err := e.Explore(ctx, "nope", Query{Vertices: []int32{0}, K: 2}); !errors.Is(err, ErrDatasetNotFound) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if _, err := e.Explore(ctx, "fig5", Query{K: 2}); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("no vertex: %v", err)
	}
	if _, err := e.Explore(ctx, "fig5", Query{Vertices: []int32{999}, K: 2}); !errors.Is(err, ErrVertexNotFound) {
		t.Fatalf("out-of-range vertex: %v", err)
	}
	// Vertex I (id 8) has core 1: k=3 is unreachable.
	if _, err := e.Explore(ctx, "fig5", Query{Vertices: []int32{8}, K: 3}); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("k beyond core: %v", err)
	}
	if _, err := e.ExploreStep(ctx, "fig5", "nosuch", "expand", 0); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("step on unknown session: %v", err)
	}
	// A session is scoped to its dataset path.
	st, err := e.Explore(ctx, "fig5", Query{Vertices: []int32{0}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExploreGet("other", st.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("cross-dataset get: %v", err)
	}
	if _, err := e.ExploreStep(ctx, "fig5", st.ID, "sideways", 0); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("bad action: %v", err)
	}
}

// TestExploreTTLEviction shrinks the TTL to nearly nothing and checks that
// idle sessions are swept and counted.
func TestExploreTTLEviction(t *testing.T) {
	e, _ := figure5Explorer(t)
	ctx := context.Background()
	st, err := e.Explore(ctx, "fig5", Query{Vertices: []int32{0}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.SetExploreTTL(time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	stats := e.ExploreStats() // stats sweep evicts
	if stats.Active != 0 || stats.Expired != 1 || stats.Created != 1 {
		t.Fatalf("stats after TTL = %+v", stats)
	}
	if _, err := e.ExploreGet("fig5", st.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("expired session still resolvable: %v", err)
	}
}

// TestExploreStatsCounts checks the created/steps/closed counters.
func TestExploreStatsCounts(t *testing.T) {
	e, _ := figure5Explorer(t)
	ctx := context.Background()
	st, err := e.Explore(ctx, "fig5", Query{Vertices: []int32{0}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExploreStep(ctx, "fig5", st.ID, "contract", 0); err != nil {
		t.Fatal(err)
	}
	if err := e.ExploreClose("fig5", st.ID); err != nil {
		t.Fatal(err)
	}
	stats := e.ExploreStats()
	if stats.Created != 1 || stats.Steps != 1 || stats.Closed != 1 || stats.Active != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestExploreConcurrentStepCloseRace hammers one session with concurrent
// steps, gets, closes, and fresh searches on the same dataset, heap-built
// and mmap-backed; on the mapped one the dataset itself is closed in the
// race too. Under -race this pins the pin contract: a close never unmaps
// under a step — the session's reads run on its pin, which drops only once
// an in-flight step is done.
func TestExploreConcurrentStepCloseRace(t *testing.T) {
	ctx := context.Background()
	for _, mapped := range []bool{false, true} {
		for round := 0; round < 8; round++ {
			ds := NewDataset("fig5", gen.Figure5())
			if mapped {
				ds = openMmapDataset(t, ds)
			}
			e := NewExplorer()
			if err := e.AddDataset(ds); err != nil {
				t.Fatal(err)
			}
			st, err := e.Explore(ctx, "fig5", Query{Vertices: []int32{0}, K: 2})
			if err != nil {
				t.Fatal(err)
			}
			stepped, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 8; i++ {
					if i == 1 {
						close(stepped) // the close races the steps after the first
					}
					action := "contract"
					if i%2 == 1 {
						action = "expand"
					}
					// ErrSessionNotFound / ErrInvalidQuery are fine here — the
					// close may win; data races and reads of unmapped pages
					// are what the test hunts.
					_, _ = e.ExploreStep(ctx, "fig5", st.ID, action, 0)
					_, _ = e.ExploreGet("fig5", st.ID)
				}
			}()
			go func() {
				// A search pins on its own, or fails typed once the
				// dataset is closed.
				_, _ = e.Search(ctx, "fig5", "ACQ", Query{Vertices: []int32{0}, K: 3})
			}()
			// Closing the dataset first leaves the session's pin as the
			// mapping's last reference, so the session close unmaps.
			<-stepped
			ds.Close()
			_ = e.ExploreClose("fig5", st.ID)
			<-done
			if stats := e.ExploreStats(); stats.Active != 0 {
				t.Fatalf("mapped=%v: sessions leaked: %+v", mapped, stats)
			}
		}
	}
}

// TestExploreKeywordScope: a session created with keywords reports shared
// keywords from that scope at every k.
func TestExploreKeywordScope(t *testing.T) {
	e, _ := figure5Explorer(t)
	st, err := e.Explore(context.Background(), "fig5", Query{Vertices: []int32{0}, K: 2, Keywords: []string{"w", "x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Communities) == 0 || len(st.Communities[0].SharedKeywords) == 0 {
		t.Fatalf("keyword-scoped session lost its keywords: %+v", st.Communities)
	}
	d := gen.GenerateDBLP(gen.SmallDBLPConfig())
	if _, err := e.AddGraph("dblp", d.Graph); err != nil {
		t.Fatal(err)
	}
	q, _ := d.Graph.VertexByName("jim gray")
	st2, err := e.Explore(context.Background(), "dblp", Query{Vertices: []int32{q}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Communities) == 0 || st2.RingSize == 0 {
		t.Fatalf("dblp session = %+v", st2)
	}
}
