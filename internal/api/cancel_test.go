package api

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cexplorer/internal/csearch"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
)

// promptBound is a hang-catcher, not a latency assertion: a kernel that
// ignores its context runs for minutes on these inputs, so half a minute
// tells it from one that polls, however slow a phase the machine is in. The
// typed error is what proves the cancellation was observed.
func promptBound() time.Duration { return 30 * time.Second }

// slowSearchGraph builds a graph on which an ACQ Dec search takes long
// enough to cancel mid-flight, deterministically: a hub q carrying nw
// keywords, each keyword shared with its own (k+1)-clique through q. Every
// singleton keyword admits a community (its clique), but no pair does (the
// cliques are vertex-disjoint apart from q), so Dec walks the subset
// lattice of all nw admissible keywords from the top — ~2^nw candidate
// verifications before it concludes only singletons work.
func slowSearchGraph(nw, k int) (*graph.Graph, int32) {
	b := graph.NewBuilder(1+nw*(k+1), nw*(k+1)*(k+2)/2)
	kws := make([]string, nw)
	for i := range kws {
		kws[i] = fmt.Sprintf("w%02d", i)
	}
	q := b.AddVertex("q", kws...)
	for i := 0; i < nw; i++ {
		members := []int32{q}
		for j := 0; j < k+1; j++ {
			members = append(members, b.AddVertex(fmt.Sprintf("c%02d_%d", i, j), kws[i]))
		}
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				b.AddEdge(members[x], members[y])
			}
		}
	}
	return b.MustBuild(), q
}

// TestCancelACQSearchPrompt cancels an in-flight ACQ search and requires it
// to return ErrCanceled, not its answer, well before the walk would end —
// the contract that a dropped connection frees its worker slot promptly instead of
// finishing a doomed lattice walk.
func TestCancelACQSearchPrompt(t *testing.T) {
	g, q := slowSearchGraph(18, 3)
	e := NewExplorer()
	ds, err := e.AddGraph("slow", g)
	if err != nil {
		t.Fatal(err)
	}
	ds.Tree() // index outside the timed region

	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		comms []Community
		err   error
	}
	done := make(chan result, 1)
	go func() {
		comms, err := e.Search(ctx, "slow", "ACQ", Query{Vertices: []int32{q}, K: 3})
		done <- result{comms, err}
	}()

	// Let the search get going, then pull the plug.
	time.Sleep(20 * time.Millisecond)
	cancel()
	canceledAt := time.Now()
	select {
	case r := <-done:
		if !errors.Is(r.err, ErrCanceled) {
			t.Fatalf("err = %v (communities %d), want ErrCanceled", r.err, len(r.comms))
		}
		if lat := time.Since(canceledAt); lat > promptBound() {
			t.Fatalf("search returned %v after cancel, want < %v", lat, promptBound())
		}
	case <-time.After(promptBound()):
		t.Fatal("search did not observe cancellation within the hang bound")
	}
}

// TestCancelGlobalDecomposePrompt cancels a Global search mid whole-graph
// core decomposition (Global's defining cost on a cold graph) and requires
// a prompt context.Canceled from the kernel.
func TestCancelGlobalDecomposePrompt(t *testing.T) {
	g := gen.GNM(300_000, 1_500_000, 7)
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		r   *csearch.GlobalResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		r, err := csearch.GlobalContext(ctx, g, nil, 0, 2)
		done <- result{r, err}
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	canceledAt := time.Now()
	select {
	case r := <-done:
		// The decomposition may have finished before the cancel landed (fast
		// machines): a nil error with a result is then legitimate. What is
		// never legitimate is running long past the cancellation.
		if lat := time.Since(canceledAt); lat > promptBound() {
			t.Fatalf("Global returned %v after cancel, want < %v", lat, promptBound())
		}
		if r.err != nil && !errors.Is(r.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", r.err)
		}
	case <-time.After(promptBound()):
		t.Fatal("Global did not observe cancellation within the hang bound")
	}
}

// TestSearchDeadlineMapsToErrTimeout runs the slow search under a tiny
// deadline and requires the typed timeout error.
func TestSearchDeadlineMapsToErrTimeout(t *testing.T) {
	g, q := slowSearchGraph(16, 3)
	e := NewExplorer()
	ds, err := e.AddGraph("slow", g)
	if err != nil {
		t.Fatal(err)
	}
	ds.Tree()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = e.Search(ctx, "slow", "ACQ", Query{Vertices: []int32{q}, K: 3})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if lat := time.Since(start); lat > promptBound() {
		t.Fatalf("deadline observed only after %v", lat)
	}
}

// TestPreCanceledContextShortCircuits: every Explorer query method must
// reject an already-canceled context with ErrCanceled without doing work.
func TestPreCanceledContextShortCircuits(t *testing.T) {
	e, _ := figure5Explorer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Search(ctx, "fig5", "ACQ", Query{Vertices: []int32{0}, K: 2}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Search err = %v, want ErrCanceled", err)
	}
	if _, err := e.Detect(ctx, "fig5", "CODICIL"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Detect err = %v, want ErrCanceled", err)
	}
	if _, err := e.Analyze(ctx, "fig5", Community{Vertices: []int32{0, 2, 3}}, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Analyze err = %v, want ErrCanceled", err)
	}
	if _, err := e.Explore(ctx, "fig5", Query{Vertices: []int32{0}, K: 2}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Explore err = %v, want ErrCanceled", err)
	}
}

// TestCancelDetectPrompt cancels an in-flight CODICIL detection on a
// mid-size graph.
func TestCancelDetectPrompt(t *testing.T) {
	d := gen.GenerateDBLP(gen.SmallDBLPConfig())
	e := NewExplorer()
	if _, err := e.AddGraph("dblp", d.Graph); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Detect(ctx, "dblp", "CODICIL")
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	canceledAt := time.Now()
	select {
	case err := <-done:
		if lat := time.Since(canceledAt); lat > promptBound() {
			t.Fatalf("Detect returned %v after cancel, want < %v", lat, promptBound())
		}
		if err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled (or nil if it finished first)", err)
		}
	case <-time.After(promptBound()):
		t.Fatal("Detect did not observe cancellation within the hang bound")
	}
}

// TestAnalyzeHonoursContext: the analysis a cache miss computes hands its
// ctx to CPJ's pair loop (the checks before it never look at ctx, so the
// context error can only come from there), Analyze maps a canceled or
// expired ctx to ErrCanceled or ErrTimeout, and neither is cached.
func TestAnalyzeHonoursContext(t *testing.T) {
	e, ds := figure5Explorer(t)
	c := Community{Method: "ACQ", Vertices: []int32{0, 2, 3}}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	if _, err := analyzeOn(canceled, ds, c, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("analyzeOn under a canceled ctx: %v", err)
	}
	if _, err := e.Analyze(canceled, "fig5", c, 0); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Analyze under a canceled ctx: %v, want ErrCanceled", err)
	}
	if _, err := e.Analyze(expired, "fig5", c, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Analyze under an expired ctx: %v, want ErrTimeout", err)
	}
	if a, err := e.Analyze(context.Background(), "fig5", c, 0); err != nil || a.CPJ <= 0 {
		t.Fatalf("Analyze after the failures = %+v, %v", a, err)
	}
}
