package csearch

import (
	"context"

	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
)

// LocalResult reports a Local search outcome.
type LocalResult struct {
	Vertices  []int32 // the community, ascending
	MinDegree int32
	Visited   int // vertices pulled into the candidate set (Local's cost)
}

// LocalOptions tunes the expansion.
type LocalOptions struct {
	// Budget caps the candidate-set size; 0 means 256·(k+1), after which the
	// search gives up (Local trades completeness for locality, exactly the
	// Cui et al. positioning: fast small communities near q).
	Budget int
}

// Local implements local-expansion community search in the style of Cui et
// al. (SIGMOD'14): grow a candidate set outward from q, preferring vertices
// best connected to the current set, and periodically test whether the
// candidates already contain a connected k-core around q. The first success
// is returned — a *small* community, in contrast to Global's maximal one.
// Returns nil if the budget is exhausted without success.
func Local(g *graph.Graph, q int32, k int32, opts LocalOptions) *LocalResult {
	r, _ := LocalContext(context.Background(), g, q, k, opts)
	return r
}

// LocalContext is Local with cooperative cancellation: the expansion loop
// polls ctx between frontier pops and returns ctx.Err() when the request is
// canceled or past its deadline. A nil result with a nil error means the
// budget was exhausted without success.
func LocalContext(ctx context.Context, g *graph.Graph, q int32, k int32, opts LocalOptions) (*LocalResult, error) {
	if q < 0 || int(q) >= g.N() || k < 0 {
		return nil, nil
	}
	if int32(g.Degree(q)) < k {
		return nil, nil // q can never reach internal degree k
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = 256 * int(k+1)
	}

	s := g.AcquireScratch()
	defer s.Release()
	// Aux holds every vertex the expansion has touched; Val tells them
	// apart: inCandidate for members of the candidate set, otherwise the
	// vertex's number of edges into it. The peeler overwrites Val only for
	// candidates, whose connection counts are no longer needed.
	const inCandidate = -1
	touched, conn := &s.Aux, s.Val
	touched.Reset(g.N())
	touched.Add(q)
	conn[q] = inCandidate
	cand := []int32{q}
	// Frontier priority: more edges into the candidate set = better
	// (min-heap on negated connection count, degree as tiebreak to prefer
	// low-degree vertices, keeping candidate sets small).
	frontier := &s.Heap
	frontier.Reset(g.N())
	push := func(v int32) {
		if !touched.Has(v) {
			touched.Add(v)
			conn[v] = 0
		}
		if conn[v] == inCandidate {
			return
		}
		conn[v]++
		frontier.Push(v, -float64(conn[v])+float64(g.Degree(v))*1e-9)
	}
	for _, u := range g.Neighbors(q) {
		push(u)
	}

	peeler := kcore.NewPeeler(s)
	// check tests whether the candidates already hold a connected k-core
	// around q.
	check := func() *LocalResult {
		comp := peeler.ConnectedKCoreContaining(cand, k, q)
		// The peel left induced degrees in the candidates' Val entries.
		for _, v := range cand {
			conn[v] = inCandidate
		}
		if comp == nil {
			return nil
		}
		return &LocalResult{Vertices: comp, MinDegree: minInducedDegree(s, comp), Visited: len(cand)}
	}
	nextCheck := int(k) + 1
	for {
		if len(cand) >= nextCheck {
			// Each periodic k-core test is the expensive step of the loop, so
			// polling ctx here bounds the work done after a cancellation by
			// one peel plus one back-off window of cheap expansions.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if r := check(); r != nil {
				return r, nil
			}
			// Exponential back-off on checks to amortize peeling.
			nextCheck = len(cand) + len(cand)/2 + 1
		}
		if frontier.Len() == 0 || len(cand) >= budget {
			break
		}
		v, _ := frontier.Pop()
		conn[v] = inCandidate
		cand = append(cand, v)
		for _, u := range g.Neighbors(v) {
			push(u)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Final check before giving up.
	return check(), nil
}
