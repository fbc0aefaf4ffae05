// Package csearch implements the non-attributed community-search baselines
// that C-Explorer ships alongside ACQ (§2, §3): Global [Sozio & Gionis,
// SIGKDD'10] and Local [Cui et al., SIGMOD'14]. Both use minimum degree as
// the structure-cohesiveness measure, as the paper notes.
//
// Every search has a Context variant (GlobalContext, LocalContext) that
// polls ctx cooperatively and returns ctx.Err() when the request is
// canceled or past its deadline; the plain functions run uncancellable on
// context.Background for callers that do not serve requests.
package csearch

import (
	"context"

	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
)

// GlobalResult reports a Global search outcome.
type GlobalResult struct {
	Vertices  []int32 // the community, ascending
	MinDegree int32   // minimum internal degree achieved
	Visited   int     // vertices touched (for the E8 Global-vs-Local bench)
}

// Global answers the community-search problem of Sozio & Gionis on the
// whole graph. With k ≥ 0 given (the C-Explorer UI's "Structure: degree≥k"
// selector), it returns the connected k-core containing q — the maximal
// subgraph the greedy peel retains. It returns nil when core(q) < k.
//
// core may be nil (recomputed, touching the whole graph — Global's defining
// cost); pass a cached decomposition for repeated queries.
func Global(g *graph.Graph, core []int32, q int32, k int32) *GlobalResult {
	r, _ := GlobalContext(context.Background(), g, core, q, k)
	return r
}

// GlobalContext is Global with cooperative cancellation: the whole-graph
// core decomposition (Global's defining cost when core is nil) observes ctx
// and the search returns ctx.Err() promptly after cancellation. A nil
// result with a nil error means q has no community at this k.
func GlobalContext(ctx context.Context, g *graph.Graph, core []int32, q int32, k int32) (*GlobalResult, error) {
	if q < 0 || int(q) >= g.N() || k < 0 {
		return nil, nil
	}
	visited := 0
	if core == nil {
		var err error
		core, err = kcore.DecomposeContext(ctx, g)
		if err != nil {
			return nil, err
		}
		visited = g.N()
	}
	comp := kcore.ConnectedKCore(g, core, q, k)
	if comp == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if visited == 0 {
		visited = len(comp)
	}
	s := g.AcquireScratch()
	defer s.Release()
	return &GlobalResult{
		Vertices:  comp,
		MinDegree: minInducedDegree(s, comp),
		Visited:   visited,
	}, nil
}

// GlobalMax solves the original optimization form: maximize the minimum
// degree of a connected subgraph containing q. Greedily peeling minimum-
// degree vertices while protecting q is equivalent to returning the
// connected core(q)-core around q, which is what this does.
func GlobalMax(g *graph.Graph, core []int32, q int32) *GlobalResult {
	if q < 0 || int(q) >= g.N() {
		return nil
	}
	if core == nil {
		core = kcore.Decompose(g)
	}
	return Global(g, core, q, core[q])
}

// minInducedDegree returns the smallest degree inside the subgraph induced
// by comp (0 for an empty comp). It uses s's Seen set.
func minInducedDegree(s *graph.Scratch, comp []int32) int32 {
	g, in := s.Graph(), &s.Seen
	in.Set(g.N(), comp)
	minDeg := int32(len(comp))
	for _, v := range comp {
		d := int32(0)
		for _, u := range g.Neighbors(v) {
			if in.Has(u) {
				d++
			}
		}
		minDeg = min(minDeg, d)
	}
	return minDeg
}
