package core

import (
	"context"
	"fmt"

	"cexplorer/internal/ds"
)

// SearchMulti answers the multi-query-vertex variant of §3.2: given a set Q
// of query vertices, return connected subgraphs containing all of Q with
// minimum degree ≥ k maximizing the shared keyword set L ⊆ S. A nil S
// defaults to the intersection of the query vertices' keyword sets (the
// natural generalization of S ⊆ W(q)).
//
// The algorithm is Dec over a universe restricted to the common k-core
// component of all query vertices; a query whose vertices sit in different
// k-core components has no answer.
func (e *Engine) SearchMulti(qs []int32, k int32, S []int32) ([]Community, error) {
	return e.SearchMultiContext(context.Background(), qs, k, S)
}

// SearchMultiContext is SearchMulti with cooperative cancellation, observing
// ctx exactly as SearchContext does.
func (e *Engine) SearchMultiContext(ctx context.Context, qs []int32, k int32, S []int32) ([]Community, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("acq: empty query vertex set")
	}
	for _, q := range qs {
		if q < 0 || int(q) >= e.g.N() {
			return nil, fmt.Errorf("acq: query vertex %d out of range", q)
		}
	}
	if k < 0 {
		return nil, fmt.Errorf("acq: negative k")
	}
	e.stats = Stats{}
	e.sets.reset()
	qs = sortedCopy(qs)
	qs = dedupSorted(qs)
	if len(qs) == 1 {
		return e.SearchContext(ctx, qs[0], k, S, Dec)
	}

	// All query vertices must share one k-core component: same anchor node.
	anchor := e.tree.Anchor(qs[0], k)
	if anchor == nil {
		return nil, nil
	}
	for _, q := range qs[1:] {
		if e.tree.Anchor(q, k) != anchor {
			return nil, nil
		}
	}

	// Default S: common keywords of all query vertices.
	if S == nil {
		S = sortedCopy(e.g.Keywords(qs[0]))
	} else {
		S = ds.IntersectSorted(sortedCopy(S), e.g.Keywords(qs[0]))
	}
	for _, q := range qs[1:] {
		S = ds.IntersectSorted(S, e.g.Keywords(q))
	}

	qc := newQueryContext(ctx, e, qs, k)
	if qc == nil {
		return nil, nil
	}
	defer qc.s.Release()
	e.stats.UniverseSize = len(qc.universe)

	answers, err := e.searchDec(qc, S)
	if err != nil {
		return nil, err
	}
	if len(answers) == 0 {
		return qc.keywordless()
	}
	return sortAnswers(answers), nil
}

func dedupSorted(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
