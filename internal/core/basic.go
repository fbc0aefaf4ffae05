package core

// searchBasic is the index-free baseline of §3.2: "first to consider all
// the possible keyword combinations of S, and then return the subgraphs
// which satisfy the minimum degree constraint and have the most shared
// keywords. This method requires the enumeration of all the subsets of S."
//
// It still receives the query context (built from the CL-tree) so that the
// candidate universe is comparable across algorithms; its defining cost is
// the exhaustive top-down enumeration without anti-monotone pruning or
// keyword pre-filtering. Complexity is exponential in |S|.
func (e *Engine) searchBasic(qc *queryContext, S []int32) ([]Community, error) {
	var answers []Community
	for size := len(S); size >= 1 && len(answers) == 0; size-- {
		err := forEachSubset(S, size, func(T []int32) error {
			e.stats.CandidateSets++
			comp, err := qc.verify(T)
			if err != nil {
				return err
			}
			if comp != nil {
				answers = append(answers, qc.finish(comp, T, S))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return qc.dedupAnswers(answers), nil
}

// forEachSubset enumerates all size-r subsets of S in lexicographic order,
// invoking fn with a reused buffer (fn must not retain it). A non-nil error
// from fn stops the enumeration and is returned — the escape hatch that lets
// a canceled query abandon the exponential walk mid-way.
func forEachSubset(S []int32, r int, fn func(T []int32) error) error {
	if r > len(S) || r <= 0 {
		return nil
	}
	idx := make([]int, r)
	for i := range idx {
		idx[i] = i
	}
	buf := make([]int32, r)
	for {
		for i, x := range idx {
			buf[i] = S[x]
		}
		if err := fn(buf); err != nil {
			return err
		}
		// Advance.
		i := r - 1
		for i >= 0 && idx[i] == len(S)-r+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < r; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// dedupAnswers drops answers with duplicate keyword sets (two verified sets
// can expand to the same maximal L).
func (qc *queryContext) dedupAnswers(answers []Community) []Community {
	if len(answers) < 2 {
		return answers
	}
	seen := make(map[int32]bool, len(answers))
	out := answers[:0]
	for _, a := range answers {
		k := qc.e.sets.id(a.SharedKeywords)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, a)
	}
	return out
}
