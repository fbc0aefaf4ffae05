package core

import "slices"

// searchDec is the decremental algorithm — the system default (§3.2: "the
// decremental algorithm ... from examining larger candidate sets to smaller
// ones", "Since Dec is generally faster than Inc-S and Inc-T, we choose Dec
// for the system").
//
// Dec first verifies every singleton keyword; by anti-monotonicity a
// keyword that alone admits no AC can appear in no admissible set, so the
// candidate alphabet shrinks to the admissible keywords S*. It then walks
// the subset lattice of S* top-down, level by level: verify every candidate
// of the current size; on success record an answer and stop expanding; on
// failure enqueue the candidate's (size-1)-subsets for the next level. The
// first level with an admissible set holds exactly the maximal-L answers,
// because the top-down walk generates every subset of S* of each size while
// no larger set has succeeded.
func (e *Engine) searchDec(qc *queryContext, S []int32) ([]Community, error) {
	admissible, comms, err := qc.filterAdmissibleKeywords(S)
	if err != nil {
		return nil, err
	}
	e.stats.CandidateSets += len(S)
	if len(admissible) == 0 {
		return nil, nil
	}
	if len(admissible) == 1 {
		return []Community{qc.finish(comms[admissible[0]], admissible, S)}, nil
	}

	current := [][]int32{admissible} // start from the full admissible set
	seen := map[int32]bool{qc.e.sets.id(admissible): true}

	for len(current) > 0 {
		size := len(current[0])
		var answers []Community
		var next [][]int32
		for _, T := range current {
			e.stats.CandidateSets++
			var comp []int32
			if size == 1 {
				comp = comms[T[0]] // already verified by the filter
			} else {
				comp, err = qc.verify(T)
				if err != nil {
					return nil, err
				}
			}
			if comp != nil {
				answers = append(answers, qc.finish(comp, T, S))
				continue
			}
			// Enqueue all (size-1)-subsets.
			for drop := 0; drop < size; drop++ {
				sub := make([]int32, 0, size-1)
				sub = append(sub, T[:drop]...)
				sub = append(sub, T[drop+1:]...)
				key := qc.e.sets.id(sub)
				if !seen[key] {
					seen[key] = true
					next = append(next, sub)
				}
			}
		}
		if len(answers) > 0 {
			return qc.dedupAnswers(answers), nil
		}
		// Deterministic processing order for the next level.
		slices.SortFunc(next, slices.Compare)
		current = next
	}
	return nil, nil
}
