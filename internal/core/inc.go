package core

// The incremental algorithms verify candidate keyword sets from small to
// large (paper §3.2: "incremental algorithms (from examining smaller
// candidate sets to larger ones)"). Both walk the admissible-set lattice
// Apriori-style — a size-(ℓ+1) candidate is generated only from two
// admissible size-ℓ sets sharing a prefix, exploiting anti-monotonicity —
// and differ in what they retain:
//
//   - Inc-S stores only the admissible keyword sets themselves (minimum
//     space) and re-verifies the winners once at the end.
//   - Inc-T additionally caches each admissible set's community and verifies
//     a child set by re-peeling the parent's community restricted to the new
//     keyword — strictly less work per verification, more memory.

type levelEntry struct {
	set  []int32
	comm []int32 // Inc-T only: the AC for set
}

// searchIncS is the space-efficient incremental algorithm.
func (e *Engine) searchIncS(qc *queryContext, S []int32) ([]Community, error) {
	admissible, _, err := qc.filterAdmissibleKeywords(S)
	if err != nil {
		return nil, err
	}
	e.stats.CandidateSets += len(S)
	if len(admissible) == 0 {
		return nil, nil
	}
	level := make([]levelEntry, 0, len(admissible))
	for _, w := range admissible {
		level = append(level, levelEntry{set: []int32{w}})
	}
	for {
		next, err := joinAndVerify(qc, level, false)
		if err != nil {
			return nil, err
		}
		e.stats.CandidateSets += len(next) // generated candidates that passed
		if len(next) == 0 {
			break
		}
		level = next
	}
	// Re-verify the top level to materialize the communities (Inc-S did not
	// keep them).
	answers := make([]Community, 0, len(level))
	for _, ent := range level {
		comp, err := qc.verify(ent.set)
		if err != nil {
			return nil, err
		}
		if comp != nil {
			answers = append(answers, qc.finish(comp, ent.set, S))
		}
	}
	return qc.dedupAnswers(answers), nil
}

// searchIncT is the time-efficient incremental algorithm.
func (e *Engine) searchIncT(qc *queryContext, S []int32) ([]Community, error) {
	admissible, comms, err := qc.filterAdmissibleKeywords(S)
	if err != nil {
		return nil, err
	}
	e.stats.CandidateSets += len(S)
	if len(admissible) == 0 {
		return nil, nil
	}
	level := make([]levelEntry, 0, len(admissible))
	for _, w := range admissible {
		level = append(level, levelEntry{set: []int32{w}, comm: comms[w]})
	}
	for {
		next, err := joinAndVerify(qc, level, true)
		if err != nil {
			return nil, err
		}
		e.stats.CandidateSets += len(next)
		if len(next) == 0 {
			break
		}
		level = next
	}
	answers := make([]Community, 0, len(level))
	for _, ent := range level {
		answers = append(answers, qc.finish(ent.comm, ent.set, S))
	}
	return qc.dedupAnswers(answers), nil
}

// joinAndVerify produces the next lattice level: Apriori join of the
// current admissible level, subset pruning, then verification — refined
// from the parent community when refine is true (Inc-T), from scratch
// otherwise (Inc-S).
func joinAndVerify(qc *queryContext, level []levelEntry, refine bool) ([]levelEntry, error) {
	if len(level) < 2 {
		return nil, nil
	}
	sets := &qc.e.sets
	admissibleKeys := make(map[int32]int, len(level))
	for i, ent := range level {
		admissibleKeys[sets.id(ent.set)] = i
	}
	var next []levelEntry
	seen := make(map[int32]bool)
	r := len(level[0].set)
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i].set, level[j].set
			if !samePrefix(a, b, r-1) {
				continue
			}
			cand := make([]int32, r+1)
			copy(cand, a)
			last := b[r-1]
			if last == a[r-1] {
				continue
			}
			if last < a[r-1] {
				cand[r-1], cand[r] = last, a[r-1]
			} else {
				cand[r] = last
			}
			key := sets.id(cand)
			if seen[key] {
				continue
			}
			seen[key] = true
			// Apriori prune: every r-subset must be admissible.
			if !allSubsetsAdmissible(cand, admissibleKeys, sets) {
				continue
			}
			var comp []int32
			var err error
			if refine {
				// cand = a ∪ {b[r-1]} by construction, so restricting a's
				// community to the vertices carrying b[r-1] and re-peeling
				// yields exactly cand's AC (see refineVerify).
				comp, err = qc.refineVerify(level[i].comm, last)
			} else {
				comp, err = qc.verify(cand)
			}
			if err != nil {
				return nil, err
			}
			if comp != nil {
				next = append(next, levelEntry{set: cand, comm: comp})
			}
		}
	}
	return next, nil
}

func samePrefix(a, b []int32, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allSubsetsAdmissible(cand []int32, admissible map[int32]int, sets *setIDs) bool {
	buf := make([]int32, len(cand)-1)
	for drop := range cand {
		copy(buf, cand[:drop])
		copy(buf[drop:], cand[drop+1:])
		if _, ok := admissible[sets.id(buf)]; !ok {
			return false
		}
	}
	return true
}
