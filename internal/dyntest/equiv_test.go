package dyntest

import (
	"fmt"
	"testing"

	"cexplorer/internal/api"
)

// TestDynamicEquivalence is the acceptance gate of the dynamic-graph
// subsystem: for many random seeds, a 1000+-op stream of interleaved
// inserts/deletes/vertex-adds is applied in batches through the real
// Dataset.Mutate path, and after every batch the incrementally maintained
// core numbers, CL-tree communities, and ACQ answers must be identical to
// a from-scratch rebuild. Failures shrink to a minimal repro before
// reporting.
func TestDynamicEquivalence(t *testing.T) {
	seeds := 24
	nOps := 1200
	if testing.Short() {
		seeds, nOps = 6, 300
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Scenario{
				Seed:      int64(seed),
				N:         60 + 10*(seed%7),
				M:         150 + 20*(seed%5),
				Vocab:     10,
				BatchSize: 25 + 10*(seed%4),
				Ops:       nil,
			}
			seedOps := nOps
			switch seed % 4 {
			case 0:
				// Single-op batches: the serving shape of unbatched writes.
				// The per-batch check runs per op here, so the stream is
				// shorter.
				sc.BatchSize = 1
				seedOps = nOps / 5
			case 2:
				// Batches of 2-8 ops, whose few level moves the tree repair
				// edits in place, checked batch by batch.
				sc.BatchSize = 2 + seed%7
				seedOps = nOps / 2
			}
			sc.Ops = GenOps(baseGraph(sc), seedOps, sc.Seed*7919)
			if err := Run(sc); err != nil {
				minimal := Shrink(sc, 400)
				t.Fatalf("equivalence violated: %v\nminimal repro (%d ops):\n%s",
					err, len(minimal.Ops), Repro(minimal))
			}
		})
	}
}

// TestShrinkProducesMinimalRepro plants a deliberate divergence detector —
// a scenario known to fail is simulated by checking the shrinker machinery
// itself: sanitization keeps streams valid, and shrinking a passing
// scenario is a no-op (Run must hold on every sanitized subsequence the
// shrinker would try).
func TestShrinkSanitizeKeepsStreamsValid(t *testing.T) {
	sc := Scenario{Seed: 3, N: 40, M: 90, Vocab: 8, BatchSize: 20}
	base := baseGraph(sc)
	ops := GenOps(base, 200, 42)

	// Remove arbitrary chunks and verify every sanitized subsequence still
	// applies cleanly (the property Shrink relies on).
	for start := 0; start < len(ops); start += 37 {
		end := min(start+23, len(ops))
		cand := append(append([]api.Mutation{}, ops[:start]...), ops[end:]...)
		sub := Sanitize(base, cand)
		run := sc
		run.Ops = sub
		if err := Run(run); err != nil {
			t.Fatalf("sanitized subsequence [cut %d:%d) failed to apply: %v", start, end, err)
		}
	}
}
