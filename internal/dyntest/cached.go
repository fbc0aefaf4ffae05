package dyntest

// The serve-time cache's equivalence layer: RunCached replays a scenario's
// mutation stream through Explorer.Mutate into two Explorers over identical
// graph lineages, issues the query panel through one of them, which serves
// through the version-keyed result cache, and requires every cached answer
// to equal the oracle: the ACQ algorithm run directly on the other's
// dataset at the same version. Each query runs twice per round, so the comparison covers both
// the miss path (leader computes, result cached) and the hit path (the
// stored value is served verbatim); mutating between rounds then proves
// version keying makes every stale entry unreachable: a cache serving any
// pre-mutation answer after the version bump diverges from the oracle and
// fails the run.

import (
	"context"
	"fmt"
	"slices"

	"cexplorer/internal/api"
	"cexplorer/internal/core"
)

// CachedQueries is how many (vertex, k, keywords) probes each round of
// RunCached issues; the panel strides the vertex range so coverage follows
// the graph as it grows.
const CachedQueries = 8

// RunCached replays the scenario and checks cached-vs-oracle equivalence
// after every batch. A non-nil error describes the first divergence.
func RunCached(sc Scenario) error {
	ctx := context.Background()
	cached := api.NewExplorer()
	if _, err := cached.AddGraph("dyn", baseGraph(sc)); err != nil {
		return err
	}
	cached.SetCache(api.NewServeCache(256, 4<<20, 0))
	oracle := api.NewExplorer()
	if _, err := oracle.AddGraph("dyn", baseGraph(sc)); err != nil {
		return err
	}

	acq := &api.ACQAlgorithm{Variant: core.Dec}
	check := func(round string) error {
		ds, _ := cached.Dataset("dyn")
		ods, _ := oracle.Dataset("dyn")
		n := int32(ds.Graph.N())
		stride := n/CachedQueries + 1
		for q := int32(0); q < n; q += stride {
			for _, k := range []int{1, 2, 3} {
				query := api.Query{Vertices: []int32{q}, K: k}
				if q%2 == 0 {
					query.Keywords = []string{"w0", "w1"}
				}
				// Twice: first resolves a miss (or an earlier round's hit),
				// second is a guaranteed hit at this version.
				for pass := 0; pass < 2; pass++ {
					got, gotErr := cached.Search(ctx, "dyn", "ACQ", query)
					want, wantErr := acq.Search(ctx, ods, query)
					if (gotErr == nil) != (wantErr == nil) {
						return fmt.Errorf("%s q=%d k=%d pass %d: cached err %v, oracle err %v",
							round, q, k, pass, gotErr, wantErr)
					}
					if gotErr != nil {
						continue
					}
					if err := sameAPIAnswers(got, want); err != nil {
						return fmt.Errorf("%s q=%d k=%d pass %d (version %d): %w",
							round, q, k, pass, ds.Version, err)
					}
				}
			}
		}
		return nil
	}

	if err := check("pre-mutation"); err != nil {
		return err
	}
	for off := 0; off < len(sc.Ops); off += sc.BatchSize {
		end := min(off+sc.BatchSize, len(sc.Ops))
		batch := sc.Ops[off:end]
		if _, err := cached.Mutate(ctx, "dyn", batch); err != nil {
			return fmt.Errorf("cached mutate at op %d: %w", off, err)
		}
		if _, err := oracle.Mutate(ctx, "dyn", batch); err != nil {
			return fmt.Errorf("oracle mutate at op %d: %w", off, err)
		}
		if err := check(fmt.Sprintf("after op %d", end)); err != nil {
			return err
		}
	}

	// The run must have exercised both cache paths, or the equivalence it
	// proved is vacuous.
	st := cached.Cache().Stats()
	if st.Hits == 0 || st.Computations == 0 {
		return fmt.Errorf("cache paths not exercised: %+v", st)
	}
	return nil
}

// sameAPIAnswers compares two api-level community lists up to ordering,
// mirroring sameAnswers for the core engine's type.
func sameAPIAnswers(got, want []api.Community) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d communities vs %d", len(got), len(want))
	}
	canon := func(cs []api.Community) []string {
		out := make([]string, len(cs))
		for i, c := range cs {
			vs := slices.Clone(c.Vertices)
			slices.Sort(vs)
			out[i] = fmt.Sprint(c.SharedKeywords, vs)
		}
		slices.Sort(out)
		return out
	}
	g, w := canon(got), canon(want)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("community %d: %s vs %s", i, g[i], w[i])
		}
	}
	return nil
}
