// Package dyntest is the randomized equivalence harness of the
// dynamic-graph subsystem: the executable proof that incremental index
// maintenance is indistinguishable from rebuilding from scratch.
//
// A scenario is a seeded random attributed graph plus a stream of random
// interleaved mutations (edge inserts, edge deletes, occasional vertex
// additions). The harness applies the stream through the real serving path
// — Dataset.Mutate, batch by batch — and after every batch asserts three
// layers of equivalence against from-scratch computation on the current
// graph:
//
//  1. core numbers: the incrementally maintained array equals a full
//     Batagelj–Zaveršnik re-peel, element for element;
//  2. CL-tree communities: the repaired tree passes the full structural
//     validator and answers every (vertex, k) community query identically
//     to a freshly built tree;
//  3. truss decomposition: the harness reads the truss after every batch,
//     so each batch after the first starts from a resident truss and its
//     successor carries one maintained op by op (ktruss.Maintainer); that
//     carried trussness must match the by-definition oracle (ktruss.Naive)
//     on the mutated graph, edge for edge;
//  4. ACQ answers: the query engine over the repaired tree returns the
//     same attributed communities as one over a rebuilt tree, for a panel
//     of query vertices at several k.
//
// When a scenario fails, the harness shrinks the op stream (ddmin-style
// chunk removal, re-running the scenario on each candidate) and reports the
// minimal failing sequence as copy-pasteable JSON, so a regression arrives
// with its own repro attached.
package dyntest

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"cexplorer/internal/api"
	"cexplorer/internal/cltree"
	"cexplorer/internal/core"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
	"cexplorer/internal/ktruss"
)

// Scenario is one generated workload.
type Scenario struct {
	Seed      int64
	N, M      int // base graph size
	Vocab     int
	Ops       []api.Mutation
	BatchSize int
}

// edgeKey packs an undirected edge for the generator's model.
type edgeKey struct{ u, v int32 }

func key(u, v int32) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// GenOps generates nOps random mutations that are valid when applied in
// order to g: ~half delete a live edge, ~half insert an absent one, and a
// small fraction append a fresh vertex (immediately wired in, so new
// vertices participate in the churn).
func GenOps(g *graph.Graph, nOps int, seed int64) []api.Mutation {
	rng := rand.New(rand.NewSource(seed))
	n := int32(g.N())
	live := make(map[edgeKey]int) // edge -> index in edges
	var edges []edgeKey
	g.Edges(func(u, v int32) bool {
		live[key(u, v)] = len(edges)
		edges = append(edges, key(u, v))
		return true
	})
	addEdge := func(k edgeKey) {
		live[k] = len(edges)
		edges = append(edges, k)
	}
	removeEdge := func(k edgeKey) {
		i := live[k]
		last := edges[len(edges)-1]
		edges[i] = last
		live[last] = i
		edges = edges[:len(edges)-1]
		delete(live, k)
	}

	ops := make([]api.Mutation, 0, nOps)
	for len(ops) < nOps {
		switch r := rng.Float64(); {
		case r < 0.02:
			// Fresh vertex with a couple of random keywords, wired to a
			// random existing vertex by the next iteration's inserts.
			ops = append(ops, api.Mutation{
				Op:       api.OpAddVertex,
				Keywords: []string{fmt.Sprintf("w%d", rng.Intn(8))},
			})
			n++
		case r < 0.50 && len(edges) > 0:
			k := edges[rng.Intn(len(edges))]
			removeEdge(k)
			ops = append(ops, api.Mutation{Op: api.OpRemoveEdge, U: k.u, V: k.v})
		default:
			u, v := int32(rng.Intn(int(n))), int32(rng.Intn(int(n)))
			if u == v {
				continue
			}
			k := key(u, v)
			if _, ok := live[k]; ok {
				continue
			}
			addEdge(k)
			ops = append(ops, api.Mutation{Op: api.OpAddEdge, U: k.u, V: k.v})
		}
	}
	return ops
}

// Sanitize filters ops down to the subsequence that stays valid when
// applied in order to g — the shrinker removes arbitrary chunks, which can
// orphan a later delete or duplicate a later insert, and those must become
// no-ops rather than abort the replay.
func Sanitize(g *graph.Graph, ops []api.Mutation) []api.Mutation {
	n := int32(g.N())
	live := make(map[edgeKey]bool)
	g.Edges(func(u, v int32) bool {
		live[key(u, v)] = true
		return true
	})
	out := make([]api.Mutation, 0, len(ops))
	for _, op := range ops {
		switch op.Op {
		case api.OpAddEdge:
			k := key(op.U, op.V)
			if op.U == op.V || op.U < 0 || op.V < 0 || op.U >= n || op.V >= n || live[k] {
				continue
			}
			live[k] = true
		case api.OpRemoveEdge:
			k := key(op.U, op.V)
			if !live[k] {
				continue
			}
			delete(live, k)
		case api.OpAddVertex:
			n++
		default:
			continue
		}
		out = append(out, op)
	}
	return out
}

// Run replays the scenario through Dataset.Mutate and checks equivalence
// after every batch. A non-nil error describes the first divergence.
func Run(sc Scenario) error {
	base := baseGraph(sc)
	ds := api.NewDataset("dyn", base)
	ds.CoreNumbers()
	ds.Tree()

	for off := 0; off < len(sc.Ops); off += sc.BatchSize {
		end := min(off+sc.BatchSize, len(sc.Ops))
		next, res, err := ds.Mutate(context.Background(), sc.Ops[off:end])
		if err != nil {
			return fmt.Errorf("batch at op %d: %w", off, err)
		}
		ds = next
		if err := CheckEquivalence(ds); err != nil {
			return fmt.Errorf("batch at op %d (version %d, repair=%s): %w", off, res.Version, res.TreeRepair, err)
		}
	}
	return nil
}

func baseGraph(sc Scenario) *graph.Graph {
	return gen.GNMAttributed(sc.N, sc.M, sc.Vocab, sc.Seed)
}

// CheckEquivalence asserts the dataset's incrementally maintained indexes
// are indistinguishable from a from-scratch rebuild of its current graph.
func CheckEquivalence(ds *api.Dataset) error {
	g := ds.Graph

	// Layer 1: core numbers.
	gotCore := ds.CoreNumbers()
	wantCore := kcore.Decompose(g)
	if !slices.Equal(gotCore, wantCore) {
		for v := range gotCore {
			if gotCore[v] != wantCore[v] {
				return fmt.Errorf("core[%d] = %d, rebuild says %d", v, gotCore[v], wantCore[v])
			}
		}
	}

	// Layer 2: CL-tree structure and communities.
	tree := ds.Tree()
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("maintained tree fails validation: %w", err)
	}
	fresh := cltree.Build(g)
	for v := int32(0); int(v) < g.N(); v++ {
		for k := int32(1); k <= wantCore[v]; k++ {
			got := tree.SubtreeVertices(tree.Anchor(v, k), nil)
			want := fresh.SubtreeVertices(fresh.Anchor(v, k), nil)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				return fmt.Errorf("k-cover of v=%d k=%d: maintained %v, rebuild %v", v, k, got, want)
			}
		}
	}

	// Layer 3: truss decomposition. The previous check left the base's
	// truss resident, so Mutate carried it here op by op; only the first
	// batch's successor, of a base never read, builds it lazily. The
	// by-definition oracle pins both down.
	truss := ds.Truss()
	wantTruss := ktruss.Naive(g)
	gotEdges, gotTruss := truss.Parts()
	if len(gotTruss) != len(wantTruss) {
		return fmt.Errorf("truss covers %d edges, graph has %d", len(gotTruss), len(wantTruss))
	}
	for id := range gotTruss {
		if gotTruss[id] != wantTruss[id] {
			e := gotEdges[id]
			return fmt.Errorf("truss({%d,%d}) = %d, naive says %d", e[0], e[1], gotTruss[id], wantTruss[id])
		}
	}

	// Layer 4: ACQ answers on a vertex panel.
	engGot := core.NewEngine(tree)
	engWant := core.NewEngine(fresh)
	stride := g.N()/12 + 1
	for q := int32(0); int(q) < g.N(); q += int32(stride) {
		for _, k := range []int32{1, 2, wantCore[q]} {
			if k < 1 {
				continue
			}
			got, err := engGot.Search(q, k, nil, core.Dec)
			if err != nil {
				return fmt.Errorf("acq on maintained tree (q=%d k=%d): %w", q, k, err)
			}
			want, err := engWant.Search(q, k, nil, core.Dec)
			if err != nil {
				return fmt.Errorf("acq on rebuilt tree (q=%d k=%d): %w", q, k, err)
			}
			if err := sameAnswers(got, want); err != nil {
				return fmt.Errorf("acq answers diverge at q=%d k=%d: %w", q, k, err)
			}
		}
	}
	return nil
}

// sameAnswers compares two ACQ answer lists up to ordering.
func sameAnswers(got, want []core.Community) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d communities vs %d", len(got), len(want))
	}
	canon := func(cs []core.Community) []string {
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

// Shrink reduces a failing op stream to a (locally) minimal one that still
// fails, by repeatedly deleting chunks of halving size and keeping any
// deletion that preserves the failure. The sanitized candidate is what gets
// replayed, so removals never produce invalid streams. trials bounds the
// total number of replays.
func Shrink(sc Scenario, trials int) Scenario {
	base := baseGraph(sc)
	sc.Ops = shrinkWith(sc.Ops, trials, func(ops []api.Mutation) bool {
		cand := sc
		cand.Ops = Sanitize(base, ops)
		if len(cand.Ops) == 0 {
			return false
		}
		return Run(cand) != nil
	})
	sc.Ops = Sanitize(base, sc.Ops)
	return sc
}

// shrinkWith is the predicate-generic core of Shrink (also exercised
// directly by the shrinker's own tests).
func shrinkWith(in []api.Mutation, trials int, fails func([]api.Mutation) bool) []api.Mutation {
	return ShrinkSlice(in, trials, fails)
}

// ShrinkSlice is the element-generic ddmin core: it reduces a failing slice
// to a (locally) minimal one that still fails by deleting chunks of halving
// size and keeping any deletion that preserves the failure. trials bounds
// the total number of predicate calls. Harnesses over other element types
// (the chaos suite's fault schedules, for one) reuse it instead of
// re-deriving the chunk walk.
func ShrinkSlice[T any](in []T, trials int, fails func([]T) bool) []T {
	ops := slices.Clone(in)
	for chunk := len(ops) / 2; chunk >= 1 && trials > 0; {
		removedAny := false
		for start := 0; start+chunk <= len(ops) && trials > 0; {
			cand := slices.Concat(ops[:start], ops[start+chunk:])
			trials--
			if fails(cand) {
				ops = cand
				removedAny = true
			} else {
				start += chunk
			}
		}
		if chunk == 1 && !removedAny {
			break
		}
		if chunk > 1 {
			chunk /= 2
		} else if !removedAny {
			break
		}
	}
	return ops
}

// Repro renders the scenario as JSON for the failure report.
func Repro(sc Scenario) string {
	type repro struct {
		Seed      int64          `json:"seed"`
		N         int            `json:"n"`
		M         int            `json:"m"`
		Vocab     int            `json:"vocab"`
		BatchSize int            `json:"batchSize"`
		Ops       []api.Mutation `json:"ops"`
	}
	b, err := json.Marshal(repro{sc.Seed, sc.N, sc.M, sc.Vocab, sc.BatchSize, sc.Ops})
	if err != nil {
		return fmt.Sprintf("<unmarshalable scenario: %v>", err)
	}
	return string(b)
}
