// Package core implements the ACQ query engine — the primary contribution
// of the paper (Problem 1, §3.2): given an attributed graph G, a query
// vertex q, a minimum degree k, and a keyword set S ⊆ W(q), return the
// connected subgraphs containing q whose vertices all have degree ≥ k inside
// the subgraph and share a maximum-size keyword subset L ⊆ S.
//
// Four query algorithms are provided, as in the paper:
//
//   - Basic: subset enumeration without the index ("impractical,
//     especially when there are many keywords in S").
//   - Inc-S: incremental (small → large candidate keyword sets),
//     space-efficient — stores only the admissible keyword sets.
//   - Inc-T: incremental, time-efficient — caches each admissible set's
//     partial community and refines it for the set's supersets.
//   - Dec: decremental (large → small), the system default ("Since Dec is
//     generally faster than Inc-S and Inc-T, we choose Dec for the system").
//
// All three indexed algorithms restrict work to the CL-tree anchor subtree
// of (q,k) — the connected k-core component containing q — and exploit the
// anti-monotonicity of admissibility: if T admits an AC then so does every
// subset of T.
package core

import (
	"context"
	"fmt"
	"slices"

	"cexplorer/internal/cltree"
	"cexplorer/internal/ds"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
)

// Algorithm selects an ACQ query algorithm.
type Algorithm int

// The query algorithms of the paper, §3.2.
const (
	Dec Algorithm = iota // decremental; system default
	IncS
	IncT
	Basic // no index; exponential
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Dec:
		return "Dec"
	case IncS:
		return "Inc-S"
	case IncT:
		return "Inc-T"
	case Basic:
		return "Basic"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Community is one attributed community (AC): a connected subgraph
// containing the query vertex/vertices with minimum internal degree ≥ k
// whose members all carry SharedKeywords.
type Community struct {
	Vertices       []int32 // ascending
	SharedKeywords []int32 // L(Gq, S), ascending interned keyword IDs
}

// Stats reports work done by the last query, for the E5 experiment and the
// Analysis panel.
type Stats struct {
	Verifications int // candidate keyword sets verified by peeling
	CandidateSets int // candidate keyword sets generated
	UniverseSize  int // vertices in the CL-tree anchor subtree
}

// Engine executes ACQ queries against one CL-tree index. An Engine is not
// safe for concurrent use (it carries per-query scratch); create one per
// goroutine — they can share the same *cltree.Tree — or check warm engines
// out of a pool (api.Dataset does this for query serving).
//
// Under streaming mutations an Engine doubles as a version pin: it holds
// one tree and that tree's graph, both immutable, so every search it runs
// observes a single consistent dataset version no matter how many
// successor versions are published meanwhile. Engine pools are therefore
// per-version (each api.Dataset owns its own), and exploration sessions
// keep their pinned engine — and with it their version — for their whole
// lifetime.
type Engine struct {
	tree  *cltree.Tree
	g     *graph.Graph
	stats Stats

	// Per-query scratch, reused across Search calls. The O(n) working
	// memory of a search is not here: each search borrows a graph.Scratch
	// from the graph's pool for its own duration, so an idle engine (a
	// pooled one, or one pinned by an exploration session) holds none.
	sets    setIDs  // interned keyword-set IDs
	candBuf []int32 // candidate-intersection workspace
}

// NewEngine returns an engine over the given index.
func NewEngine(tree *cltree.Tree) *Engine {
	return &Engine{tree: tree, g: tree.Graph()}
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Tree returns the underlying CL-tree index.
func (e *Engine) Tree() *cltree.Tree { return e.tree }

// LastStats returns work counters from the most recent Search call.
func (e *Engine) LastStats() Stats { return e.stats }

// Search runs an ACQ query. S lists the query keywords (interned IDs); a
// nil S means "all of W(q)" as the C-Explorer UI defaults to. The result
// holds every community of maximum shared-keyword size; when no keyword
// admits a community but the connected k-core containing q exists, that
// k-core is returned with an empty SharedKeywords (the keywordless answer).
// A nil result means q has no community at this k.
func (e *Engine) Search(q int32, k int32, S []int32, algo Algorithm) ([]Community, error) {
	return e.SearchContext(context.Background(), q, k, S, algo)
}

// SearchContext is Search with cooperative cancellation: every candidate
// verification — the unit of work all four query algorithms are built from —
// polls ctx first, so a canceled or deadline-expired request stops after at
// most one in-flight peel and returns ctx.Err() instead of burning a worker
// to the end of the lattice walk.
func (e *Engine) SearchContext(ctx context.Context, q int32, k int32, S []int32, algo Algorithm) ([]Community, error) {
	if q < 0 || int(q) >= e.g.N() {
		return nil, fmt.Errorf("acq: query vertex %d out of range", q)
	}
	if k < 0 {
		return nil, fmt.Errorf("acq: negative k")
	}
	e.stats = Stats{}
	e.sets.reset()

	// Problem 1 requires S ⊆ W(q); intersect to enforce.
	if S == nil {
		S = e.g.Keywords(q)
	} else {
		S = ds.IntersectSorted(sortedCopy(S), e.g.Keywords(q))
	}

	qc := newQueryContext(ctx, e, []int32{q}, k)
	if qc == nil {
		return nil, nil // core(q) < k: no community at all
	}
	defer qc.s.Release()
	e.stats.UniverseSize = len(qc.universe)

	var answers []Community
	var err error
	switch algo {
	case Basic:
		answers, err = e.searchBasic(qc, S)
	case IncS:
		answers, err = e.searchIncS(qc, S)
	case IncT:
		answers, err = e.searchIncT(qc, S)
	case Dec:
		answers, err = e.searchDec(qc, S)
	default:
		return nil, fmt.Errorf("acq: unknown algorithm %v", algo)
	}
	if err != nil {
		return nil, err
	}

	if len(answers) == 0 {
		return qc.keywordless()
	}
	return sortAnswers(answers), nil
}

// queryContext carries the per-query candidate universe: the CL-tree anchor
// subtree for (q,k), lazily materialized per-keyword vertex lists, and the
// dense scratch the query's peels run on.
type queryContext struct {
	ctx      context.Context
	e        *Engine
	qs       []int32 // the query vertices: all must be in the AC
	k        int32
	universe []int32           // ascending; shared with the index, read-only
	kwLists  map[int32][]int32 // keyword -> universe vertices carrying it, in index order
	anchor   *cltree.Node
	s        *graph.Scratch
	peeler   kcore.Peeler
}

// newQueryContext locates the anchor of (qs[0],k) — the caller has checked
// that it is every query vertex's — and borrows a scratch from the graph's
// pool, which the caller releases. It returns nil when core(qs[0]) < k.
func newQueryContext(ctx context.Context, e *Engine, qs []int32, k int32) *queryContext {
	anchor := e.tree.Anchor(qs[0], k)
	if anchor == nil {
		return nil
	}
	qc := &queryContext{
		ctx:      ctx,
		e:        e,
		qs:       qs,
		k:        k,
		universe: e.tree.SubtreeAscending(anchor),
		kwLists:  make(map[int32][]int32),
		anchor:   anchor,
		s:        e.g.AcquireScratch(),
	}
	qc.peeler = kcore.NewPeeler(qc.s)
	return qc
}

// keywordless is the answer when no keyword admits a community: the
// connected k-core containing the query vertices, which is the universe
// itself — the CL-tree spells it out without a peel.
func (qc *queryContext) keywordless() ([]Community, error) {
	if err := qc.ctx.Err(); err != nil {
		return nil, err
	}
	comp := qc.universe
	if qc.k == 0 {
		// The root's subtree is the whole graph, connected or not.
		comp = qc.e.tree.ConnectedKCore(qc.qs[0], 0)
		for _, q := range qc.qs[1:] {
			if !ds.ContainsSorted(comp, q) {
				return nil, nil
			}
		}
	}
	return []Community{{Vertices: comp}}, nil
}

// keywordVertices returns the universe vertices carrying w, gathered from
// the CL-tree inverted lists on first use (ascending within each tree node,
// not across nodes — candidates are intersected through the scratch, which
// needs no order).
func (qc *queryContext) keywordVertices(w int32) []int32 {
	if lst, ok := qc.kwLists[w]; ok {
		return lst
	}
	lst := qc.e.tree.SubtreeKeywordVertices(qc.anchor, w, nil)
	qc.kwLists[w] = lst
	return lst
}

// restrict returns the vertices of list that are also in set, in list
// order. The result lives in the engine's candidate buffer, which set may
// itself alias: set is read in full before the first write.
func (qc *queryContext) restrict(set, list []int32) []int32 {
	in := &qc.s.Aux
	in.Set(qc.e.g.N(), set)
	buf := qc.e.candBuf[:0]
	for _, v := range list {
		if in.Has(v) {
			buf = append(buf, v)
		}
	}
	qc.e.candBuf = buf
	return buf
}

// candidates returns the vertex list {v ∈ universe : T ⊆ W(v)}, T not
// empty, in no particular order. The result may alias the engine's candidate buffer: it
// is valid only until the next candidates/refineVerify call (verification
// peels it immediately, so nothing downstream retains it).
func (qc *queryContext) candidates(T []int32) []int32 {
	cur := qc.keywordVertices(T[0])
	for _, w := range T[1:] {
		if len(cur) == 0 {
			break
		}
		cur = qc.restrict(cur, qc.keywordVertices(w))
	}
	return cur
}

// supported reports whether every query vertex has at least k neighbors
// among T's candidates — a neighbor of a universe vertex is itself in the
// universe exactly when its core number reaches k. A query vertex short of
// k such neighbors is evicted by the first round of any peel, so T admits
// no AC and the candidates need not even be gathered.
func (qc *queryContext) supported(T []int32) bool {
	g, core := qc.e.g, qc.e.tree.CoreNumbers()
	for _, q := range qc.qs {
		need := qc.k
		for _, u := range g.Neighbors(q) {
			if need == 0 {
				break
			}
			if core[u] >= qc.k && ds.ContainsAllSorted(g.Keywords(u), T) {
				need--
			}
		}
		if need > 0 {
			return false
		}
	}
	return true
}

// peelContaining runs the k-core peel over cand and returns, ascending, the
// component holding every query vertex (nil if any is missing, evicted or
// separated).
func (qc *queryContext) peelContaining(cand []int32) []int32 {
	if len(cand) < int(qc.k)+1 {
		return nil
	}
	return qc.peeler.ConnectedKCoreContainingAll(cand, qc.k, qc.qs)
}

// verify checks whether keyword set T admits an AC: it computes the k-core
// of the subgraph induced by T's candidates and returns the connected
// component containing the query vertices (nil if none), ascending and
// freshly allocated. It polls the query context first — every candidate
// keyword set funnels through here (or refineVerify), so this is the
// cancellation point of all four query algorithms.
func (qc *queryContext) verify(T []int32) ([]int32, error) {
	if err := qc.ctx.Err(); err != nil {
		return nil, err
	}
	qc.e.stats.Verifications++
	if !qc.supported(T) {
		return nil, nil
	}
	return qc.peelContaining(qc.candidates(T)), nil
}

// refineVerify re-peels an already-known parent community restricted to the
// vertices carrying one extra keyword — the Inc-T sharing step. parent must
// be the AC for some T' with the refined set being T' ∪ {w}.
func (qc *queryContext) refineVerify(parent []int32, w int32) ([]int32, error) {
	if err := qc.ctx.Err(); err != nil {
		return nil, err
	}
	qc.e.stats.Verifications++
	return qc.peelContaining(qc.restrict(parent, qc.keywordVertices(w))), nil
}

// finish converts the community verified for keyword set T into a
// Community, computing the exact shared keyword set L(Gq,S) for reporting:
// the intersection of S with every member's keywords. Every member carries
// T, so the running intersection can stop as soon as it has shrunk to T's
// size. vertices must be ascending and is adopted, not copied.
func (qc *queryContext) finish(vertices, T, S []int32) Community {
	g := qc.e.g
	shared := ds.IntersectSorted(g.Keywords(vertices[0]), S)
	for _, v := range vertices[1:] {
		if len(shared) == len(T) {
			break
		}
		shared = ds.IntersectSortedInto(shared, shared, g.Keywords(v))
	}
	return Community{Vertices: vertices, SharedKeywords: shared}
}

// filterAdmissibleKeywords verifies every singleton {w}, w ∈ S, and returns
// the admissible keywords with their communities (ascending, as verify
// produces them). Anti-monotonicity makes this a complete filter: a keyword
// whose singleton fails appears in no admissible set.
func (qc *queryContext) filterAdmissibleKeywords(S []int32) ([]int32, map[int32][]int32, error) {
	admissible := make([]int32, 0, len(S))
	comms := make(map[int32][]int32, len(S))
	for _, w := range S {
		comp, err := qc.verify([]int32{w})
		if err != nil {
			return nil, nil, err
		}
		if comp != nil {
			admissible = append(admissible, w)
			comms[w] = comp
		}
	}
	return admissible, comms, nil
}

func sortedCopy(s []int32) []int32 {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// sortAnswers orders answers deterministically (by keyword set, then vertex
// set) and collapses exact duplicates. For a fixed keyword set the AC is
// unique, so distinct answers should never coincide — but different
// candidate orders can surface the same community more than once, and the
// guard makes that a collapse instead of a duplicated result. Vertex lists
// arrive ascending and are never written: an answer may share its list with
// the index or with a cached result.
func sortAnswers(answers []Community) []Community {
	slices.SortFunc(answers, func(x, y Community) int {
		if c := slices.Compare(x.SharedKeywords, y.SharedKeywords); c != 0 {
			return c
		}
		return slices.Compare(x.Vertices, y.Vertices)
	})
	return slices.CompactFunc(answers, func(x, y Community) bool {
		return slices.Equal(x.SharedKeywords, y.SharedKeywords) &&
			slices.Equal(x.Vertices, y.Vertices)
	})
}

// setIDs interns keyword sets (ascending int32 IDs) into dense int32 set IDs
// via a path trie: each (node, word) step maps to a child node, and the node
// reached after consuming all of T identifies T. Replaces the old
// string-key scheme (setKey built a fresh byte string per lookup); a trie
// walk allocates nothing in the steady state, and IDs stay small because the
// table is reset per query.
type setIDs struct {
	steps map[setStep]int32
	n     int32
}

type setStep struct{ node, word int32 }

// reset clears the table, keeping its storage for the next query.
func (si *setIDs) reset() {
	if si.steps == nil {
		si.steps = make(map[setStep]int32, 64)
	} else {
		clear(si.steps)
	}
	si.n = 0
}

// id returns the interned ID of T, which must be ascending. The empty set is
// 0; equal sets get equal IDs, distinct sets distinct IDs.
func (si *setIDs) id(T []int32) int32 {
	node := int32(0)
	for _, w := range T {
		step := setStep{node, w}
		next, ok := si.steps[step]
		if !ok {
			si.n++
			next = si.n
			si.steps[step] = next
		}
		node = next
	}
	return node
}
