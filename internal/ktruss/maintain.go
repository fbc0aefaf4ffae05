package ktruss

import (
	"fmt"
	"math"
	"slices"

	"cexplorer/internal/graph"
)

// Incremental truss maintenance under streaming edge mutations (Huang et
// al., SIGMOD 2014, §5; the community-search survey of Fang et al. 2019
// covers the same bounds). Write τ for trussness before an op, τ' after,
// and T_k for the k-truss, the edges with τ ≥ k.
//
// Insert e0. Every other edge rises by at most one: removing e0 from T'_k
// costs each edge at most the one triangle it shares with e0, so
// T'_k \ {e0} ⊆ T_{k-1}. The edges that join T'_k are therefore at level
// k−1, and each is reached from e0 through triangles of T'_k whose other
// new edges also joined: the triangle-connected component of T'_k holding
// an edge is itself a k-truss, and without e0 it would already have been
// in T_k. So level k runs a BFS from e0 over triangles with all edges at
// τ ≥ k−1, through level-(k−1) edges only — skipping those with fewer than
// k−2 such triangles, which cannot reach k — then peels the candidates
// against T_k ∪ {e0}; the survivors rise to k. e0's own trussness is the
// last level it survives, and no edge rises at a level where e0 does not
// survive, so the levels run upward from 3 and stop there.
//
// Remove e0. Every edge falls by at most one, and at level k only edges
// with τ = k can leave T_k: those in a triangle with e0 inside T_k seed an
// eviction cascade, and an edge stays iff it keeps k−2 triangles in T_k.
// Supports are counted lazily on first touch, so a level costs the
// cascade's frontier and nothing else.
//
// Both directions read τ only from before the op, so the levels are
// independent and an op's changes apply when it ends. Changed trussness is
// held in an edge-keyed delta over the base decomposition until the batch
// materializes, when the base's per-slot array is carried to the successor
// (graph.Overlay.CarrySlots) and the delta written into it.

// inH is the inserted edge's trussness while its own is computed: it
// belongs to the candidate subgraph of every level.
const inH = math.MaxInt32

// Per-level edge roles.
const (
	stIn     uint8 = iota // in the level's subgraph, support counted
	stOut                 // insert: discovered, but cannot reach the level
	stQueued              // leaving; its triangles still count until processed
	stGone                // left; its triangles no longer count
)

// Maintainer carries a Decomposition across one batch of edge mutations
// applied to a graph.Overlay: call InsertEdge or RemoveEdge after each edge
// op is applied to the overlay, then Decomposition with the graph the
// overlay materializes. Vertex additions need no call. The base
// decomposition is only read. A Maintainer is a single-goroutine object,
// made for one batch.
type Maintainer struct {
	base  *Decomposition
	ov    *graph.Overlay
	delta map[uint64]int32   // trussness of every edge the batch added or moved
	dirty map[int32]struct{} // endpoints of delta edges (never shrinks)

	// Per-level state. A level k records the edges of one trussness,
	// tracked (k−1 on insert, k on remove), with their roles, and each
	// recorded edge's triangles whose wings are at τ ≥ tracked — found by
	// one intersection when the edge is recorded, then reused.
	k, tracked int32
	idx        map[uint64]int32 // edge key -> index in recs
	recs       []rec
	tris       []tri
	queue      []int32

	e0      []tri    // insert: every triangle on the inserted edge
	seeds   []change // remove: wing edges with their level
	changed []change // the current op's changes, applied when it ends
	va, vb  view
}

type rec struct {
	a, b   int32
	sup    int32
	st     uint8
	lo, hi int32 // the edge's triangles, tris[lo:hi]
}

// tri is a triangle on a recorded edge {a,b}: its apex x and the
// trussness of its wings {a,x} and {b,x}.
type tri struct{ x, ta, tb int32 }

type change struct{ a, b, t int32 }

// view is gather space for one vertex's adjacency and trussness.
type view struct{ n, t []int32 }

// NewMaintainer starts a batch over ov, whose base graph base decomposes.
func NewMaintainer(base *Decomposition, ov *graph.Overlay) *Maintainer {
	return &Maintainer{
		base:  base,
		ov:    ov,
		delta: map[uint64]int32{},
		dirty: map[int32]struct{}{},
		idx:   map[uint64]int32{},
	}
}

func edgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func (m *Maintainer) set(a, b, t int32) {
	m.delta[edgeKey(a, b)] = t
	m.dirty[a] = struct{}{}
	m.dirty[b] = struct{}{}
}

// trussOf returns the current trussness of edge {a,b}, present in the
// overlay or just removed from it.
func (m *Maintainer) trussOf(a, b int32) int32 {
	if t, ok := m.delta[edgeKey(a, b)]; ok {
		return t
	}
	if n := int32(m.base.g.N()); a < n && b < n {
		if s, ok := m.base.slot(a, b); ok {
			return m.base.truss[s]
		}
	}
	return 0
}

// neighbors returns a's current adjacency and, parallel to it, each edge's
// current trussness. An untouched vertex with no moved edge reads the base
// graph's list and slot span in place; anything else is gathered into vb.
func (m *Maintainer) neighbors(a int32, vb *view) ([]int32, []int32) {
	_, dirty := m.dirty[a]
	if nb, flat := m.ov.FlatNeighbors(a); flat {
		ts := m.base.Slots(a)
		if !dirty {
			return nb, ts
		}
		vb.t = append(vb.t[:0], ts...)
		for i, x := range nb {
			if t, ok := m.delta[edgeKey(a, x)]; ok {
				vb.t[i] = t
			}
		}
		return nb, vb.t
	}
	vb.n = vb.n[:0]
	m.ov.ForEachNeighbor(a, func(x int32) bool {
		vb.n = append(vb.n, x)
		return true
	})
	vb.t = slices.Grow(vb.t[:0], len(vb.n))[:len(vb.n)]
	var bn, bt []int32
	if int(a) < m.base.g.N() {
		bn, bt = m.base.g.Neighbors(a), m.base.Slots(a)
	}
	j := 0
	for i, x := range vb.n {
		for j < len(bn) && bn[j] < x {
			j++
		}
		vb.t[i] = 0 // every added edge is in the delta
		if dirty {
			if t, ok := m.delta[edgeKey(a, x)]; ok {
				vb.t[i] = t
				continue
			}
		}
		if j < len(bn) && bn[j] == x {
			vb.t[i] = bt[j]
		}
	}
	return vb.n, vb.t
}

// resetLevel starts level k, recording edges of trussness tracked.
func (m *Maintainer) resetLevel(k, tracked int32) {
	m.k, m.tracked = k, tracked
	clear(m.idx)
	m.recs = m.recs[:0]
	m.tris = m.tris[:0]
	m.queue = m.queue[:0]
}

// add records edge {a,b} in the level with role st, with its triangles,
// and returns its index.
func (m *Maintainer) add(a, b int32, st uint8) int32 {
	lo := int32(len(m.tris))
	m.tris = m.triangles(a, b, m.tracked, m.tris)
	return m.record(a, b, st, lo)
}

// record adds edge {a,b}, whose triangles are tris[lo:], to the level.
func (m *Maintainer) record(a, b int32, st uint8, lo int32) int32 {
	r := int32(len(m.recs))
	m.idx[edgeKey(a, b)] = r
	m.recs = append(m.recs, rec{a: a, b: b, st: st, lo: lo, hi: int32(len(m.tris))})
	return r
}

// triangles appends to dst the triangles on {a,b} whose wings both have
// τ ≥ atLeast.
func (m *Maintainer) triangles(a, b, atLeast int32, dst []tri) []tri {
	na, ta := m.neighbors(a, &m.va)
	nb, tb := m.neighbors(b, &m.vb)
	forEachCommon(na, nb, func(x int32, i, j int) {
		if ta[i] >= atLeast && tb[j] >= atLeast {
			dst = append(dst, tri{x, ta[i], tb[j]})
		}
	})
	return dst
}

// lookup returns the level's record of edge {a,b}, or -1.
func (m *Maintainer) lookup(a, b int32) int32 {
	if r, ok := m.idx[edgeKey(a, b)]; ok {
		return r
	}
	return -1
}

// drop takes one triangle from record r, queueing it to leave once it has
// fewer than k−2.
func (m *Maintainer) drop(r int32) {
	e := &m.recs[r]
	if e.sup--; e.st == stIn && e.sup < m.k-2 {
		e.st = stQueued
		m.queue = append(m.queue, r)
	}
}

// InsertEdge updates trussness after {u,v} has been added to the overlay
// and returns how many existing edges rose (each by exactly one).
func (m *Maintainer) InsertEdge(u, v int32) int {
	m.set(u, v, inH)
	m.e0 = m.triangles(u, v, 0, m.e0[:0])
	// e0 can reach k only with k−2 triangles whose wings reach k−1 now.
	slices.SortFunc(m.e0, func(x, y tri) int { return int(min(y.ta, y.tb) - min(x.ta, x.tb)) })
	kmax := int32(2)
	for i, t := range m.e0 {
		kmax = max(kmax, min(int32(i)+3, min(t.ta, t.tb)+1))
	}
	m.changed = m.changed[:0]
	t0 := int32(2)
	for k := int32(3); k <= kmax && m.insertLevel(u, v, k); k++ {
		t0 = k
	}
	m.set(u, v, t0)
	for _, c := range m.changed {
		m.set(c.a, c.b, c.t)
	}
	return len(m.changed)
}

// insertLevel decides whether e0 = {u,v} is in the new k-truss, recording
// the level-(k−1) edges that join it.
func (m *Maintainer) insertLevel(u, v, k int32) bool {
	m.resetLevel(k, k-1)
	for _, t := range m.e0 {
		if t.ta >= k-1 && t.tb >= k-1 {
			m.tris = append(m.tris, t)
		}
	}
	m.queue = append(m.queue, m.record(u, v, stIn, 0))
	// Discover: BFS from e0 over triangles whose edges all have τ ≥ k−1,
	// expanding the level-(k−1) edges that have k−2 such triangles.
	for len(m.queue) > 0 {
		r := m.queue[len(m.queue)-1]
		m.queue = m.queue[:len(m.queue)-1]
		a, b, lo, hi := m.recs[r].a, m.recs[r].b, m.recs[r].lo, m.recs[r].hi
		for i := lo; i < hi; i++ {
			t := m.tris[i]
			m.discover(a, t.x, t.ta)
			m.discover(b, t.x, t.tb)
		}
	}
	// Peel the candidates against T_k ∪ {e0}.
	for r := range m.recs {
		if m.recs[r].st == stIn {
			m.recs[r].sup = m.count(int32(r))
		}
	}
	for r := range m.recs {
		if e := &m.recs[r]; e.st == stIn && e.sup < k-2 {
			e.st = stQueued
			m.queue = append(m.queue, int32(r))
		}
	}
	m.peel()
	if m.recs[0].st != stIn {
		return false
	}
	for _, e := range m.recs[1:] {
		if e.st == stIn {
			m.changed = append(m.changed, change{e.a, e.b, k})
		}
	}
	return true
}

// discover records a level-(k−1) wing {a,x} of trussness t on first sight
// and queues it for expansion if it has the k−2 triangles to reach k.
func (m *Maintainer) discover(a, x, t int32) {
	if t != m.tracked || m.lookup(a, x) >= 0 {
		return
	}
	r := m.add(a, x, stOut)
	if e := &m.recs[r]; e.hi-e.lo >= m.k-2 {
		e.st = stIn
		m.queue = append(m.queue, r)
	}
}

// RemoveEdge updates trussness after {u,v} has been removed from the
// overlay and returns how many remaining edges fell (each by exactly one).
func (m *Maintainer) RemoveEdge(u, v int32) int {
	t0 := m.trussOf(u, v)
	delete(m.delta, edgeKey(u, v))
	m.changed = m.changed[:0]
	if t0 < 3 {
		return 0 // e0 closed no triangle
	}
	// A wing edge at level k lost a triangle of T_k iff e0 and the other
	// wing are at ≥ k too.
	nu, tu := m.neighbors(u, &m.va)
	nv, tv := m.neighbors(v, &m.vb)
	seeds := m.seeds[:0]
	forEachCommon(nu, nv, func(w int32, i, j int) {
		if t := tu[i]; t <= min(tv[j], t0) {
			seeds = append(seeds, change{u, w, t})
		}
		if t := tv[j]; t <= min(tu[i], t0) {
			seeds = append(seeds, change{v, w, t})
		}
	})
	slices.SortFunc(seeds, func(x, y change) int { return int(x.t - y.t) })
	m.seeds = seeds
	for lo := 0; lo < len(seeds); {
		k := seeds[lo].t
		m.resetLevel(k, k)
		for ; lo < len(seeds) && seeds[lo].t == k; lo++ {
			m.touch(seeds[lo].a, seeds[lo].b)
		}
		m.peel()
		for _, e := range m.recs {
			if e.st == stGone {
				m.changed = append(m.changed, change{e.a, e.b, k - 1})
			}
		}
	}
	for _, c := range m.changed {
		m.set(c.a, c.b, c.t)
	}
	return len(m.changed)
}

// touch records an unrecorded level-k edge {a,b} with its support in the
// current T_k, queueing it to leave if that is short of k−2.
func (m *Maintainer) touch(a, b int32) {
	r := m.add(a, b, stIn)
	if m.recs[r].sup = m.count(r); m.recs[r].sup < m.k-2 {
		m.recs[r].st = stQueued
		m.queue = append(m.queue, r)
	}
}

// peel processes the queue of leaving records: each takes its triangles
// out of the level, one support from each live member on the other two
// sides. A triangle leaves once, with the first of its edges processed. On
// remove, a level-k side seen for the first time is touched, its support
// counted without the edge that just left.
func (m *Maintainer) peel() {
	for len(m.queue) > 0 {
		r := m.queue[len(m.queue)-1]
		m.queue = m.queue[:len(m.queue)-1]
		m.recs[r].st = stGone
		a, b, lo, hi := m.recs[r].a, m.recs[r].b, m.recs[r].lo, m.recs[r].hi
		for i := lo; i < hi; i++ {
			t := m.tris[i]
			r1, in1 := m.member(a, t.x, t.ta)
			r2, in2 := m.member(b, t.x, t.tb)
			if !in1 || !in2 {
				continue
			}
			m.release(r1, a, t.x, t.ta)
			m.release(r2, b, t.x, t.tb)
		}
	}
}

// release takes a leaving triangle from its wing {a,x}: a recorded wing
// loses one support, an unrecorded one at the tracked trussness (remove
// only: on insert such a wing is not a member) is touched.
func (m *Maintainer) release(r, a, x, t int32) {
	switch {
	case r >= 0:
		m.drop(r)
	case t == m.tracked:
		m.touch(a, x)
	}
}

// member reports whether edge {a,x}, of trussness t, is in the level's
// subgraph — T_k with the records that have not left — and returns its
// record (-1 for an unrecorded edge).
func (m *Maintainer) member(a, x, t int32) (int32, bool) {
	if t != m.tracked && t != inH {
		return -1, t >= m.k
	}
	r := m.lookup(a, x)
	if r < 0 {
		// Unrecorded at the tracked trussness: on insert an undiscovered
		// level-(k−1) edge, outside; on remove an untouched level-k edge,
		// still in T_k.
		return -1, m.tracked == m.k
	}
	st := m.recs[r].st
	return r, st == stIn || st == stQueued
}

// count returns record r's triangles inside the level's subgraph.
func (m *Maintainer) count(r int32) int32 {
	a, b, lo, hi := m.recs[r].a, m.recs[r].b, m.recs[r].lo, m.recs[r].hi
	n := int32(0)
	for i := lo; i < hi; i++ {
		t := m.tris[i]
		_, in1 := m.member(a, t.x, t.ta)
		_, in2 := m.member(b, t.x, t.tb)
		if in1 && in2 {
			n++
		}
	}
	return n
}

// Decomposition returns the batch's result over g, the graph the overlay
// materialized: the base's per-slot trussness carried across the batch,
// with every added or moved edge written from the delta.
func (m *Maintainer) Decomposition(g *graph.Graph) (*Decomposition, error) {
	d := newDecomposition(g, m.ov.CarrySlots(g, m.base.truss))
	for key, t := range m.delta {
		a, b := int32(key>>32), int32(uint32(key))
		sa, okA := d.slot(a, b)
		sb, okB := d.slot(b, a)
		if !okA || !okB {
			return nil, fmt.Errorf("ktruss: maintained edge {%d,%d} is not in the materialized graph", a, b)
		}
		d.truss[sa], d.truss[sb] = t, t
	}
	return d, nil
}
