// Incremental core-number maintenance under streaming edge mutations. A
// single edge insertion can raise core numbers by at most one and a single
// deletion can lower them by at most one, and only for vertices at the
// lower endpoint's level, so an update need only visit the vertices that
// can actually move — the step the community-search survey (Fang et al.
// 2019) names as what separates an offline index demo from an online
// system.
//
// Inserts use the order-based algorithm of Zhang, Yu, Zhang & Qin ("A Fast
// Order-Based Approach for Core Maintenance", ICDE 2017, in the simplified
// form of Guo & Sekerinski, 2022). The Maintainer keeps a k-order (Order)
// with deg+(v) ≤ core(v) for every vertex. An inserted edge adds one to
// deg+ of its earlier endpoint u; if that stays within K = core(u) the
// order is still valid and nothing moves. Otherwise the kernel re-runs the
// peel of level O_K from u: walking forward only through vertices with a
// candidate neighbour before them, it defers every vertex whose live degree
// exceeds K (a candidate) and evicts candidates back into O_K as removals
// leave them K or fewer live neighbours. The candidates left are exactly
// the vertices promoted to K+1. A subcore traversal (Sarıyüce et al., VLDB
// 2013) visits the whole connected level-K region instead — essentially the
// entire max core for an insert inside it — where this visits the handful
// of vertices after u that can rise.
//
// Removals keep the subcore eviction cascade, which touches only the
// vertices that fall: a vertex stays at level r iff it keeps at least r
// neighbours of core ≥ r. The fallen vertices then move, in the order they
// fell, to the tail of O_{r-1}, which keeps the order valid.
package kcore

import "slices"

// Adjacency is the read surface the incremental kernels need. Both
// *graph.Graph (frozen CSR) and *graph.Overlay (CSR plus an in-flight
// mutation batch) satisfy it, so core numbers can be maintained op by op
// while a batch is still accumulating.
type Adjacency interface {
	N() int
	ForEachNeighbor(v int32, fn func(u int32) bool)
}

// FlatAdjacency is the optional slice fast path: both graph types provide
// it, and the kernels use it to iterate adjacency with plain range loops
// instead of per-neighbor callback dispatch.
type FlatAdjacency interface {
	FlatNeighbors(v int32) ([]int32, bool)
}

// Per-update vertex roles, valid while the vertex is stamped.
const (
	stPending   uint8 = iota // insert: queued for its turn in O_K
	stCandidate              // insert: deferred, may rise to K+1
	stEvicting               // insert: candidate on its way back into O_K; remove: falling
	stDone                   // insert: has its final place in O_K; remove: counted, stays
)

// Maintainer owns a core-number array and its k-order and updates both in
// place as edges stream in and out. All bookkeeping is epoch-stamped dense
// scratch (the same discipline as Peeler): starting an update is O(1) and
// the steady state allocates nothing, so an update costs array walks over
// the vertices it touches, never hash-map traffic. A Maintainer is a
// single-goroutine object; create one per mutation batch — or take one
// from a pool and Reset it, which reuses the scratch without any clearing.
type Maintainer struct {
	core []int32
	ord  *Order

	stamp []int32 // touched by the current update iff stamp[v] == epoch
	state []uint8 // role in the current update, valid while stamped
	cnt   []int32 // per-update counter, valid while stamped
	epoch int32

	heap    labelHeap
	queue   []int32
	list    []int32    // insert: candidates in deferral order; remove: fallen vertices
	evicted [][2]int32 // insert: {evicted vertex, vertex it is placed after}
	changed []int32
	nbufA   []int32 // neighbor-gather scratch, outer nesting level
	nbufB   []int32 // neighbor-gather scratch, inner nesting level
}

// NewMaintainer adopts core and its k-order (both are updated in place; the
// caller may keep reading them between updates but must not write them).
func NewMaintainer(core []int32, ord *Order) *Maintainer {
	m := &Maintainer{}
	m.Reset(core, ord)
	return m
}

// Reset re-targets the maintainer at a new core array and order, growing
// scratch as needed. Existing epoch stamps stay valid (they are all below
// the next epoch), so a reset costs no clearing — the point of pooling
// Maintainers across mutation batches.
func (m *Maintainer) Reset(core []int32, ord *Order) {
	m.core, m.ord = core, ord
	n := len(core)
	// AddVertex grows the arrays by append, which rounds each capacity to
	// its own size class, so the three capacities can differ.
	if cap(m.stamp) < n || cap(m.state) < n || cap(m.cnt) < n {
		// Fresh arrays are all zero; keep the running epoch (stamps in the
		// new arrays can never collide with it).
		m.stamp = make([]int32, n)
		m.state = make([]uint8, n)
		m.cnt = make([]int32, n)
		return
	}
	m.stamp = m.stamp[:n]
	m.state = m.state[:n]
	m.cnt = m.cnt[:n]
}

// Core returns the maintained core array.
func (m *Maintainer) Core() []int32 { return m.core }

// Order returns the maintained k-order.
func (m *Maintainer) Order() *Order { return m.ord }

// AddVertex extends the state for one appended (isolated, core-0) vertex.
func (m *Maintainer) AddVertex() {
	m.core = append(m.core, 0)
	m.ord.addVertex()
	m.stamp = append(m.stamp, 0)
	m.state = append(m.state, 0)
	m.cnt = append(m.cnt, 0)
}

// bump starts a new update epoch.
func (m *Maintainer) bump() {
	m.epoch++
	if m.epoch == 0 { // wrapped; re-zero and restart
		clear(m.stamp[:cap(m.stamp)])
		m.epoch = 1
	}
}

// touch stamps v into the current update with role st and counter c.
func (m *Maintainer) touch(v int32, st uint8, c int32) {
	m.stamp[v], m.state[v], m.cnt[v] = m.epoch, st, c
}

// is reports whether v plays role st in the current update.
func (m *Maintainer) is(v int32, st uint8) bool {
	return m.stamp[v] == m.epoch && m.state[v] == st
}

// neighborsInto returns w's adjacency as a plain slice: the graph's own
// storage on the flat fast path, else gathered into buf. Nested sweeps must
// pass distinct buffers (nbufA for the outer level, nbufB for the inner).
func neighborsInto(g Adjacency, flat FlatAdjacency, w int32, buf *[]int32) []int32 {
	if flat != nil {
		if ns, ok := flat.FlatNeighbors(w); ok {
			return ns
		}
	}
	out := (*buf)[:0]
	g.ForEachNeighbor(w, func(x int32) bool {
		out = append(out, x)
		return true
	})
	*buf = out
	return out
}

// countLater returns w's number of neighbours after it in the order.
func (m *Maintainer) countLater(g Adjacency, flat FlatAdjacency, w int32) int32 {
	n := int32(0)
	for _, x := range neighborsInto(g, flat, w, &m.nbufA) {
		if m.ord.after(m.core, x, w) {
			n++
		}
	}
	return n
}

// InsertEdge updates core numbers and the order after the edge {u,v} has
// been inserted into g (the edge must already be visible through g). It
// returns the vertices whose core number rose (by exactly one), ascending;
// the slice is only valid until the next update.
//
// The kernel replays the peel of O_K, K = core(u) for the earlier endpoint
// u, from u onwards. A vertex's live degree at its turn is deg+ (its later
// neighbours, all still present) plus cnt, its candidate neighbours before
// it. Above K it cannot be removed there and is deferred as a candidate,
// and its later O_K neighbours are queued with cnt+1. At most K it is
// removed in place: the candidates then come after it, so they join its
// deg+, and each candidate neighbour loses one live neighbour — evicted
// back into O_K right behind it once down to K, which cascades. Vertices
// with no candidate before them are never queued, and keep their places.
func (m *Maintainer) InsertEdge(g Adjacency, u, v int32) []int32 {
	flat, _ := g.(FlatAdjacency)
	core, o := m.core, m.ord
	m.bump()
	if o.after(core, u, v) {
		u, v = v, u
	}
	K := core[u]
	if o.degPlus[u]++; o.degPlus[u] <= K {
		return nil
	}

	m.heap = m.heap[:0]
	m.list = m.list[:0]
	m.evicted = m.evicted[:0]
	m.touch(u, stPending, 0)
	m.heap.push(o.label[u], u)
	// Labels stay fixed until the loop ends: candidates leave O_K and
	// evicted vertices re-enter it only afterwards, so a queued vertex is
	// exactly a level-K vertex labelled above the one being processed.
	for len(m.heap) > 0 {
		x := m.heap.pop()
		if live := m.cnt[x] + o.degPlus[x]; live > K {
			m.touch(x, stCandidate, live)
			m.list = append(m.list, x)
			for _, y := range neighborsInto(g, flat, x, &m.nbufA) {
				if core[y] != K || o.label[y] <= o.label[x] {
					continue
				}
				if m.stamp[y] != m.epoch {
					m.touch(y, stPending, 0)
					m.heap.push(o.label[y], y)
				}
				m.cnt[y]++
			}
			continue
		}
		m.state[x] = stDone
		if m.cnt[x] == 0 {
			continue
		}
		o.degPlus[x] += m.cnt[x]
		m.queue = m.queue[:0]
		for _, c := range neighborsInto(g, flat, x, &m.nbufA) {
			m.dropLive(c, K)
		}
		pre := x
		for i := 0; i < len(m.queue); i++ {
			c := m.queue[i]
			// Every live neighbour left comes after c where it re-enters.
			m.state[c] = stDone
			o.degPlus[c] = m.cnt[c]
			m.evicted = append(m.evicted, [2]int32{c, pre})
			pre = c
			for _, y := range neighborsInto(g, flat, c, &m.nbufA) {
				if m.is(y, stPending) || m.is(y, stEvicting) {
					m.cnt[y]--
				} else {
					m.dropLive(y, K)
				}
			}
		}
	}

	for _, c := range m.list {
		o.unlink(K, c)
	}
	for _, e := range m.evicted {
		o.place(K, e[1], e[0])
	}
	// Survivors rise to the head of O_{K+1}, keeping their relative order.
	changed := m.changed[:0]
	for i := len(m.list) - 1; i >= 0; i-- {
		if c := m.list[i]; m.is(c, stCandidate) {
			core[c] = K + 1
			o.place(K+1, -1, c)
			changed = append(changed, c)
		}
	}
	for _, c := range changed {
		o.degPlus[c] = m.countLater(g, flat, c)
	}
	slices.Sort(changed)
	m.changed = changed
	return changed
}

// dropLive takes one live neighbour from c if c is a candidate, queueing
// it for eviction once it has only K left.
func (m *Maintainer) dropLive(c, K int32) {
	if !m.is(c, stCandidate) {
		return
	}
	if m.cnt[c]--; m.cnt[c] <= K {
		m.state[c] = stEvicting
		m.queue = append(m.queue, c)
	}
}

// RemoveEdge updates core numbers and the order after the edge {u,v} has
// been removed from g (the edge must no longer be visible through g). It
// returns the vertices whose core number dropped (by exactly one),
// ascending; the slice is only valid until the next update.
//
// Let r = min(core[u], core[v]). Only vertices at level r can drop, and
// only via an eviction cascade seeded at the endpoint(s) sitting at r: a
// vertex stays at r iff it keeps at least r neighbors with core ≥ r.
// Qualified degrees are computed lazily, so the kernel touches exactly the
// cascade's frontier and nothing else.
func (m *Maintainer) RemoveEdge(g Adjacency, u, v int32) []int32 {
	flat, _ := g.(FlatAdjacency)
	core, o := m.core, m.ord
	m.bump()
	if o.after(core, u, v) {
		u, v = v, u
	}
	o.degPlus[u]--
	r := core[u]
	if r <= 0 {
		return nil
	}

	// An evicted vertex has its core set to r-1 when dequeued — before its
	// neighbors are examined — so a lazy qualified-degree computation never
	// counts a vertex that has already fallen, and the explicit decrement
	// covers exactly the vertices that fall later.
	qualified := func(w int32) int32 {
		n := int32(0)
		for _, x := range neighborsInto(g, flat, w, &m.nbufB) {
			if core[x] >= r {
				n++
			}
		}
		return n
	}
	m.queue = m.queue[:0]
	check := func(w int32) {
		if m.cnt[w] < r {
			m.state[w] = stEvicting
			m.queue = append(m.queue, w)
		}
	}
	for _, w := range [2]int32{u, v} {
		if core[w] == r && m.stamp[w] != m.epoch {
			m.touch(w, stDone, qualified(w))
			check(w)
		}
	}

	fell := m.list[:0]
	for len(m.queue) > 0 {
		w := m.queue[len(m.queue)-1]
		m.queue = m.queue[:len(m.queue)-1]
		core[w] = r - 1
		fell = append(fell, w)
		for _, x := range neighborsInto(g, flat, w, &m.nbufA) {
			if core[x] != r || m.is(x, stEvicting) {
				continue
			}
			if m.stamp[x] != m.epoch {
				// First touch: the count below already excludes w (its core
				// was lowered above), so no extra decrement.
				m.touch(x, stDone, qualified(x))
			} else {
				m.cnt[x]--
			}
			check(x)
		}
	}
	m.list = fell
	if len(fell) == 0 {
		return nil
	}

	// The fallen move to the tail of O_{r-1}, ahead of all of O_r: level-r
	// vertices before them no longer have them later. Each had at most r-1
	// neighbours of core ≥ r left when it fell, which is its deg+ with the
	// fallen kept in falling order.
	for _, w := range fell {
		for _, x := range neighborsInto(g, flat, w, &m.nbufA) {
			if core[x] == r && o.label[x] < o.label[w] {
				o.degPlus[x]--
			}
		}
	}
	for _, w := range fell {
		o.unlink(r, w)
		o.place(r-1, o.tail[r-1], w)
	}
	for _, w := range fell {
		o.degPlus[w] = m.countLater(g, flat, w)
	}
	changed := append(m.changed[:0], fell...)
	slices.Sort(changed)
	m.changed = changed
	return changed
}

// labelHeap is a binary min-heap of vertices keyed by their label at push
// time: the insert kernel's queue of level-K vertices awaiting their turn.
// It is not ds.PairHeap because labels are int64 up to 2^62, past float64's
// exact-integer range, and the kernel never needs decrease-key (nor that
// heap's n-sized position array).
type labelHeap []heapEntry

type heapEntry struct {
	label int64
	v     int32
}

func (h *labelHeap) push(label int64, v int32) {
	*h = append(*h, heapEntry{label, v})
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].label <= s[i].label {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *labelHeap) pop() int32 {
	s := *h
	v := s[0].v
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < last && s[l].label < s[small].label {
			small = l
		}
		if l+1 < last && s[l+1].label < s[small].label {
			small = l + 1
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	*h = s
	return v
}
