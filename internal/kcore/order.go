package kcore

import (
	"slices"

	"cexplorer/internal/graph"
)

// Order is a k-order (Zhang, Yu, Zhang & Qin, "A Fast Order-Based Approach
// for Core Maintenance", ICDE 2017): the vertex sequence O_0 O_1 O_2 …, where
// level O_k holds the vertices of core number k in an order a peel could
// remove them. Its invariant is deg+(v) ≤ core(v), where deg+(v) counts v's
// neighbours later in the sequence (in a higher level, or later in v's own).
// Any peel order of the decomposition is a k-order, and the Maintainer keeps
// one valid across edge inserts and removals; it is what lets an insert
// visit only the few vertices after the endpoint that can actually rise.
//
// Each level is a doubly linked list whose vertices carry increasing int64
// labels, so comparing two vertices of one level is O(1). New positions take
// a label inside the gap between their neighbours, and a level is relabelled
// on the rare insert that finds no gap left. An Order is 20 bytes per vertex
// and, like the core array it belongs to, immutable once published: the
// owner clones it before maintaining a successor.
type Order struct {
	label      []int64 // position inside the vertex's level
	next, prev []int32 // level list links; -1 at the ends
	degPlus    []int32 // neighbours later in the order
	head, tail []int32 // per level; -1 when empty
}

const (
	// labelSpan bounds every label to [0, labelSpan], so label differences
	// never overflow.
	labelSpan = int64(1) << 62
	// labelStep caps how far past its anchor a new label lands, leaving the
	// rest of a wide gap for the next insert at the same spot.
	labelStep = int64(1) << 32
)

// BuildOrder decomposes g and returns its core numbers with the k-order of
// the decomposition's own peel (DecomposeOrder).
func BuildOrder(g *graph.Graph) ([]int32, *Order) {
	core, peel := DecomposeOrder(g)
	n := len(core)
	o := &Order{
		label:   make([]int64, n),
		next:    make([]int32, n),
		prev:    make([]int32, n),
		degPlus: make([]int32, n),
	}
	o.grow(Degeneracy(core))
	// The peel visits levels in ascending order, so labels increasing along
	// it are increasing along every level.
	spacing := o.spacing()
	for i, v := range peel {
		o.label[v] = int64(i+1) * spacing
		o.link(core[v], o.tail[core[v]], v)
	}
	for v := range int32(n) {
		for _, x := range g.Neighbors(v) {
			if o.after(core, x, v) {
				o.degPlus[v]++
			}
		}
	}
	return core, o
}

// Clone returns an independent copy.
func (o *Order) Clone() *Order {
	return &Order{
		label:   slices.Clone(o.label),
		next:    slices.Clone(o.next),
		prev:    slices.Clone(o.prev),
		degPlus: slices.Clone(o.degPlus),
		head:    slices.Clone(o.head),
		tail:    slices.Clone(o.tail),
	}
}

// after reports whether x comes after w in the order.
func (o *Order) after(core []int32, x, w int32) bool {
	return core[x] > core[w] || core[x] == core[w] && o.label[x] > o.label[w]
}

// addVertex appends an isolated vertex at the tail of O_0.
func (o *Order) addVertex() {
	v := int32(len(o.label))
	o.label = append(o.label, 0)
	o.next = append(o.next, -1)
	o.prev = append(o.prev, -1)
	o.degPlus = append(o.degPlus, 0)
	o.grow(0)
	o.place(0, o.tail[0], v)
}

// grow makes level k addressable.
func (o *Order) grow(k int32) {
	for int32(len(o.head)) <= k {
		o.head = append(o.head, -1)
		o.tail = append(o.tail, -1)
	}
}

// spacing is the label distance a relabel leaves between neighbours: wide
// enough for a level of every vertex to fit in [0, labelSpan].
func (o *Order) spacing() int64 { return labelSpan / int64(len(o.label)+2) }

// place links w into level k right after a (at the head when a < 0), with a
// label strictly between its new neighbours'.
func (o *Order) place(k, a, w int32) {
	o.grow(k)
	b := o.head[k]
	if a >= 0 {
		b = o.next[a]
	}
	lo, hi := o.gap(a, b)
	if hi-lo < 2 {
		o.relabel(k)
		lo, hi = o.gap(a, b)
	}
	if a < 0 && b >= 0 {
		// A new head: leave the room below it for the next one.
		o.label[w] = hi - min((hi-lo)/2, labelStep)
	} else {
		o.label[w] = lo + min((hi-lo)/2, labelStep)
	}
	o.link(k, a, w)
}

// gap returns the labels bounding a slot between a and b (-1: level end).
func (o *Order) gap(a, b int32) (lo, hi int64) {
	lo, hi = 0, labelSpan
	if a >= 0 {
		lo = o.label[a]
	}
	if b >= 0 {
		hi = o.label[b]
	}
	return lo, hi
}

// relabel spreads level k's labels evenly again.
func (o *Order) relabel(k int32) {
	spacing := o.spacing()
	l := spacing
	for v := o.head[k]; v >= 0; v = o.next[v] {
		o.label[v] = l
		l += spacing
	}
}

// link splices w into level k after a (at the head when a < 0).
func (o *Order) link(k, a, w int32) {
	b := o.head[k]
	if a >= 0 {
		b = o.next[a]
		o.next[a] = w
	} else {
		o.head[k] = w
	}
	if b >= 0 {
		o.prev[b] = w
	} else {
		o.tail[k] = w
	}
	o.prev[w], o.next[w] = a, b
}

// unlink removes w from level k.
func (o *Order) unlink(k, w int32) {
	a, b := o.prev[w], o.next[w]
	if a >= 0 {
		o.next[a] = b
	} else {
		o.head[k] = b
	}
	if b >= 0 {
		o.prev[b] = a
	} else {
		o.tail[k] = a
	}
}
