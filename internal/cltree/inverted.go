package cltree

import (
	"slices"
	"sort"

	"cexplorer/internal/graph"
)

// invLists is a node's inverted keyword list: its (keyword, vertex) pairs
// sorted by keyword, then vertex, as parallel arrays, immutable once
// published. A node Repair edited may hold a pending list instead (edit
// set, kw and v empty), spliced on its first read: a run of writes that
// each move a few of a large node's vertices pays set operations on the
// moved pairs, not a copy of the whole list per write. A pending list holds
// one spliced base list and nothing else (no graph, no chain of edits).
type invLists struct {
	kw, v []int32
	edit  *invEdit
	// arena: kw and v are windows on arrays every node of a loaded tree
	// shares (FromFlat). An edit splices such a list at once rather than
	// keep the whole arena alive for one node's base.
	arena bool
}

// invEdit is a pending list: base's pairs without del and with add, both
// ascending pairKeys. del ⊆ base and add is disjoint from it, as the edits
// editLists composes are those of the node's own vertex set, which the
// list mirrors.
type invEdit struct {
	base     *invLists // spliced, or nil for no pairs
	del, add []uint64
}

// pairKey orders (keyword, vertex) pairs as the lists do.
func pairKey(kw, v int32) uint64 { return uint64(kw)<<32 | uint64(uint32(v)) }

// pairKeys returns the ascending keys of the pairs of vertices vs.
func pairKeys(g *graph.Graph, vs []int32) []uint64 {
	var keys []uint64
	for _, v := range vs {
		for _, kw := range g.Keywords(v) {
			keys = append(keys, pairKey(kw, v))
		}
	}
	slices.Sort(keys)
	return keys
}

// size is the number of pairs l holds, pending or not.
func (l *invLists) size() int {
	switch {
	case l == nil:
		return 0
	case l.edit != nil:
		return l.edit.base.size() - len(l.edit.del) + len(l.edit.add)
	}
	return len(l.kw)
}

// lists returns n's inverted list, splicing a pending edit first. Readers
// racing on a pending node may both splice; one result is kept. nil means
// n's vertices carry no keywords.
func (n *Node) lists() *invLists {
	l := n.inv.Load()
	if l == nil || l.edit == nil {
		return l
	}
	spliced := splice(l.edit.base, l.edit.del, l.edit.add)
	if n.inv.CompareAndSwap(l, spliced) {
		return spliced
	}
	return n.inv.Load()
}

// editLists gives n the list of old's vertices without departed and with
// arrived, all of them vertices of g. The list stays pending, composed with
// old's own pending edit, until the edit outgrows a 64th of the list or
// its base lies in a loaded tree's arena; then it is spliced at once.
// Composing costs the edit's size per write and a splice the list's, so a
// large node under a stream of writes is copied once per many writes, and
// a small one at once.
func editLists(g *graph.Graph, old, n *Node, departed, arrived []int32) {
	del, add := pairKeys(g, departed), pairKeys(g, arrived)
	base := old.inv.Load()
	if base != nil && base.edit != nil {
		e := base.edit
		del, add = mergeSorted(minusSorted(e.del, add), minusSorted(del, e.add)),
			mergeSorted(minusSorted(e.add, del), minusSorted(add, e.del))
		base = e.base
	}
	n.inv.Store(&invLists{edit: &invEdit{base: base, del: del, add: add}})
	if len(del)+len(add) > base.size()/64 || base != nil && base.arena {
		n.lists()
	}
}

// splice returns base's pairs without del and with add (see invEdit),
// located by binary search and copied segment by segment; nil for none.
func splice(base *invLists, del, add []uint64) *invLists {
	var kw, v []int32
	if base != nil {
		kw, v = base.kw, base.v
	}
	total := len(kw) - len(del) + len(add)
	if total == 0 {
		return nil
	}
	out := &invLists{kw: make([]int32, 0, total), v: make([]int32, 0, total)}
	cur := 0
	for len(del) > 0 || len(add) > 0 {
		insert := len(del) == 0 || (len(add) > 0 && add[0] < del[0])
		var k uint64
		if insert {
			k, add = add[0], add[1:]
		} else {
			k, del = del[0], del[1:]
		}
		pos := cur + sort.Search(len(kw)-cur, func(i int) bool { return pairKey(kw[cur+i], v[cur+i]) >= k })
		out.kw = append(out.kw, kw[cur:pos]...)
		out.v = append(out.v, v[cur:pos]...)
		cur = pos
		if insert {
			out.kw = append(out.kw, int32(k>>32))
			out.v = append(out.v, int32(uint32(k)))
		} else {
			cur++ // the deleted pair
		}
	}
	out.kw = append(out.kw, kw[cur:]...)
	out.v = append(out.v, v[cur:]...)
	return out
}

// buildInverted fills each node's keyword inverted list from the graph —
// adopting the list wholesale when the node's vertex set is unchanged from
// reuse, editing it when the set changed by a few vertices, and counting-
// sorting from scratch otherwise.
func (t *Tree) buildInverted(reuse *Tree) {
	fillScratch := newInvFiller(t.g.Vocab().Len())
	var fill func(n *Node)
	fill = func(n *Node) {
		if !adoptInverted(reuse, n) && !patchInverted(t.g, reuse, n) {
			n.inv.Store(fillScratch.lists(t.g, n.Vertices))
		}
		for _, ch := range n.Children {
			fill(ch)
		}
	}
	fill(t.root)
}

// patchInverted derives a node's inverted list from an old node covering
// almost the same vertex set, as an edit of the departed and arrived
// vertices' pairs. It applies when a level gains or loses a few vertices
// (the shape every core promotion/demotion produces) and reports false
// otherwise.
func patchInverted(g *graph.Graph, old *Tree, n *Node) bool {
	if old == nil || len(n.Vertices) == 0 {
		return false
	}
	// Candidate old node: most of n's vertices lived somewhere; probe three.
	var on *Node
	for _, probe := range [3]int32{n.Vertices[0], n.Vertices[len(n.Vertices)/2], n.Vertices[len(n.Vertices)-1]} {
		if int(probe) >= len(old.nodeOf) {
			continue
		}
		if c := old.nodeOf[probe]; c != nil && c.Core == n.Core {
			on = c
			break
		}
	}
	if on == nil {
		return false
	}
	removed, arrived := minusSorted(on.Vertices, n.Vertices), minusSorted(n.Vertices, on.Vertices)
	if d := len(removed) + len(arrived); d == 0 || d > len(n.Vertices)/8+8 {
		return false // identical is adoption's job; big diffs refill faster
	}
	editLists(g, on, n, removed, arrived)
	return true
}

// adoptInverted tries to adopt the inverted list of old's node covering the
// same vertex set as n (identified through old's nodeOf by n's first vertex;
// components are disjoint, so one probe suffices). The list is shared,
// never copied: lists are immutable once published.
func adoptInverted(old *Tree, n *Node) bool {
	if old == nil || len(n.Vertices) == 0 {
		return false
	}
	probe := n.Vertices[0]
	if int(probe) >= len(old.nodeOf) {
		return false // vertex newer than the reused tree
	}
	on := old.nodeOf[probe]
	if on == nil || on.Core != n.Core || !slices.Equal(on.Vertices, n.Vertices) {
		return false
	}
	n.inv.Store(on.inv.Load())
	return true
}

// invFiller builds per-node inverted lists with a keyword counting sort:
// two passes over the node's keyword pairs plus a sort of the distinct
// keywords only. Node vertices are ascending, so placing pairs in vertex
// order yields the exact (kw, v) order a comparison sort would — at O(total
// + distinct·log distinct) instead of O(total·log total), which is what
// makes rebuilding a multi-thousand-vertex node's list affordable on the
// mutation path. The counts array (vocab-sized, touched entries re-zeroed
// after each node) is shared across one build.
type invFiller struct {
	counts  []int32
	touched []int32
}

func newInvFiller(vocabLen int) *invFiller {
	return &invFiller{counts: make([]int32, vocabLen)}
}

// lists returns the inverted list of the ascending vertices vs, nil when
// they carry no keywords.
func (f *invFiller) lists(g *graph.Graph, vs []int32) *invLists {
	total := 0
	f.touched = f.touched[:0]
	for _, v := range vs {
		kws := g.Keywords(v)
		total += len(kws)
		for _, w := range kws {
			if f.counts[w] == 0 {
				f.touched = append(f.touched, w)
			}
			f.counts[w]++
		}
	}
	if total == 0 {
		return nil
	}
	slices.Sort(f.touched)
	l := &invLists{kw: make([]int32, total), v: make([]int32, total)}
	// Prefix-sum the touched keywords into placement cursors (stored back
	// into counts), writing the keyword runs as we go.
	off := int32(0)
	for _, w := range f.touched {
		c := f.counts[w]
		for i := off; i < off+c; i++ {
			l.kw[i] = w
		}
		f.counts[w] = off
		off += c
	}
	for _, v := range vs {
		for _, w := range g.Keywords(v) {
			l.v[f.counts[w]] = v
			f.counts[w]++
		}
	}
	for _, w := range f.touched {
		f.counts[w] = 0
	}
	return l
}

// VerticesWithKeyword returns the node-local vertices carrying keyword w
// (ascending). The slice aliases index storage.
func (n *Node) VerticesWithKeyword(w int32) []int32 {
	l := n.lists()
	if l == nil {
		return nil
	}
	lo := sort.Search(len(l.kw), func(i int) bool { return l.kw[i] >= w })
	hi := sort.Search(len(l.kw), func(i int) bool { return l.kw[i] > w })
	return l.v[lo:hi]
}
