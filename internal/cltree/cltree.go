// Package cltree implements the CL-tree index of the paper (§3.2): the
// nested k-core hierarchy of an attributed graph organized as a tree whose
// nodes carry inverted keyword lists.
//
// Each tree node represents one connected component of the k-core H_k for
// some k and stores the vertices whose core number is exactly k within that
// component; the subtree rooted at a node therefore spells out the entire
// component ("The subtree rooted at each node represents a connected
// component of the k-core"). Following Figure 5(b), the root is the single
// core-0 node holding the isolated vertices, with one child per connected
// component of the 1-core (possibly with deeper cores skipping levels).
//
// The index is built bottom-up with a union-find over vertices in decreasing
// core-number order — O(m·α(n)) time and linear space, matching the paper's
// "the CL-tree can be built in linear space and time cost".
package cltree

import (
	"slices"
	"sort"
	"sync/atomic"

	"cexplorer/internal/ds"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
)

// Node is one CL-tree node. Exported fields are read-only after Build.
type Node struct {
	Core     int32   // the k of the k-core component this node roots
	Vertices []int32 // vertices with core number == Core in this component, ascending
	Children []*Node
	Parent   *Node

	// Inverted keyword list over Vertices: parallel arrays sorted by
	// (keyword, vertex). invOff is unused; lookups binary-search invKw.
	invKw []int32
	invV  []int32

	// sub memoizes SubtreeAscending for large subtrees. A node is shared
	// between tree versions, or cloned with its memo (cloneSubtree), only
	// when its subtree is unchanged, so the memo is valid wherever it is
	// reachable, and it dies with the last version that holds it.
	sub atomic.Pointer[[]int32]
}

// Tree is the CL-tree index over one graph.
type Tree struct {
	g      *graph.Graph
	root   *Node
	nodeOf []*Node
	core   []int32
	nodes  int
}

// Build constructs the CL-tree for g.
func Build(g *graph.Graph) *Tree {
	return buildTree(g, kcore.Decompose(g), nil, -1)
}

// buildTree constructs the CL-tree for g from precomputed core numbers
// (the array is adopted, not copied). When reuse is non-nil, nodes whose
// vertex set is unchanged from the reused tree adopt its inverted keyword
// lists instead of re-sorting them — the repair path's way of rebuilding
// only the lists it can no longer trust. The reused tree must index a graph
// whose per-vertex keyword sets agree with g on every shared vertex (always
// true under mutation batches, which never rewrite existing attributes).
//
// upTo ≥ 0 requests a frontier rebuild: only levels ≤ upTo are recomputed,
// and every maximal reuse subtree rooted strictly deeper is preserved as a
// unit — its node skeleton is cloned (so old-tree Parent pointers are never
// mutated) while its vertex and inverted-list arenas are shared, and the
// union-find never walks an edge whose endpoints both lie deeper than
// upTo. Callers must guarantee no k-core component at any level > upTo
// differs between the reused tree's graph and g (Repair derives that bound
// from the mutation batch). upTo < 0 rebuilds every level.
func buildTree(g *graph.Graph, core []int32, reuse *Tree, upTo int32) *Tree {
	n := g.N()
	maxCore := kcore.Degeneracy(core)
	partial := reuse != nil && upTo >= 0 && upTo < maxCore
	if !partial {
		upTo = maxCore
	}

	// Bucket the vertices this rebuild actually processes by core number.
	buckets := make([][]int32, upTo+1)
	for v := 0; v < n; v++ {
		if c := core[v]; c <= upTo {
			buckets[c] = append(buckets[c], int32(v))
		}
	}

	uf := ds.NewUnionFind(n)
	added := make([]bool, n)
	top := make(map[int32][]*Node) // UF root -> unparented top nodes of that component
	nodeOf := make([]*Node, n)
	t := &Tree{g: g, nodeOf: nodeOf, core: core}

	// Per-level grouping scratch (see the grouping step below).
	var (
		roots     []int32
		groups    [][]int32
		groupMark = make([]int32, n)
		groupPos  = make([]int32, n)
	)

	// repOf maps every vertex deeper than upTo to the union-find
	// representative of its preserved subtree (the first vertex of the
	// subtree's top node), filled during cloning so boundary edges resolve
	// in O(1) instead of climbing the old tree per edge. Deep-deep edges
	// never cross preserved subtrees (two components of H_{upTo+1} are, by
	// definition, not adjacent inside H_{upTo+1}), so uniting each boundary
	// edge with the representative is all the connectivity the skipped
	// levels require.
	var repOf []int32
	preserved := make(map[*Node]bool)
	if partial {
		repOf = make([]int32, len(reuse.nodeOf))
		for _, topNode := range reuse.topsDeeperThan(upTo) {
			clone := t.cloneSubtree(topNode)
			preserved[clone] = true
			rep := clone.Vertices[0]
			top[rep] = []*Node{clone}
			stampReps(repOf, clone, rep)
		}
	}

	for c := upTo; c >= 1; c-- {
		level := buckets[c]
		for _, v := range level {
			added[v] = true
		}
		for _, v := range level {
			for _, u := range g.Neighbors(v) {
				if !added[u] {
					if !partial || core[u] <= upTo {
						continue
					}
					u = repOf[u] // boundary edge into a preserved subtree
				}
				ru, rv := uf.Find(u), uf.Find(v)
				if ru == rv {
					continue
				}
				r, _ := uf.Union(ru, rv)
				other := ru
				if r == ru {
					other = rv
				}
				if tops := top[other]; len(tops) > 0 {
					top[r] = append(top[r], tops...)
					delete(top, other)
				}
			}
		}
		// Group this level's vertices by component, in first-seen order for
		// determinism. groupMark/groupPos are stamped with the level, so
		// grouping costs one Find and two array reads per vertex — no maps.
		roots = roots[:0]
		groups = groups[:0]
		for _, v := range level {
			r := uf.Find(v)
			if groupMark[r] != c {
				groupMark[r] = c
				groupPos[r] = int32(len(groups))
				roots = append(roots, r)
				groups = append(groups, nil)
			}
			groups[groupPos[r]] = append(groups[groupPos[r]], v)
		}
		for i, r := range roots {
			// Level buckets are filled in ascending vertex order, so each
			// group arrives sorted already.
			vs := groups[i]
			node := &Node{Core: c, Vertices: vs, Children: top[r]}
			for _, ch := range node.Children {
				ch.Parent = node
			}
			for _, v := range vs {
				nodeOf[v] = node
			}
			top[r] = []*Node{node}
			t.nodes++
		}
	}

	// Root: the single core-0 node (isolated vertices), children = every
	// remaining component top, ordered by smallest vertex for determinism.
	root := &Node{Core: 0, Vertices: buckets[0]}
	var tops []*Node
	for _, nodes := range top {
		tops = append(tops, nodes...)
	}
	slices.SortFunc(tops, func(a, b *Node) int { return int(minVertex(a)) - int(minVertex(b)) })
	root.Children = tops
	for _, ch := range tops {
		ch.Parent = root
	}
	for _, v := range root.Vertices {
		nodeOf[v] = root
	}
	t.nodes++
	t.root = root

	t.buildInverted(reuse, preserved)
	return t
}

// stampReps records rep as the union-find representative for every vertex
// of a preserved (cloned) subtree.
func stampReps(repOf []int32, n *Node, rep int32) {
	for _, v := range n.Vertices {
		repOf[v] = rep
	}
	for _, ch := range n.Children {
		stampReps(repOf, ch, rep)
	}
}

// topsDeeperThan returns the maximal nodes with Core > upTo: the roots of
// the subtrees a frontier rebuild preserves wholesale. Each is exactly one
// connected component of H_{upTo+1}.
func (t *Tree) topsDeeperThan(upTo int32) []*Node {
	var tops []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Core > upTo {
			tops = append(tops, n)
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t.root)
	return tops
}

// cloneSubtree copies a preserved subtree's node skeleton into t — fresh
// Node structs (so the new tree's Parent/Children pointers never touch the
// old tree, which pinned queries may still be reading) sharing the old
// vertex lists and inverted arenas, which are immutable after build. The
// clone's vertices are pointed at their new nodes in t.nodeOf.
func (t *Tree) cloneSubtree(on *Node) *Node {
	nn := &Node{Core: on.Core, Vertices: on.Vertices, invKw: on.invKw, invV: on.invV}
	nn.sub.Store(on.sub.Load()) // same subtree, same memoized vertex list
	if len(on.Children) > 0 {
		nn.Children = make([]*Node, len(on.Children))
		for i, ch := range on.Children {
			c := t.cloneSubtree(ch)
			c.Parent = nn
			nn.Children[i] = c
		}
	}
	for _, v := range on.Vertices {
		t.nodeOf[v] = nn
	}
	t.nodes++
	return nn
}

func minVertex(n *Node) int32 {
	m := int32(1<<31 - 1)
	if len(n.Vertices) > 0 {
		m = n.Vertices[0]
	}
	for _, ch := range n.Children {
		if cm := minVertex(ch); cm < m {
			m = cm
		}
	}
	return m
}

// buildInverted fills each node's keyword inverted list from the graph —
// adopting the list wholesale when the node's vertex set is unchanged from
// reuse, splicing it when the set changed by a few vertices, and counting-
// sorting from scratch otherwise. Subtrees rooted at a node in skip were
// cloned from a preserved subtree and carry their lists already.
func (t *Tree) buildInverted(reuse *Tree, skip map[*Node]bool) {
	fillScratch := newInvFiller(t.g.Vocab().Len())
	var fill func(n *Node)
	fill = func(n *Node) {
		if skip[n] {
			return
		}
		if !adoptInverted(reuse, n) && !patchInverted(t.g, reuse, n) {
			fillScratch.fill(t.g, n)
		}
		for _, ch := range n.Children {
			fill(ch)
		}
	}
	fill(t.root)
}

// patchInverted derives a node's inverted list from an old node covering
// almost the same vertex set, by splicing out the departed vertices' pairs
// and splicing in the arrivals' — sequential segment copies plus a handful
// of binary searches, instead of re-scattering tens of thousands of pairs.
// It applies when a level gains or loses a few vertices (the shape every
// core promotion/demotion produces) and reports false otherwise.
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
	removed, arrived := diffSorted(on.Vertices, n.Vertices)
	if d := len(removed) + len(arrived); d == 0 || d > len(n.Vertices)/8+8 {
		return false // identical is adoption's job; big diffs refill faster
	}
	invKw, invV, ok := spliceLists(g, on, removed, arrived)
	if !ok {
		return false
	}
	n.invKw, n.invV = invKw, invV
	return true
}

// spliceLists derives new inverted lists from on's by deleting the removed
// vertices' pairs and inserting the arrived vertices' — an edit script of
// binary-searched positions applied with sequential segment copies. ok is
// false when on's lists disagree with the graph (caller refills instead).
func spliceLists(g *graph.Graph, on *Node, removed, arrived []int32) (outKw, outV []int32, ok bool) {
	type edit struct {
		pos    int
		kw, v  int32
		insert bool
	}
	var edits []edit
	locate := func(kw, v int32) (int, bool) {
		lo, hi := 0, len(on.invKw)
		for lo < hi {
			mid := (lo + hi) / 2
			if on.invKw[mid] < kw || (on.invKw[mid] == kw && on.invV[mid] < v) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo, lo < len(on.invKw) && on.invKw[lo] == kw && on.invV[lo] == v
	}
	for _, v := range removed {
		for _, kw := range g.Keywords(v) {
			pos, found := locate(kw, v)
			if !found {
				return nil, nil, false // old list disagrees with the graph
			}
			edits = append(edits, edit{pos: pos, kw: kw, v: v})
		}
	}
	for _, v := range arrived {
		for _, kw := range g.Keywords(v) {
			pos, found := locate(kw, v)
			if found {
				return nil, nil, false // already present: inconsistent
			}
			edits = append(edits, edit{pos: pos, kw: kw, v: v, insert: true})
		}
	}
	slices.SortStableFunc(edits, func(a, b edit) int {
		if a.pos != b.pos {
			return a.pos - b.pos
		}
		if a.kw != b.kw {
			return int(a.kw - b.kw)
		}
		return int(a.v - b.v)
	})

	total := len(on.invKw)
	for _, e := range edits {
		if e.insert {
			total++
		} else {
			total--
		}
	}
	outKw = make([]int32, 0, total)
	outV = make([]int32, 0, total)
	cur := 0
	for _, e := range edits {
		outKw = append(outKw, on.invKw[cur:e.pos]...)
		outV = append(outV, on.invV[cur:e.pos]...)
		cur = e.pos
		if e.insert {
			outKw = append(outKw, e.kw)
			outV = append(outV, e.v)
		} else {
			cur++ // skip the deleted pair
		}
	}
	outKw = append(outKw, on.invKw[cur:]...)
	outV = append(outV, on.invV[cur:]...)
	return outKw, outV, true
}

// diffSorted returns the elements only in a (removed) and only in b
// (arrived), both inputs ascending.
func diffSorted(a, b []int32) (onlyA, onlyB []int32) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			onlyA = append(onlyA, a[i])
			i++
		default:
			onlyB = append(onlyB, b[j])
			j++
		}
	}
	onlyA = append(onlyA, a[i:]...)
	onlyB = append(onlyB, b[j:]...)
	return onlyA, onlyB
}

// adoptInverted tries to adopt the inverted lists of old's node covering the
// same vertex set as n (identified through old's nodeOf by n's first vertex;
// components are disjoint, so one probe suffices). The slices are shared,
// never copied: inverted lists are immutable after build.
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
	n.invKw, n.invV = on.invKw, on.invV
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

func (f *invFiller) fill(g *graph.Graph, n *Node) {
	total := 0
	f.touched = f.touched[:0]
	for _, v := range n.Vertices {
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
		return
	}
	slices.Sort(f.touched)
	n.invKw = make([]int32, total)
	n.invV = make([]int32, total)
	// Prefix-sum the touched keywords into placement cursors (stored back
	// into counts), writing the invKw runs as we go.
	off := int32(0)
	for _, w := range f.touched {
		c := f.counts[w]
		for i := off; i < off+c; i++ {
			n.invKw[i] = w
		}
		f.counts[w] = off
		off += c
	}
	for _, v := range n.Vertices {
		for _, w := range g.Keywords(v) {
			n.invV[f.counts[w]] = v
			f.counts[w]++
		}
	}
	for _, w := range f.touched {
		f.counts[w] = 0
	}
}

// VerticesWithKeyword returns the node-local vertices carrying keyword w
// (ascending). The slice aliases index storage.
func (n *Node) VerticesWithKeyword(w int32) []int32 {
	lo := sort.Search(len(n.invKw), func(i int) bool { return n.invKw[i] >= w })
	hi := sort.Search(len(n.invKw), func(i int) bool { return n.invKw[i] > w })
	return n.invV[lo:hi]
}

// Graph returns the indexed graph.
func (t *Tree) Graph() *graph.Graph { return t.g }

// Root returns the core-0 root node.
func (t *Tree) Root() *Node { return t.root }

// NodeOf returns the node whose Vertices contain v.
func (t *Tree) NodeOf(v int32) *Node { return t.nodeOf[v] }

// CoreNumbers returns the core-number array computed during Build. Callers
// must not modify it.
func (t *Tree) CoreNumbers() []int32 { return t.core }

// NumNodes returns the number of tree nodes.
func (t *Tree) NumNodes() int { return t.nodes }

// Depth returns the maximum root-to-leaf depth (root = 1).
func (t *Tree) Depth() int {
	var walk func(n *Node) int
	walk = func(n *Node) int {
		d := 1
		for _, ch := range n.Children {
			if cd := walk(ch) + 1; cd > d {
				d = cd
			}
		}
		return d
	}
	return walk(t.root)
}

// Anchor returns the root of the smallest subtree that spells out the
// connected component of the k-core containing q — the candidate universe of
// every ACQ query ("The CL-tree allows us to locate a specific k-core ...
// efficiently"). It returns nil when core(q) < k.
func (t *Tree) Anchor(q, k int32) *Node {
	if q < 0 || int(q) >= len(t.core) || t.core[q] < k {
		return nil
	}
	n := t.nodeOf[q]
	for n.Parent != nil && n.Parent.Core >= k {
		n = n.Parent
	}
	return n
}

// SubtreeVertices appends all vertices in the subtree rooted at n to dst and
// returns it.
func (t *Tree) SubtreeVertices(n *Node, dst []int32) []int32 {
	var walk func(x *Node)
	walk = func(x *Node) {
		dst = append(dst, x.Vertices...)
		for _, ch := range x.Children {
			walk(ch)
		}
	}
	walk(n)
	return dst
}

// memoMinVertices is the subtree size from which SubtreeAscending keeps its
// result. Smaller subtrees are cheap to order again, and there are many of
// them; the large ones are the few giant-core anchors most queries land on.
// All memoized lists together hold at most one entry per vertex and core
// level, Σ(core(v)+1) ≤ 2m+n — no more than the adjacency arena.
const memoMinVertices = 1024

// SubtreeAscending returns the vertices of the subtree rooted at n in
// ascending order. The slice may be shared with every other caller on this
// node and must not be modified.
func (t *Tree) SubtreeAscending(n *Node) []int32 {
	if p := n.sub.Load(); p != nil {
		return *p
	}
	s := t.g.AcquireScratch()
	defer s.Release()
	s.List = t.SubtreeVertices(n, s.List[:0])
	s.In.Set(len(t.nodeOf), s.List)
	vs := s.In.Ascending(s.List)
	if len(vs) >= memoMinVertices && !n.sub.CompareAndSwap(nil, &vs) {
		return *n.sub.Load() // a concurrent caller published first; share its copy
	}
	return vs
}

// ConnectedKCore returns, ascending, the vertices of the connected
// component of the k-core containing q — the Global community of (q,k) —
// or nil when core(q) < k or k < 0. It is an index lookup: for k ≥ 1 the
// component is the anchor subtree. The slice is read-only like
// SubtreeAscending's.
func (t *Tree) ConnectedKCore(q, k int32) []int32 {
	if q < 0 || int(q) >= len(t.core) || k < 0 || t.core[q] < k {
		return nil
	}
	if k == 0 {
		// The 0-core is the whole graph and the root's subtree is all of
		// it, connected or not: q's component is q alone when isolated,
		// else its connected 1-core.
		if t.core[q] == 0 {
			return []int32{q}
		}
		k = 1
	}
	return t.SubtreeAscending(t.Anchor(q, k))
}

// SubtreeKeywordVertices appends the subtree vertices carrying keyword w to
// dst (unsorted across nodes) and returns it.
func (t *Tree) SubtreeKeywordVertices(n *Node, w int32, dst []int32) []int32 {
	var walk func(x *Node)
	walk = func(x *Node) {
		dst = append(dst, x.VerticesWithKeyword(w)...)
		for _, ch := range x.Children {
			walk(ch)
		}
	}
	walk(n)
	return dst
}

// Bytes estimates the retained index size in bytes (E6's "linear space"
// measurement).
func (t *Tree) Bytes() int64 {
	var b int64
	b += int64(len(t.nodeOf)) * 8
	b += int64(len(t.core)) * 4
	var walk func(n *Node)
	walk = func(n *Node) {
		b += 64 // struct overhead
		b += int64(len(n.Vertices)) * 4
		b += int64(len(n.invKw)) * 8
		b += int64(len(n.Children)) * 8
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(t.root)
	return b
}

// Validate checks the structural invariants of the index against its graph;
// tests and the upload path use it. It verifies that (1) node vertex sets
// partition V, (2) every node's vertices have core number == node.Core,
// (3) children have strictly larger core numbers, (4) each node's subtree is
// exactly the connected component in H_{node.Core} of any of its vertices
// (checked for non-root nodes), and (5) inverted lists agree with the graph.
func (t *Tree) Validate() error {
	return t.validate()
}
