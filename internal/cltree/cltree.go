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

	// inv is the inverted keyword list over Vertices (see invLists); nil
	// when they carry no keywords.
	inv atomic.Pointer[invLists]

	// sub memoizes SubtreeAscending for large subtrees. A node is shared
	// between tree versions, or cloned with its memo (Repair), only when
	// its subtree's vertex set is unchanged, so the memo is valid wherever
	// it is reachable, and it dies with the last version that holds it.
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
	return buildTree(g, kcore.Decompose(g), nil)
}

// buildTree constructs the CL-tree for g from precomputed core numbers
// (the array is adopted, not copied). When reuse is non-nil, nodes whose
// vertex set is unchanged from the reused tree adopt its inverted keyword
// lists instead of re-sorting them, and nodes whose set changed by a few
// vertices edit them (editLists) — Repair's fallback rebuilds only the
// lists it can no longer trust. The reused tree must index a graph whose per-vertex
// keyword sets agree with g on every shared vertex (always true under
// mutation batches, which never rewrite existing attributes).
func buildTree(g *graph.Graph, core []int32, reuse *Tree) *Tree {
	n := g.N()
	maxCore := kcore.Degeneracy(core)

	buckets := make([][]int32, maxCore+1)
	for v := 0; v < n; v++ {
		c := core[v]
		buckets[c] = append(buckets[c], int32(v))
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

	for c := maxCore; c >= 1; c-- {
		level := buckets[c]
		for _, v := range level {
			added[v] = true
		}
		for _, v := range level {
			for _, u := range g.Neighbors(v) {
				if !added[u] {
					continue
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

	t.buildInverted(reuse)
	return t
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
		b += int64(n.inv.Load().size()) * 8
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
