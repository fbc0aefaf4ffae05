package cltree

import (
	"fmt"

	"cexplorer/internal/graph"
)

// Flat is the pointer-free, arena form of a CL-tree: nodes laid out in
// preorder with their vertex lists and inverted keyword lists concatenated
// into shared arenas. It is the shape internal/snapshot persists — every
// field is one contiguous slice, so serialization is a handful of bulk
// writes and loading is a handful of bulk reads plus pointer stitching,
// with no per-node decode and no re-sort of the inverted lists.
type Flat struct {
	// Per-node arrays, preorder. Parents[i] is the preorder index of node
	// i's parent, -1 for the root (index 0).
	Cores   []int32
	Parents []int32

	// Vertex lists: node i owns Verts[VertOff[i]:VertOff[i+1]].
	VertOff []int32 // len nodes+1
	Verts   []int32 // len n

	// Inverted keyword lists, sorted by (keyword, vertex) within each node:
	// node i owns InvKw/InvV[InvOff[i]:InvOff[i+1]].
	InvOff []int32 // len nodes+1
	InvKw  []int32
	InvV   []int32
}

// Flatten converts the tree to its arena form. The arena slices are fresh
// copies of index data; the result is safe to retain.
func (t *Tree) Flatten() Flat {
	f := Flat{
		Cores:   make([]int32, 0, t.nodes),
		Parents: make([]int32, 0, t.nodes),
		VertOff: make([]int32, 1, t.nodes+1),
		Verts:   make([]int32, 0, t.g.N()),
		InvOff:  make([]int32, 1, t.nodes+1),
	}
	var walk func(n *Node, parent int32)
	walk = func(n *Node, parent int32) {
		f.Cores = append(f.Cores, n.Core)
		f.Parents = append(f.Parents, parent)
		f.Verts = append(f.Verts, n.Vertices...)
		f.VertOff = append(f.VertOff, int32(len(f.Verts)))
		if l := n.lists(); l != nil {
			f.InvKw = append(f.InvKw, l.kw...)
			f.InvV = append(f.InvV, l.v...)
		}
		f.InvOff = append(f.InvOff, int32(len(f.InvKw)))
		self := int32(len(f.Cores) - 1)
		for _, ch := range n.Children {
			walk(ch, self)
		}
	}
	walk(t.root, -1)
	return f
}

// FromFlat reassembles a Tree over g from its arena form, adopting the
// slices without copying (node vertex and inverted lists alias the arenas).
// It checks the structural envelope — preorder parent links, arena spans,
// vertex partition, strictly increasing child cores — so a corrupt input
// yields an error rather than a panic; the full semantic check against the
// graph remains available via Validate.
func FromFlat(g *graph.Graph, f Flat) (*Tree, error) {
	nodes := len(f.Cores)
	if nodes == 0 {
		return nil, fmt.Errorf("cltree flat: no nodes")
	}
	if len(f.Parents) != nodes {
		return nil, fmt.Errorf("cltree flat: %d parents for %d nodes", len(f.Parents), nodes)
	}
	if len(f.VertOff) != nodes+1 || len(f.InvOff) != nodes+1 {
		return nil, fmt.Errorf("cltree flat: offset arrays sized %d/%d, want %d",
			len(f.VertOff), len(f.InvOff), nodes+1)
	}
	n := g.N()
	if len(f.Verts) != n {
		return nil, fmt.Errorf("cltree flat: %d vertices for a graph with n=%d", len(f.Verts), n)
	}
	if f.VertOff[0] != 0 || int(f.VertOff[nodes]) != len(f.Verts) {
		return nil, fmt.Errorf("cltree flat: vertex offsets do not span arena")
	}
	if len(f.InvKw) != len(f.InvV) {
		return nil, fmt.Errorf("cltree flat: inverted arenas disagree (%d keywords, %d vertices)",
			len(f.InvKw), len(f.InvV))
	}
	if f.InvOff[0] != 0 || int(f.InvOff[nodes]) != len(f.InvKw) {
		return nil, fmt.Errorf("cltree flat: inverted offsets do not span arena")
	}
	if f.Parents[0] != -1 {
		return nil, fmt.Errorf("cltree flat: root parent is %d, want -1", f.Parents[0])
	}
	// Full monotonicity pass before any arena slicing: with the endpoints
	// pinned above, monotone offsets are exactly the in-bounds ones. An
	// adjacent check interleaved with slicing would slice a corrupt spike
	// before reaching the pair that exposes it.
	for i := 0; i < nodes; i++ {
		if f.VertOff[i] > f.VertOff[i+1] || f.InvOff[i] > f.InvOff[i+1] {
			return nil, fmt.Errorf("cltree flat: offsets not monotone at node %d", i)
		}
	}

	t := &Tree{
		g:      g,
		nodeOf: make([]*Node, n),
		core:   make([]int32, n),
		nodes:  nodes,
	}
	built := make([]*Node, nodes)
	for i := 0; i < nodes; i++ {
		nd := &Node{Core: f.Cores[i], Vertices: f.Verts[f.VertOff[i]:f.VertOff[i+1]]}
		if lo, hi := f.InvOff[i], f.InvOff[i+1]; hi > lo {
			nd.inv.Store(&invLists{kw: f.InvKw[lo:hi], v: f.InvV[lo:hi], arena: true})
		}
		built[i] = nd
		if i > 0 {
			p := f.Parents[i]
			if p < 0 || p >= int32(i) {
				return nil, fmt.Errorf("cltree flat: node %d has non-preorder parent %d", i, p)
			}
			parent := built[p]
			if nd.Core <= parent.Core {
				return nil, fmt.Errorf("cltree flat: node %d core %d not above parent core %d",
					i, nd.Core, parent.Core)
			}
			nd.Parent = parent
			parent.Children = append(parent.Children, nd)
		}
		for _, v := range nd.Vertices {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("cltree flat: vertex %d out of range", v)
			}
			if t.nodeOf[v] != nil {
				return nil, fmt.Errorf("cltree flat: vertex %d in two nodes", v)
			}
			t.nodeOf[v] = nd
			t.core[v] = nd.Core
		}
	}
	for v := 0; v < n; v++ {
		if t.nodeOf[v] == nil {
			return nil, fmt.Errorf("cltree flat: vertex %d missing from index", v)
		}
	}
	t.root = built[0]
	return t, nil
}
