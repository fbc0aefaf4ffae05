package cltree

import (
	"slices"

	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
)

// BuildBasic constructs the CL-tree top-down, the way the ACQ paper's
// "basic" method does: for every level k it recomputes the connected
// components of the k-core H_k and attaches each component under the
// enclosing component of H_{k'<k}. This is O(k_max·(n+m)) — quadratic-ish
// on deep-core graphs — and exists as the construction oracle for the
// bottom-up union-find Build (they must produce identical trees) and as the
// index-construction ablation baseline.
func BuildBasic(g *graph.Graph) *Tree {
	n := g.N()
	core := kcore.Decompose(g)
	maxCore := kcore.Degeneracy(core)

	t := &Tree{g: g, nodeOf: make([]*Node, n), core: core}

	// Root: core-0 node with all isolated vertices (Figure 5(b) convention).
	root := &Node{Core: 0}
	for v := 0; v < n; v++ {
		if core[v] == 0 {
			root.Vertices = append(root.Vertices, int32(v))
			t.nodeOf[v] = root
		}
	}
	t.root = root
	t.nodes = 1

	// enclosing[v] = deepest node built so far whose subtree owns v.
	enclosing := make([]*Node, n)
	for v := 0; v < n; v++ {
		enclosing[v] = root
	}

	visited := make([]bool, n)
	for k := int32(1); k <= maxCore; k++ {
		for i := range visited {
			visited[i] = false
		}
		for s := int32(0); s < int32(n); s++ {
			if visited[s] || core[s] < k {
				continue
			}
			// BFS one component of H_k.
			comp := []int32{s}
			visited[s] = true
			for head := 0; head < len(comp); head++ {
				for _, u := range g.Neighbors(comp[head]) {
					if !visited[u] && core[u] >= k {
						visited[u] = true
						comp = append(comp, u)
					}
				}
			}
			node := &Node{Core: k}
			for _, v := range comp {
				if core[v] == k {
					node.Vertices = append(node.Vertices, v)
					t.nodeOf[v] = node
				}
			}
			if len(node.Vertices) == 0 {
				// No vertex peels at exactly this level in this component:
				// the hierarchy skips the level (matching Build, where no
				// union group forms). Deeper components keep attaching to
				// the current enclosing node.
				continue
			}
			slices.Sort(node.Vertices)
			parent := enclosing[comp[0]]
			node.Parent = parent
			parent.Children = append(parent.Children, node)
			for _, v := range comp {
				enclosing[v] = node
			}
			t.nodes++
		}
	}

	// Normalize child order (Build's order is union-driven): sort every
	// node's children by the smallest vertex in their subtree so the two
	// construction paths serialize identically.
	var canon func(nd *Node) int32
	canon = func(nd *Node) int32 {
		m := int32(1<<31 - 1)
		if len(nd.Vertices) > 0 {
			m = nd.Vertices[0]
		}
		for _, ch := range nd.Children {
			if cm := canon(ch); cm < m {
				m = cm
			}
		}
		slices.SortFunc(nd.Children, func(a, b *Node) int { return int(minVertex(a)) - int(minVertex(b)) })
		return m
	}
	canon(root)

	t.buildInverted(nil)
	return t
}
