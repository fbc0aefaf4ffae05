package cltree

import (
	"fmt"
	"slices"

	"cexplorer/internal/kcore"
)

func (t *Tree) validate() error {
	g := t.g
	seen := make([]bool, g.N())
	var nodes []*Node
	var collect func(n *Node)
	collect = func(n *Node) {
		nodes = append(nodes, n)
		for _, ch := range n.Children {
			collect(ch)
		}
	}
	collect(t.root)

	if len(nodes) != t.nodes {
		return fmt.Errorf("cltree: node count %d != recorded %d", len(nodes), t.nodes)
	}

	for _, n := range nodes {
		for i, v := range n.Vertices {
			if seen[v] {
				return fmt.Errorf("cltree: vertex %d in two nodes", v)
			}
			seen[v] = true
			if t.core[v] != n.Core {
				return fmt.Errorf("cltree: vertex %d core %d in node of core %d", v, t.core[v], n.Core)
			}
			if t.nodeOf[v] != n {
				return fmt.Errorf("cltree: nodeOf[%d] mismatch", v)
			}
			if i > 0 && n.Vertices[i-1] >= v {
				return fmt.Errorf("cltree: node vertices not ascending")
			}
		}
		for _, ch := range n.Children {
			if ch.Core <= n.Core {
				return fmt.Errorf("cltree: child core %d <= parent core %d", ch.Core, n.Core)
			}
			if ch.Parent != n {
				return fmt.Errorf("cltree: broken parent pointer")
			}
		}
		// Inverted list agrees with the graph.
		want := 0
		for _, v := range n.Vertices {
			want += len(g.Keywords(v))
		}
		var kw, vs []int32
		if l := n.lists(); l != nil {
			kw, vs = l.kw, l.v
		}
		if len(kw) != want || len(vs) != len(kw) {
			return fmt.Errorf("cltree: inverted list size %d, want %d", len(kw), want)
		}
		for i := range kw {
			if !g.HasKeyword(vs[i], kw[i]) {
				return fmt.Errorf("cltree: inverted entry (%d,%d) not in graph", kw[i], vs[i])
			}
			if i > 0 && (kw[i-1] > kw[i] || (kw[i-1] == kw[i] && vs[i-1] >= vs[i])) {
				return fmt.Errorf("cltree: inverted list not sorted by (kw,v)")
			}
		}
	}
	for v := 0; v < g.N(); v++ {
		if !seen[v] {
			return fmt.Errorf("cltree: vertex %d missing from tree", v)
		}
	}

	// Subtree = connected k-core component, checked against a direct
	// computation for every non-root node.
	for _, n := range nodes {
		if n == t.root {
			continue
		}
		sub := t.SubtreeVertices(n, nil)
		slices.Sort(sub)
		q := n.Vertices[0]
		want := kcore.ConnectedKCore(g, t.core, q, n.Core)
		slices.Sort(want)
		if len(sub) != len(want) {
			return fmt.Errorf("cltree: subtree at core %d size %d != component size %d", n.Core, len(sub), len(want))
		}
		for i := range sub {
			if sub[i] != want[i] {
				return fmt.Errorf("cltree: subtree at core %d differs from k-core component", n.Core)
			}
		}
	}
	return nil
}
