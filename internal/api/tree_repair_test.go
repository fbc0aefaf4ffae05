package api

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cexplorer/internal/cltree"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
)

// sameTree reports the first difference between got and want in O(n): node
// by node the same core, vertices, parent and, with lists, inverted lists,
// and the same ascending subtree (which a repaired node may carry memoized
// from the version before). Only the order of children may differ.
func sameTree(g *graph.Graph, got, want *cltree.Tree, lists bool) error {
	if got.NumNodes() != want.NumNodes() {
		return fmt.Errorf("%d nodes, rebuild has %d", got.NumNodes(), want.NumNodes())
	}
	// counterpart maps a got node to the want node holding its first vertex;
	// vertex sets partition V, so equal sets make the map a bijection.
	counterpart := func(n *cltree.Node) *cltree.Node {
		if n == got.Root() {
			return want.Root()
		}
		return want.NodeOf(n.Vertices[0])
	}
	var kws []int32
	var walk func(n *cltree.Node) error
	walk = func(n *cltree.Node) error {
		w := counterpart(n)
		switch {
		case n.Core != w.Core || !slices.Equal(n.Vertices, w.Vertices):
			return fmt.Errorf("node at core %d with %d vertices, rebuild has core %d with %d", n.Core, len(n.Vertices), w.Core, len(w.Vertices))
		case n.Parent != nil && counterpart(n.Parent) != w.Parent:
			return fmt.Errorf("node at core %d (first vertex %d) hangs under another parent", n.Core, n.Vertices[0])
		case !slices.Equal(got.SubtreeAscending(n), want.SubtreeAscending(w)):
			return fmt.Errorf("node at core %d (first vertex %d): subtrees differ", n.Core, n.Vertices[0])
		}
		kws = kws[:0]
		for _, v := range n.Vertices {
			kws = append(kws, g.Keywords(v)...)
		}
		slices.Sort(kws)
		for _, kw := range slices.Compact(kws) {
			if lists && !slices.Equal(n.VerticesWithKeyword(kw), w.VerticesWithKeyword(kw)) {
				return fmt.Errorf("node at core %d (first vertex %d): inverted list of keyword %d differs", n.Core, n.Vertices[0], kw)
			}
		}
		for _, ch := range n.Children {
			if err := walk(ch); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(got.Root())
}

// TestRepairedTreeMatchesRebuildOnBenchStreams is the exactness oracle of
// CL-tree repair on the workload it serves: the default DBLP graph (20k
// authors) takes bench-shaped writes, as single ops and as 64-op batches,
// and after every write the repaired tree must equal a from-scratch Build
// of the successor node for node. The from-scratch fallback may run on at
// most 2% of writes: the rest are shared or edited in place.
func TestRepairedTreeMatchesRebuildOnBenchStreams(t *testing.T) {
	d := gen.GenerateDBLP(gen.DefaultDBLPConfig())
	ds := NewDataset("dblp", d.Graph)
	ds.CoreNumbers()
	ds.Tree()
	s := &benchStream{d: d, rng: rand.New(rand.NewSource(5)), cur: ds}
	const writes = 96
	outcomes := map[string]int{}
	for b := 0; b < writes; b++ {
		n := 1
		if b%8 == 7 {
			n = 64
		}
		next, res, err := s.cur.Mutate(context.Background(), s.batch(n))
		if err != nil {
			t.Fatalf("write %d: %v", b, err)
		}
		outcomes[res.TreeRepair]++
		// Reading a list splices the edits pending on it: every third write
		// leaves its lists unread, so edits compose across versions.
		if err := sameTree(next.Graph, next.Tree(), cltree.Build(next.Graph), b%3 == 2); err != nil {
			t.Fatalf("write %d (%d ops, %s): %v", b, n, res.TreeRepair, err)
		}
		s.cur = next
	}
	t.Logf("%d writes: %v", writes, outcomes)
	if outcomes["repaired"] == 0 {
		t.Errorf("no write was repaired in place: %v", outcomes)
	}
	if rebuilt := outcomes["rebuilt"]; rebuilt*50 > writes {
		t.Errorf("%d of %d writes fell back to a rebuild, want ≤ 2%%", rebuilt, writes)
	}
}
