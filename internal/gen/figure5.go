// Package gen provides the data substrate of the reproduction: the paper's
// Figure-5 worked-example graph, a synthetic DBLP-like attributed
// co-authorship network (standing in for the proprietary DBLP sample the
// demo uses), and standard random-graph models for scaling experiments.
package gen

import "cexplorer/internal/graph"

// Figure5 reconstructs the attributed graph of Figure 5(a) in the paper:
// 10 vertices {A..J}, 11 edges, keyword sets as printed. The structure is
// recovered from the core numbers the figure reports ({A,B,C,D}→3, {E}→2,
// {F,G,H,I}→1, {J}→0) and the CL-tree shape of Figure 5(b): a K4 on
// {A,B,C,D}; E adjacent to C and D; F pendant on E; G pendant on A; an
// isolated edge H–I; and the isolated vertex J.
//
// The ACQ walkthrough on this graph (q=A, k=2, S={w,x,y}) must return the
// subgraph {A,C,D} with shared keywords {x,y}; tests and experiment E1
// assert exactly that.
func Figure5() *graph.Graph {
	b := graph.NewBuilder(10, 11)
	for _, spec := range []struct {
		name string
		kws  []string
	}{
		{"A", []string{"w", "x", "y"}},
		{"B", []string{"x"}},
		{"C", []string{"x", "y"}},
		{"D", []string{"x", "y", "z"}},
		{"E", []string{"y", "z"}},
		{"F", []string{"y"}},
		{"G", []string{"x", "y"}},
		{"H", []string{"y", "z"}},
		{"I", []string{"x"}},
		{"J", []string{"x"}},
	} {
		b.AddVertex(spec.name, spec.kws...)
	}
	for _, e := range [][2]int32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, // K4 on A,B,C,D
		{4, 2}, {4, 3}, // E–C, E–D
		{5, 4}, // F–E
		{6, 0}, // G–A
		{7, 8}, // H–I
	} {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// Figure5VertexID resolves the single-letter vertex names of the figure.
func Figure5VertexID(name string) int32 {
	return int32(name[0] - 'A')
}
