package ktruss

import (
	"fmt"

	"cexplorer/internal/graph"
)

// Parts returns the decomposition in canonical edge order, the form
// persistence layers serialize: the (u<v) edge table in the order g.Edges
// enumerates, and the parallel trussness array. Both are built per call
// from the per-slot store, reading each edge at its lower endpoint's slot.
func (d *Decomposition) Parts() (edges [][2]int32, truss []int32) {
	m := d.g.M()
	edges = make([][2]int32, 0, m)
	truss = make([]int32, 0, m)
	for u := int32(0); u < int32(d.g.N()); u++ {
		ts := d.Slots(u)
		for i, v := range d.g.Neighbors(u) {
			if v > u {
				edges = append(edges, [2]int32{u, v})
				truss = append(truss, ts[i])
			}
		}
	}
	return edges, truss
}

// FromParts reassembles a Decomposition over g from an edge table and
// trussness array in Parts' form, filling the per-slot store in one cursor
// sweep: g's adjacency lists are sorted, so while u sweeps upward the edges
// {u,v} with u < v reach each v in the order of its list's prefix, and a
// per-vertex cursor places the reverse slot — the same sweep that numbers
// edge IDs (graph.EdgeIDs), with no hashing. The slices are read, not
// adopted. The table must name exactly g's edges in canonical order, so a
// corrupt or mismatched input yields an error rather than a panic; the
// trussness values themselves are trusted, as recomputing them would defeat
// the point of loading.
func FromParts(g *graph.Graph, edges [][2]int32, truss []int32) (*Decomposition, error) {
	m := g.M()
	if len(edges) != m {
		return nil, fmt.Errorf("ktruss parts: %d edges for a graph with m=%d", len(edges), m)
	}
	if len(truss) != m {
		return nil, fmt.Errorf("ktruss parts: %d trussness values for %d edges", len(truss), m)
	}
	d := newDecomposition(g, make([]int32, 2*m))
	cursor := make([]int64, g.N()) // next reverse slot of each vertex
	copy(cursor, d.off)
	id := 0
	for u := int32(0); u < int32(g.N()); u++ {
		for s := d.off[u]; s < d.off[u+1]; s++ {
			v := d.adj[s]
			if v <= u {
				continue
			}
			if e := edges[id]; e[0] != u || e[1] != v {
				return nil, fmt.Errorf("ktruss parts: edge %d is (%d,%d), graph has (%d,%d)", id, e[0], e[1], u, v)
			}
			d.truss[s] = truss[id]
			d.truss[cursor[v]] = truss[id]
			cursor[v]++
			id++
		}
	}
	return d, nil
}
