// Package cluster provides the community-detection substrate CODICIL runs
// on: Louvain modularity optimization over a weighted graph and label
// propagation. CODICIL's original implementation delegates its final
// clustering step to METIS/MLR-MCL; Louvain plays that role here.
package cluster

import "cexplorer/internal/graph"

// Partition maps every vertex to a community label in [0, Count).
type Partition struct {
	Labels []int32
	Count  int
}

// Communities materializes the partition as per-community vertex lists,
// ascending within each community, communities ordered by label.
func (p *Partition) Communities() [][]int32 {
	out := make([][]int32, p.Count)
	for v, l := range p.Labels {
		out[l] = append(out[l], int32(v))
	}
	return out
}

// CommunityOf returns the community of v as a vertex list.
func (p *Partition) CommunityOf(v int32) []int32 {
	want := p.Labels[v]
	var out []int32
	for u, l := range p.Labels {
		if l == want {
			out = append(out, int32(u))
		}
	}
	return out
}

// normalize relabels communities to dense [0,Count) in first-seen order.
func (p *Partition) normalize() {
	remap := make(map[int32]int32)
	for i, l := range p.Labels {
		nl, ok := remap[l]
		if !ok {
			nl = int32(len(remap))
			remap[l] = nl
		}
		p.Labels[i] = nl
	}
	p.Count = len(remap)
}

// Modularity computes Newman–Girvan modularity Q of a partition on g:
// Q = Σ_c (e_c/m − (d_c/2m)²) with e_c intra-community edges and d_c the
// total degree of community c.
func Modularity(g *graph.Graph, p *Partition) float64 {
	m := float64(g.M())
	if m == 0 {
		return 0
	}
	intra := make([]float64, p.Count)
	deg := make([]float64, p.Count)
	for v := int32(0); v < int32(g.N()); v++ {
		deg[p.Labels[v]] += float64(g.Degree(v))
	}
	g.Edges(func(u, v int32) bool {
		if p.Labels[u] == p.Labels[v] {
			intra[p.Labels[u]]++
		}
		return true
	})
	q := 0.0
	for c := 0; c < p.Count; c++ {
		q += intra[c]/m - (deg[c]/(2*m))*(deg[c]/(2*m))
	}
	return q
}
