package ktruss

import "cexplorer/internal/graph"

// Naive computes trussness by definition — for each k, repeatedly delete
// edges closing fewer than k−2 triangles until fixpoint; an edge's
// trussness is the largest k at which it survives — returning the values
// indexed by canonical edge ID. O(m²)-ish worst case; it exists as the
// oracle for property tests and the dynamic-graph equivalence harness,
// mirroring kcore.NaiveDecompose.
func Naive(g *graph.Graph) []int32 {
	edges := g.EdgeTable()
	truss := make([]int32, len(edges))
	alive := make([]bool, len(edges))
	remaining := len(edges)
	for i := range alive {
		alive[i] = true
	}
	for k := int32(2); remaining > 0; k++ {
		// Mark survivors at this k, then peel for k+1: an edge survives at
		// k+1 only with ≥ (k+1)−2 triangles among surviving edges.
		for id, a := range alive {
			if a {
				truss[id] = k
			}
		}
		for changed := true; changed; {
			changed = false
			for id, a := range alive {
				if !a {
					continue
				}
				u, v := edges[id][0], edges[id][1]
				idsU, idsV := g.EdgeIDs(u), g.EdgeIDs(v)
				cnt := int32(0)
				forEachCommon(g.Neighbors(u), g.Neighbors(v), func(_ int32, i, j int) {
					if alive[idsU[i]] && alive[idsV[j]] {
						cnt++
					}
				})
				if cnt < k-1 {
					alive[id] = false
					remaining--
					changed = true
				}
			}
		}
	}
	return truss
}
