package graph

// The per-neighbor edge-ID surface: every adjacency slot of the CSR maps to
// the canonical undirected edge index of the edge it represents. Edge IDs
// are dense in [0, M()) and assigned in the order Edges enumerates —
// (u<v)-lexicographic — which is also the order persistence layers
// (ktruss.Parts, internal/snapshot) serialize per-edge arrays in, so an
// edge-indexed array computed against this surface round-trips bit-for-bit.
//
// The surface is materialized lazily, once per graph, in O(n+m) with no
// hashing: adjacency lists are sorted, so for a fixed v the edges {u,v} with
// u < v arrive in increasing u while u sweeps upward, and a per-vertex
// cursor fills the reverse slots in one pass. Engines that used to resolve
// {u,v} → id through an int64-keyed hash map (the old truss engine) instead
// index this arena directly.

// ensureEdgeIDs materializes the edge-ID arena. Guarded by edgeIDOnce so
// concurrent index builds share one build.
func (g *Graph) ensureEdgeIDs() {
	g.edgeIDOnce.Do(func() {
		eids := make([]int32, len(g.adj))
		cursor := make([]int64, g.N()) // next reverse slot of each vertex
		for v := range cursor {
			cursor[v] = g.offsets[v]
		}
		next := int32(0)
		for u := int32(0); u < int32(g.N()); u++ {
			for s := g.offsets[u]; s < g.offsets[u+1]; s++ {
				v := g.adj[s]
				if v <= u {
					continue
				}
				eids[s] = next
				// v's neighbors < v occupy the sorted prefix of its list, and
				// u sweeps upward, so the reverse slot is just the cursor.
				eids[cursor[v]] = next
				cursor[v]++
				next++
			}
		}
		g.edgeIDs = eids
		g.edgeIDReady.Store(true)
	})
}

// EdgeIDs returns the edge-ID slots of v's adjacency list, parallel to
// Neighbors(v): slot i holds the canonical edge index of {v, Neighbors(v)[i]}.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) EdgeIDs(v int32) []int32 {
	g.ensureEdgeIDs()
	return g.edgeIDs[g.offsets[v]:g.offsets[v+1]]
}

// EdgeTable returns the id-indexed endpoint table: entry e is the (u<v) pair
// of edge e, in the order Edges enumerates. The table is built per call (it
// is a build-time structure, not a query-time one); the edge-ID arena it is
// derived from is materialized once and cached.
func (g *Graph) EdgeTable() [][2]int32 {
	g.ensureEdgeIDs()
	edges := make([][2]int32, g.M())
	for u := int32(0); u < int32(g.N()); u++ {
		for s := g.offsets[u]; s < g.offsets[u+1]; s++ {
			if v := g.adj[s]; v > u {
				edges[g.edgeIDs[s]] = [2]int32{u, v}
			}
		}
	}
	return edges
}
