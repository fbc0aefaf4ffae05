package graph

// Whole-graph and per-community traversals. The query kernels' own walks run
// on a Scratch (scratch.go).

// ConnectedComponents labels every vertex with a component ID in [0, count)
// and returns the labels and the component count.
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	n := int32(g.N())
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	for s := int32(0); s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = int32(count)
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if labels[u] == -1 {
					labels[u] = int32(count)
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return labels, count
}

// Diameter returns the exact diameter of the subgraph induced by vertices
// (must be connected), via BFS from every member. Intended for communities
// (tens to hundreds of vertices), not whole graphs.
func (g *Graph) Diameter(vertices []int32) int {
	s := g.AcquireScratch()
	defer s.Release()
	member, dist := &s.In, s.Val
	member.Set(g.N(), vertices)
	diam := int32(0)
	for _, src := range vertices {
		s.Seen.Reset(g.N())
		s.Seen.Add(src)
		dist[src] = 0
		queue := append(s.Queue[:0], src)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, u := range g.Neighbors(v) {
				if member.Has(u) && !s.Seen.Has(u) {
					s.Seen.Add(u)
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		// Breadth-first order: the last vertex reached is a farthest one.
		diam = max(diam, dist[queue[len(queue)-1]])
		s.Queue = queue
	}
	return int(diam)
}
