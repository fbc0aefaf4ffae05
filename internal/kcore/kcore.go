// Package kcore implements k-core decomposition and extraction, the
// structure-cohesiveness substrate of C-Explorer: the ACQ engine, the
// Global and Local baselines, and the CL-tree index are all defined in terms
// of k-cores (paper §3.2: "the k-core, Hk, is the largest subgraph of the
// graph G, such that for any vertex in Hk, its degree is at least k").
package kcore

import (
	"context"

	"cexplorer/internal/graph"
)

// cancelCheckStride is how many loop iterations the context-aware kernels
// run between ctx.Err() polls: frequent enough that a canceled request stops
// within a few microseconds of work, rare enough that the poll (a mutex-free
// load for the common context kinds) never shows up in profiles.
const cancelCheckStride = 4096

// Decompose computes the core number of every vertex with the
// Batagelj–Zaveršnik bin-sort peeling algorithm in O(n+m) time.
func Decompose(g *graph.Graph) []int32 {
	core, _ := DecomposeContext(context.Background(), g)
	return core
}

// DecomposeContext is Decompose with cooperative cancellation: the peel loop
// polls ctx every few thousand vertices and returns ctx.Err() when the
// request is canceled or past its deadline, so a dropped connection stops
// the O(n+m) walk instead of burning a worker.
func DecomposeContext(ctx context.Context, g *graph.Graph) ([]int32, error) {
	core, _, err := decompose(ctx, g)
	return core, err
}

// DecomposeOrder computes core numbers together with the degeneracy order:
// the order the bin-sort peel removes vertices in (nondecreasing current
// degree). Orienting every edge from the earlier to the later endpoint in
// this order bounds each vertex's out-degree by the graph degeneracy, which
// is what the truss engine's oriented triangle counting relies on for its
// O(m·degeneracy) bound.
func DecomposeOrder(g *graph.Graph) (core, order []int32) {
	core, order, _ = decompose(context.Background(), g)
	return core, order
}

func decompose(ctx context.Context, g *graph.Graph) (core, order []int32, err error) {
	n := g.N()
	core = make([]int32, n)
	if n == 0 {
		return core, nil, nil
	}
	maxDeg := 0
	deg := make([]int32, n)
	for v := 0; v < n; v++ {
		d := g.Degree(int32(v))
		deg[v] = int32(d)
		if d > maxDeg {
			maxDeg = d
		}
	}
	// bin[d] = start offset of degree-d block in vert.
	bin := make([]int32, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		bin[d] += bin[d-1]
	}
	vert := make([]int32, n) // vertices sorted by current degree
	pos := make([]int32, n)  // position of vertex in vert
	next := make([]int32, maxDeg+1)
	copy(next, bin[:maxDeg+1])
	for v := 0; v < n; v++ {
		p := next[deg[v]]
		vert[p] = int32(v)
		pos[v] = p
		next[deg[v]]++
	}

	for i := 0; i < n; i++ {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		v := vert[i]
		core[v] = deg[v]
		for _, u := range g.Neighbors(v) {
			if deg[u] <= deg[v] {
				continue
			}
			// Move u to the front of its degree block, then shrink its degree.
			du := deg[u]
			pu := pos[u]
			pw := bin[du]
			w := vert[pw]
			if u != w {
				vert[pu], vert[pw] = w, u
				pos[u], pos[w] = pw, pu
			}
			bin[du]++
			deg[u]--
		}
	}
	// Position i of vert is final once iteration i takes it, so the array is
	// now exactly the peel (degeneracy) order.
	return core, vert, nil
}

// NaiveDecompose computes core numbers by repeated vertex removal, O(n·m)
// worst case. It exists as the oracle for property tests and as the
// baseline of the core-decomposition ablation bench.
func NaiveDecompose(g *graph.Graph) []int32 {
	n := g.N()
	core := make([]int32, n)
	deg := make([]int32, n)
	removed := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(int32(v)))
	}
	for remaining := n; remaining > 0; {
		// Find the minimum remaining degree.
		minDeg := int32(-1)
		for v := 0; v < n; v++ {
			if !removed[v] && (minDeg == -1 || deg[v] < minDeg) {
				minDeg = deg[v]
			}
		}
		// Remove every vertex at that degree (repeat until none at <= minDeg).
		for {
			again := false
			for v := int32(0); v < int32(n); v++ {
				if removed[v] || deg[v] > minDeg {
					continue
				}
				removed[v] = true
				core[v] = minDeg
				remaining--
				for _, u := range g.Neighbors(v) {
					if !removed[u] {
						deg[u]--
						if deg[u] <= minDeg {
							again = true
						}
					}
				}
			}
			if !again {
				break
			}
		}
	}
	return core
}

// Degeneracy returns the maximum core number (the graph degeneracy).
func Degeneracy(core []int32) int32 {
	var d int32
	for _, c := range core {
		if c > d {
			d = c
		}
	}
	return d
}

// VerticesWithCoreAtLeast returns all vertices with core number ≥ k, in ID
// order. This is the vertex set of the (possibly disconnected) k-core Hk.
func VerticesWithCoreAtLeast(core []int32, k int32) []int32 {
	var out []int32
	for v, c := range core {
		if c >= k {
			out = append(out, int32(v))
		}
	}
	return out
}

// ConnectedKCore returns, ascending, the connected component of q inside
// the k-core of g, or nil when core(q) < k. core may be nil, in which case it
// is computed. This is exactly the Global [Sozio–Gionis] community with
// parameter k as the C-Explorer UI exposes it ("Structure: degree ≥ k").
func ConnectedKCore(g *graph.Graph, core []int32, q int32, k int32) []int32 {
	if core == nil {
		core = Decompose(g)
	}
	if q < 0 || int(q) >= g.N() || core[q] < k {
		return nil
	}
	p := NewPeeler(g.AcquireScratch())
	defer p.s.Release()
	p.s.In.Reset(g.N())
	for v, c := range core {
		if c >= k {
			p.s.In.Add(int32(v))
		}
	}
	return p.s.Seen.Ascending(p.component(q))
}
