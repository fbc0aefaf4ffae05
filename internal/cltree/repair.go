package cltree

import (
	"cmp"
	"slices"

	"cexplorer/internal/graph"
)

// Localized CL-tree maintenance under streaming mutations.
//
// The tree's shape is a function of two things only: the per-vertex core
// numbers and the component structure of each k-core H_k. A mutation batch
// moves some vertices between levels (the kcore Maintainer's change lists),
// adds some vertices, and inserts and deletes some edges. When no component
// of any H_k merged, split, appeared or vanished, the new tree is the old
// one with those vertices moved: each leaves its old node and joins the node
// of its new level in the same component. Repair proves that locally, per
// level k a vertex enters or leaves, writing S_k for the vertices in H_k
// both before and after the batch (the stayers):
//
//   - Arrivals. Vertices entering H_k are grouped into clusters joined by
//     arrival–arrival edges. The stayers adjacent to one cluster must all
//     share one old anchor at level k: the cluster then joins exactly that
//     old component. A cluster with no stayer neighbour is a new component.
//   - Inserted edges between stayers of H_k must join endpoints that already
//     shared an anchor at level k. Checked at the deepest level both
//     endpoints stay in, it covers every level below (k-cores nest).
//   - Departures. Vertices leaving H_k are grouped into clusters joined by
//     old departure–departure edges. The stayers an old edge joins to one
//     cluster must stay connected in the new H_k; a cluster with no such
//     stayer was a whole component, which vanishes. Likewise the endpoints
//     of a deleted edge that both stay.
//
// Any old path inside one component can be rerouted along those witness
// paths, and any new path between stayers crosses only clusters and edges
// whose endpoints share an old component, so the components of the new H_k
// correspond one to one with the old ones through their stayers. The
// connectivity checks use connected's triangle shortcut and its
// smaller-frontier bidirectional BFS, so a batch that moves a few vertices
// reads their neighbourhoods and the witness paths, never the whole graph.
//
// With the correspondence proven, each moved or added vertex lands in the
// node of its new level in its component, found through the old tree's
// anchors. The node skeleton is cloned (fresh structs, so the old tree's
// Parent pointers are never touched); each touched node's vertex list is
// spliced once with the batch's whole departed and arrived sets, and its
// inverted list edited by their keyword pairs (editLists); every other node
// shares its lists with the old tree. A failed proof, a node that would be
// created or emptied, or a level with no node to land in falls back to a
// from-scratch build that still adopts or edits the inverted lists of nodes
// whose vertex sets barely changed.

// EdgeOp records one applied edge mutation for Repair's locality analysis.
type EdgeOp struct {
	U, V   int32
	Insert bool // true for an insertion, false for a deletion
}

// Outcome says how Repair produced its tree; the values are the mutation
// response's treeRepair strings.
type Outcome string

const (
	// Shared: no vertex moved and no component changed; the new tree shares
	// every node of the old one.
	Shared Outcome = "shared"
	// Repaired: vertices moved between existing nodes of an unchanged
	// skeleton, edited in place.
	Repaired Outcome = "repaired"
	// Rebuilt: the local proof failed and the tree was built from scratch.
	Rebuilt Outcome = "rebuilt"
)

// Repair produces a tree valid for g — the post-mutation graph — given old
// (the tree of the pre-mutation graph), the maintained core numbers of g
// (adopted, not copied), the vertices whose core number the batch may have
// moved (the union of the kcore Maintainer's change lists, in any order,
// duplicates allowed) and the batch's edge ops. Vertices g has beyond old's
// graph are the batch's added vertices. Old trees are never modified;
// pinned queries on previous versions are unaffected.
func Repair(old *Tree, g *graph.Graph, core []int32, moved []int32, ops []EdgeOp) (*Tree, Outcome) {
	if old == nil {
		return buildTree(g, core, nil), Rebuilt
	}
	r := repairer{old: old, g: g, core: core}
	t, out, ok := r.run(moved, ops)
	if r.scratch != nil {
		r.scratch.Release()
	}
	if !ok {
		return buildTree(g, core, old), Rebuilt
	}
	return t, out
}

// repairer holds one local repair's inputs and its work counter.
type repairer struct {
	old  *Tree
	g    *graph.Graph
	core []int32 // core numbers of g
	// scanned counts the adjacency lists the repair read: the work the
	// locality argument bounds.
	scanned int
	scratch *graph.Scratch // see scratchSpace
}

// oldCore is v's core number before the batch, -1 for a vertex it added.
func (r *repairer) oldCore(v int32) int32 {
	if int(v) < len(r.old.nodeOf) {
		return r.old.nodeOf[v].Core
	}
	return -1
}

// arrives, departs and stays classify x against H_k before and after the
// batch.
func (r *repairer) arrives(x, k int32) bool { return r.oldCore(x) < k && k <= r.core[x] }
func (r *repairer) departs(x, k int32) bool { return r.core[x] < k && k <= r.oldCore(x) }
func (r *repairer) stays(x, k int32) bool   { return r.oldCore(x) >= k && r.core[x] >= k }

// nodeEdit is one touched node's share of the batch, both lists ascending.
type nodeEdit struct {
	departed, arrived []int32
}

// run attempts the local repair; ok is false when the proof fails or the
// skeleton would change, and the caller rebuilds.
func (r *repairer) run(moved []int32, ops []EdgeOp) (t *Tree, out Outcome, ok bool) {
	old, core := r.old, r.core
	for _, op := range ops {
		a := min(r.oldCore(op.U), r.oldCore(op.V), core[op.U], core[op.V])
		if a < 1 {
			continue // an endpoint enters or leaves every level the edge reaches
		}
		if op.Insert {
			if au := old.Anchor(op.U, a); au == nil || au != old.Anchor(op.V, a) {
				return nil, "", false
			}
		} else if !r.connected(a, op.U, op.V) {
			return nil, "", false
		}
	}

	// The vertices that change level, ascending: every vertex the batch
	// added, and every listed vertex whose core number ended elsewhere.
	vs := slices.Clone(moved)
	for v := len(old.nodeOf); v < r.g.N(); v++ {
		vs = append(vs, int32(v))
	}
	slices.Sort(vs)
	vs = slices.Compact(vs)
	vs = slices.DeleteFunc(vs, func(v int32) bool { return r.oldCore(v) == core[v] })
	if len(vs) == 0 {
		return &Tree{g: r.g, root: old.root, nodeOf: old.nodeOf, core: core, nodes: old.nodes}, Shared, true
	}

	// Each level a vertex enters or leaves, with its arrivals and departures.
	var top int32
	for _, v := range vs {
		top = max(top, r.oldCore(v), core[v])
	}
	arrivals := make([][]int32, top+1)
	departures := make([][]int32, top+1)
	for _, v := range vs {
		for k := max(r.oldCore(v)+1, 1); k <= core[v]; k++ {
			arrivals[k] = append(arrivals[k], v)
		}
		for k := core[v] + 1; k <= r.oldCore(v); k++ {
			departures[k] = append(departures[k], v)
		}
	}
	dest := make(map[int32]*Node, len(vs)) // arriving vertex -> the old node it joins
	seen := make(map[int32]int32)          // vertex -> last level whose clusters took it
	for k := int32(1); k <= top; k++ {
		if !r.attachArrivals(k, arrivals[k], dest, seen) || !r.departuresStayConnected(k, departures[k], seen) {
			return nil, "", false
		}
	}

	// Every vertex leaves its old node and joins the node of its new level.
	edits := make(map[*Node]*nodeEdit)
	edit := func(n *Node) *nodeEdit {
		e := edits[n]
		if e == nil {
			e = &nodeEdit{}
			edits[n] = e
		}
		return e
	}
	var pairs [][2]*Node // distinct (from, to) node pairs, for the memo below
	for _, v := range vs {
		var to *Node
		switch c := core[v]; {
		case c == 0:
			to = old.root
		case c > r.oldCore(v):
			to = dest[v] // set by attachArrivals at level c
		default:
			// A demoted vertex stays in H_c, in its old component there.
			to = old.Anchor(v, c)
		}
		if to == nil || to.Core != core[v] {
			return nil, "", false // no node at this level in the component: one would be created
		}
		var from *Node
		if int(v) < len(old.nodeOf) {
			from = old.nodeOf[v]
			e := edit(from)
			e.departed = append(e.departed, v)
		}
		e := edit(to)
		e.arrived = append(e.arrived, v)
		if p := [2]*Node{from, to}; !slices.Contains(pairs, p) {
			pairs = append(pairs, p)
		}
	}
	for n, e := range edits {
		if n != old.root && len(n.Vertices)-len(e.departed)+len(e.arrived) == 0 {
			return nil, "", false // the node would empty
		}
	}
	return r.clone(edits, subtreesChanged(pairs)), Repaired, true
}

// attachArrivals clusters the vertices entering H_k and checks each cluster
// joins exactly one old component of H_k, recording for the vertices whose
// new core is k the old node they join.
func (r *repairer) attachArrivals(k int32, arrivals []int32, dest map[int32]*Node, seen map[int32]int32) bool {
	var cluster []int32
	for _, s := range arrivals {
		if seen[s] == k {
			continue
		}
		seen[s] = k
		cluster = append(cluster[:0], s)
		var anchor *Node
		for i := 0; i < len(cluster); i++ {
			r.scanned++
			for _, x := range r.g.Neighbors(cluster[i]) {
				switch {
				case r.arrives(x, k):
					if seen[x] != k {
						seen[x] = k
						cluster = append(cluster, x)
					}
				case r.stays(x, k):
					a := r.old.Anchor(x, k)
					if anchor == nil {
						anchor = a
					} else if a != anchor {
						return false // the cluster merges two components
					}
				}
			}
		}
		if anchor == nil {
			return false // the cluster is a new component
		}
		for _, v := range cluster {
			if r.core[v] == k {
				dest[v] = anchor
			}
		}
	}
	return true
}

// departuresStayConnected clusters the vertices leaving H_k over old edges
// and checks the stayers each cluster touched are still connected in the
// new H_k.
func (r *repairer) departuresStayConnected(k int32, departures []int32, seen map[int32]int32) bool {
	var cluster, witnesses []int32
	for _, s := range departures {
		if seen[s] == k {
			continue
		}
		seen[s] = k
		cluster = append(cluster[:0], s)
		witnesses = witnesses[:0]
		for i := 0; i < len(cluster); i++ {
			r.scanned++
			for _, x := range r.old.g.Neighbors(cluster[i]) {
				switch {
				case r.departs(x, k):
					if seen[x] != k {
						seen[x] = k
						cluster = append(cluster, x)
					}
				case r.stays(x, k):
					witnesses = append(witnesses, x)
				}
			}
		}
		if len(witnesses) == 0 {
			return false // the cluster was a whole component of H_k
		}
		slices.Sort(witnesses)
		if !r.allConnected(k, slices.Compact(witnesses)) {
			return false
		}
	}
	return true
}

// allConnected reports whether the distinct vertices ws, all in the new
// H_k, are connected in it. One sweep over their neighbourhoods joins the
// ones adjacent or sharing a neighbour (a departed vertex's neighbours
// mostly are); a BFS (connected) joins each group left over.
func (r *repairer) allConnected(k int32, ws []int32) bool {
	if len(ws) < 2 {
		return true
	}
	sc := r.scratchSpace()
	group := make([]int32, len(ws)) // union-find over indices into ws
	for i := range group {
		group[i] = int32(i)
	}
	find := func(i int32) int32 {
		for group[i] != i {
			group[i] = group[group[i]]
			i = group[i]
		}
		return i
	}
	// claimed vertices: sc.Val holds the index of the witness that reached
	// each first.
	claimed := &sc.Aux
	claimed.Reset(r.g.N())
	for i, w := range ws {
		claimed.Add(w)
		sc.Val[w] = int32(i)
	}
	for i, w := range ws {
		r.scanned++
		for _, x := range r.g.Neighbors(w) {
			switch {
			case r.core[x] < k:
			case claimed.Has(x):
				group[find(int32(i))] = find(sc.Val[x])
			default:
				claimed.Add(x)
				sc.Val[x] = int32(i)
			}
		}
	}
	for i := range ws {
		if find(int32(i)) != find(0) {
			if !r.connected(k, ws[0], ws[i]) {
				return false
			}
			group[find(int32(i))] = find(0)
		}
	}
	return true
}

// subtreesChanged returns the old nodes whose subtree vertex set the moves
// change: on each move's path from its source and from its destination up
// to (not including) their lowest common ancestor. An added vertex, with no
// source, changes every subtree above its destination.
func subtreesChanged(pairs [][2]*Node) map[*Node]bool {
	changed := make(map[*Node]bool)
	for _, p := range pairs {
		from, to := p[0], p[1]
		onFrom := make(map[*Node]bool)
		for n := from; n != nil; n = n.Parent {
			onFrom[n] = true
		}
		var lca *Node
		for n := to; n != nil; n = n.Parent {
			if onFrom[n] {
				lca = n
				break
			}
			changed[n] = true
		}
		for n := from; n != lca; n = n.Parent {
			changed[n] = true
		}
	}
	return changed
}

// clone copies the old tree's node skeleton, applying each touched node's
// edit: its vertex list is spliced with the departed and arrived vertices,
// and its inverted list edited by their pairs (see editLists). Untouched
// nodes share their arenas with the old tree, and nodes whose subtree
// vertex set is unchanged keep its memo.
func (r *repairer) clone(edits map[*Node]*nodeEdit, changed map[*Node]bool) *Tree {
	g := r.g
	t := &Tree{g: g, core: r.core, nodeOf: make([]*Node, g.N()), nodes: r.old.nodes}
	var walk func(on *Node) *Node
	walk = func(on *Node) *Node {
		nn := &Node{Core: on.Core, Vertices: on.Vertices}
		if e := edits[on]; e != nil {
			nn.Vertices = spliceSorted(on.Vertices, e.departed, e.arrived)
			editLists(g, on, nn, e.departed, e.arrived)
		} else {
			nn.inv.Store(on.inv.Load())
		}
		if !changed[on] {
			nn.sub.Store(on.sub.Load())
		}
		for _, v := range nn.Vertices {
			t.nodeOf[v] = nn
		}
		if len(on.Children) > 0 {
			nn.Children = make([]*Node, len(on.Children))
			for i, ch := range on.Children {
				c := walk(ch)
				c.Parent = nn
				nn.Children[i] = c
			}
		}
		return nn
	}
	t.root = walk(r.old.root)
	return t
}

// minusSorted returns a ∖ b for ascending slices.
func minusSorted[T cmp.Ordered](a, b []T) []T {
	out := make([]T, 0, len(a))
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// spliceSorted returns the ascending a without del and with add (del ⊆ a,
// add disjoint from a, both ascending), copying a segment by segment
// between binary-searched edit positions.
func spliceSorted(a, del, add []int32) []int32 {
	out := make([]int32, 0, len(a)-len(del)+len(add))
	cur := 0
	for len(del) > 0 || len(add) > 0 {
		var x int32
		if len(del) == 0 || (len(add) > 0 && add[0] < del[0]) {
			x, add = add[0], add[1:]
		} else {
			x, del = del[0], del[1:]
		}
		pos, found := slices.BinarySearch(a[cur:], x)
		out = append(out, a[cur:cur+pos]...)
		cur += pos
		if found {
			cur++ // a departed vertex
		} else {
			out = append(out, x)
		}
	}
	return append(out, a[cur:]...)
}

// mergeSorted merges two disjoint ascending slices.
func mergeSorted[T cmp.Ordered](a, b []T) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i] < b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// scratchSpace returns the new graph's own scratch, taken on first use
// (the version's first reads reuse it once Repair releases it).
func (r *repairer) scratchSpace() *graph.Scratch {
	if r.scratch == nil {
		r.scratch = r.g.AcquireScratch()
	}
	return r.scratch
}

// connected reports whether u and v are connected inside H_k of the new
// graph (the subgraph induced by vertices with core ≥ k), via bidirectional
// BFS: the smaller frontier expands each round, so the walk is bounded by
// the smaller side of any separation rather than the whole component.
func (r *repairer) connected(k, u, v int32) bool {
	g, core := r.g, r.core
	if u == v {
		return true
	}
	if core[u] < k || core[v] < k {
		return false
	}
	// Triangle shortcut: in clustered graphs a removed edge almost always
	// leaves a two-hop path through a common neighbor; one sorted-list
	// intersection answers that without any BFS.
	nu, nv := g.Neighbors(u), g.Neighbors(v)
	r.scanned += 2
	for i, j := 0, 0; i < len(nu) && j < len(nv); {
		switch {
		case nu[i] == nv[j]:
			if core[nu[i]] >= k {
				return true
			}
			i++
			j++
		case nu[i] < nv[j]:
			i++
		default:
			j++
		}
	}
	sc := r.scratchSpace()
	sideU, sideV := &sc.In, &sc.Seen
	sideU.Reset(g.N())
	sideV.Reset(g.N())
	sideU.Add(u)
	sideV.Add(v)
	frontU, frontV := []int32{u}, []int32{v}
	for len(frontU) > 0 && len(frontV) > 0 {
		front, mine, theirs := &frontU, sideU, sideV
		if len(frontV) < len(frontU) {
			front, mine, theirs = &frontV, sideV, sideU
		}
		var next []int32
		for _, w := range *front {
			r.scanned++
			for _, x := range g.Neighbors(w) {
				switch {
				case core[x] < k || mine.Has(x):
				case theirs.Has(x):
					return true
				default:
					mine.Add(x)
					next = append(next, x)
				}
			}
		}
		*front = next
	}
	return false
}
