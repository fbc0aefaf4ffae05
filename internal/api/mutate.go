package api

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"cexplorer/internal/cltree"
	"cexplorer/internal/graph"
	"cexplorer/internal/kcore"
	"cexplorer/internal/ktruss"
)

// Streaming mutations. A Dataset is an immutable version of a graph plus
// its indexes; Mutate applies a batch of ops and returns the successor
// version with its indexes maintained incrementally:
//
//   - The graph evolves through a graph.Overlay, so the batch accumulates
//     over the frozen CSR and materializes into a fresh immutable graph
//     sharing every untouched arena.
//   - Core numbers are maintained op by op by a kcore.Maintainer, when the
//     base version holds them; otherwise they stay lazy. Beside the core
//     array each version carries a k-order (kcore.Order: a peel order with
//     deg+(v) ≤ core(v), where deg+ counts neighbours later in it), so an
//     insert re-peels only the few vertices after its earlier endpoint that
//     can rise — the order-based insertion of Zhang, Yu, Zhang & Qin (ICDE
//     2017) — and a removal cascades only through the vertices that fall.
//     Both are copy-on-write per version. The order is never
//     persisted: the first Mutate of a version that lacks it (one opened
//     from a snapshot, or bootstrapped on a replica) builds it once from a
//     peel of the graph (kcore.BuildOrder).
//   - The CL-tree is repaired through cltree.Repair: shared wholesale when
//     no vertex changed level and no k-core component changed; edited in
//     place when the batch only moved vertices between existing nodes (each
//     moved vertex leaves its old node and joins the node of its new level,
//     and the touched nodes' lists are spliced once); rebuilt from scratch,
//     adopting unchanged inverted lists, only when a component merged,
//     split, appeared or vanished.
//   - A borrowed (mmap-backed) base is not repaired: the repaired tree
//     would share nodes whose vertex and inverted-list arenas alias the
//     mapping, outliving it once the base is closed. The successor's tree
//     stays lazy and rebuilds on the heap on first use.
//   - The truss decomposition is maintained op by op by a
//     ktruss.Maintainer, when the base version holds it: an insert or
//     removal moves trussness by at most one, and only on edges
//     triangle-connected to it, with the moved values held in a small
//     edge-keyed delta. At materialization the base's per-slot trussness is
//     carried with the same untouched-span copies as the adjacency and the
//     delta written in. A base without a truss leaves its successor lazy,
//     and the write path never builds one; once a version holds a truss,
//     every later version carries it.
//
// Explorer.Mutate derives each batch under its dataset name's writer lock
// (see Writer) and stores the successor with one map store: the
// copy-on-write step that keeps every in-flight search and exploration
// session on the exact version it started with.

// Mutation op names accepted by Mutate.
const (
	OpAddEdge    = "addEdge"
	OpRemoveEdge = "removeEdge"
	OpAddVertex  = "addVertex"
)

// Mutation is one streaming graph edit.
type Mutation struct {
	// Op is one of addEdge, removeEdge, addVertex.
	Op string `json:"op"`
	// U and V are the edge endpoints (edge ops only).
	U int32 `json:"u,omitempty"`
	V int32 `json:"v,omitempty"`
	// Name and Keywords attribute a new vertex (addVertex only).
	Name     string   `json:"name,omitempty"`
	Keywords []string `json:"keywords,omitempty"`
}

// MutationResult reports one applied batch.
type MutationResult struct {
	Dataset string `json:"dataset"`
	// Version is the successor's version number.
	Version uint64 `json:"version"`
	Applied int    `json:"applied"`
	// Vertices and Edges are the successor graph's sizes.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// CoreChanged counts vertices whose core number moved (0 when core
	// numbers were not resident and maintenance stayed lazy).
	CoreChanged int `json:"coreChanged"`
	// TreeRepair reports how the CL-tree was maintained: "shared" (no
	// vertex changed level and no k-core component changed: every node is
	// the base's), "repaired" (vertices moved between existing nodes, which
	// were edited in place), "rebuilt" (a component merged, split, appeared
	// or vanished: built from scratch, unchanged inverted lists adopted), or
	// "lazy" (the successor's tree rebuilds on first use: the base version
	// held no tree, or held one on a borrowed, mmap-backed graph).
	TreeRepair string `json:"treeRepair"`
	// Coalesced is set by the MutationBatcher: the number of caller
	// submissions that shared this applied batch (0 when unbatched).
	Coalesced int `json:"coalesced,omitempty"`
	// Journaled and Compacted are set by the serving layer, which with a
	// data dir fsyncs the batch's journal record before the successor is
	// published: Journaled is then true on every applied batch (a failed
	// append refuses the batch instead), and Compacted reports the rare
	// batch that also tripped a snapshot-rewrite compaction.
	Journaled bool `json:"journaled"`
	Compacted bool `json:"compacted,omitempty"`
}

// Mutate applies a batch of ops to this version and returns the successor
// Dataset; the receiver is never modified. Ops apply in order and the batch
// is all-or-nothing: the first invalid or conflicting op aborts with a
// typed error (ErrInvalidMutation / ErrMutationConflict) identifying its
// index, and no successor is produced. ctx is polled between ops.
//
// Callers that publish successors concurrently must serialize; the
// Explorer does this per dataset name (see Writer). Calling Mutate directly
// is the embedded use (tests, harnesses): derive, inspect, discard.
func (d *Dataset) Mutate(ctx context.Context, ops []Mutation) (*Dataset, *MutationResult, error) {
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("%w: empty batch", ErrInvalidMutation)
	}
	// The batch reads the base graph (overlay queries, materialization,
	// tree repair) up to the last line; pin mmap-backed bases for the whole
	// derivation.
	unpin, err := d.Pin()
	if err != nil {
		return nil, nil, err
	}
	defer unpin()

	// Core numbers ride along incrementally only when this version already
	// holds them (directly or through its CL-tree); an unindexed dataset
	// stays lazy end to end. One Maintainer (dense epoch-stamped scratch,
	// pooled across batches so steady-state mutation allocates no scratch)
	// serves the whole batch, on private copies of the core array and the
	// k-order that become the successor's.
	var maint *kcore.Maintainer
	if ix := d.Indexes(); ix.Core || ix.CLTree {
		maint = acquireMaintainer(d.maintenanceState())
		defer maintainerPool.Put(maint)
	}

	ov := graph.NewOverlay(d.Graph)
	var truss *ktruss.Maintainer
	if base, ok := d.truss.resident(); ok {
		truss = ktruss.NewMaintainer(base, ov)
	}
	var (
		edgeOps     []cltree.EdgeOp
		coreChanged int
		// moved collects every vertex whose core number an op moved, for
		// cltree.Repair (a vertex moved twice appears twice).
		moved []int32
		added int
	)
	for i, op := range ops {
		if err := ctx.Err(); err != nil {
			return nil, nil, wrapContextErr(err)
		}
		switch op.Op {
		case OpAddEdge:
			if err := ov.AddEdge(op.U, op.V); err != nil {
				return nil, nil, mutationErr(i, op, err)
			}
			if maint != nil {
				ch := maint.InsertEdge(ov, op.U, op.V)
				coreChanged += len(ch)
				moved = append(moved, ch...)
			}
			if truss != nil {
				truss.InsertEdge(op.U, op.V)
			}
			edgeOps = append(edgeOps, cltree.EdgeOp{U: op.U, V: op.V, Insert: true})
		case OpRemoveEdge:
			if err := ov.RemoveEdge(op.U, op.V); err != nil {
				return nil, nil, mutationErr(i, op, err)
			}
			if maint != nil {
				ch := maint.RemoveEdge(ov, op.U, op.V)
				coreChanged += len(ch)
				moved = append(moved, ch...)
			}
			if truss != nil {
				truss.RemoveEdge(op.U, op.V)
			}
			edgeOps = append(edgeOps, cltree.EdgeOp{U: op.U, V: op.V})
		case OpAddVertex:
			ov.AddVertex(op.Name, op.Keywords)
			if maint != nil {
				maint.AddVertex()
			}
			added++
		default:
			return nil, nil, fmt.Errorf("%w: op[%d]: unknown op %q (want %s, %s, or %s)",
				ErrInvalidMutation, i, op.Op, OpAddEdge, OpRemoveEdge, OpAddVertex)
		}
	}

	g, err := ov.Materialize()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrInvalidMutation, err)
	}
	info := d.Info
	// Successors are heap-materialized whatever their base was; they carry
	// no mapping and no Close obligation.
	info.OpenMode = ""
	info.MappedBytes = 0
	next := &Dataset{
		Name:    d.Name,
		Graph:   g,
		Info:    info,
		Version: d.Version + 1,
		lin:     d.lin,
	}
	if names, ok := d.names.resident(); ok && added == 0 {
		// Same names, so whatever was derived from them carries over.
		next.names.seed(names)
	}
	res := &MutationResult{
		Dataset:     d.Name,
		Version:     next.Version,
		Applied:     len(ops),
		Vertices:    g.N(),
		Edges:       g.M(),
		CoreChanged: coreChanged,
		TreeRepair:  "lazy",
	}
	if maint != nil {
		next.core.seed(maint.Core())
		next.order.seed(maint.Order())
	}
	if truss != nil {
		carried, err := truss.Decomposition(g)
		if err != nil {
			return nil, nil, err
		}
		next.truss.seed(carried)
	}
	if tree, ok := d.tree.resident(); ok && maint != nil && !d.Graph.Borrowed() {
		// A borrowed base is not repaired (see the file comment).
		repaired, how := cltree.Repair(tree, g, maint.Core(), moved, edgeOps)
		next.tree.seed(repaired)
		res.TreeRepair = string(how)
	}
	return next, res, nil
}

// maintenanceState returns private copies of this version's core numbers and
// k-order for a Maintainer to turn into the successor's. A version without
// the order — one opened from a snapshot or bootstrapped on a replica, whose
// core numbers arrived without it — builds it here, once.
func (d *Dataset) maintenanceState() ([]int32, *kcore.Order) {
	ord := d.order.get(func() *kcore.Order { _, o := kcore.BuildOrder(d.Graph); return o }, nil)
	core, ok := d.core.resident()
	if !ok {
		core = d.Tree().CoreNumbers()
	}
	return slices.Clone(core), ord.Clone()
}

// maintainerPool recycles kcore.Maintainer scratch (three n-sized arrays)
// across mutation batches; Reset re-targets one at a new core array and
// order without clearing anything.
var maintainerPool sync.Pool

func acquireMaintainer(core []int32, ord *kcore.Order) *kcore.Maintainer {
	if m, ok := maintainerPool.Get().(*kcore.Maintainer); ok {
		m.Reset(core, ord)
		return m
	}
	return kcore.NewMaintainer(core, ord)
}

// mutationErr maps overlay errors onto the typed mutation sentinels,
// tagging the failing op's index.
func mutationErr(i int, op Mutation, err error) error {
	sentinel := ErrInvalidMutation
	if errors.Is(err, graph.ErrEdgeExists) || errors.Is(err, graph.ErrEdgeMissing) {
		sentinel = ErrMutationConflict
	}
	return fmt.Errorf("%w: op[%d] %s: %v", sentinel, i, op.Op, err)
}

// Mutate applies a batch to the named dataset and publishes the successor
// under the name's writer lock. Reads never block: searches in flight keep
// the version they resolved, and later requests see the successor.
func (e *Explorer) Mutate(ctx context.Context, dataset string, ops []Mutation) (*MutationResult, error) {
	w := e.Lock(dataset)
	defer w.Unlock()
	next, res, err := w.Mutate(ctx, ops)
	if err != nil {
		return nil, err
	}
	return res, w.Store(next, nil)
}

// Mutate derives the registered dataset's successor without storing it.
func (w *Writer) Mutate(ctx context.Context, ops []Mutation) (*Dataset, *MutationResult, error) {
	cur, err := w.e.resolve(ctx, "mutate: ", w.name)
	if err != nil {
		return nil, nil, err
	}
	return cur.Mutate(ctx, ops)
}
