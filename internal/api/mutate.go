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
)

// Streaming mutations. A Dataset is an immutable version of a graph plus
// its indexes; Mutate applies a batch of ops and returns the successor
// version with its indexes maintained incrementally:
//
//   - The graph evolves through a graph.Overlay, so the batch accumulates
//     over the frozen CSR and materializes into a fresh immutable graph
//     sharing every untouched arena.
//   - Core numbers are maintained op by op with the kcore subcore kernels
//     (only the vertices a mutation can actually move are visited), when
//     the base version holds them; otherwise they stay lazy.
//   - The CL-tree is repaired through cltree.Repair: shared wholesale when
//     the batch provably changed no k-core component, otherwise reskeleted
//     with unchanged inverted lists adopted from the old tree.
//   - The truss decomposition is invalidated (no incremental maintenance
//     yet); it rebuilds lazily on the next k-truss query.
//
// Explorer.Mutate is the serving entry point: it serializes batches per
// dataset lineage and publishes the successor with one map swap, the
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
	// TreeRepair reports how the CL-tree was maintained: "shared" (the
	// structural fast path — no k-core component changed), "rebuilt"
	// (skeleton rebuilt, unchanged inverted lists adopted), or "lazy" (the
	// base version held no tree).
	TreeRepair string `json:"treeRepair"`
	// Coalesced is set by the MutationBatcher: the number of caller
	// submissions that shared this applied batch (0 when unbatched).
	Coalesced int `json:"coalesced,omitempty"`
	// Journaled and Compacted are set by the serving layer after durable
	// logging: the batch's journal record was fsynced, and (rarely) the
	// append tripped a snapshot-rewrite compaction.
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
// Explorer does this per lineage. Calling Mutate directly is the embedded
// use (tests, harnesses): derive, inspect, discard.
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
	// serves the whole batch.
	var maint *kcore.Maintainer
	switch {
	case d.coreReady.Load():
		maint = acquireMaintainer(slices.Clone(d.coreNum))
	case d.treeReady.Load():
		maint = acquireMaintainer(slices.Clone(d.tree.CoreNumbers()))
	}
	if maint != nil {
		defer maintainerPool.Put(maint)
	}

	ov := graph.NewOverlay(d.Graph)
	var (
		edgeOps     []cltree.EdgeOp
		coreChanged int
		// changedLevel is the deepest CL-tree level any core change can
		// have touched (promoted vertices land at their new core, demoted
		// vertices leave their old one); cltree.Repair uses it to bound the
		// frontier rebuild.
		changedLevel int32
		added        int
		// singleChanged holds the changed vertices of a single-op batch,
		// the case cltree.Repair can patch surgically.
		singleChanged []int32
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
				if len(ch) > 0 {
					if lvl := maint.Core()[ch[0]]; lvl > changedLevel {
						changedLevel = lvl
					}
					if len(ops) == 1 {
						singleChanged = slices.Clone(ch)
					}
				}
			}
			edgeOps = append(edgeOps, cltree.EdgeOp{U: op.U, V: op.V, Insert: true})
		case OpRemoveEdge:
			if err := ov.RemoveEdge(op.U, op.V); err != nil {
				return nil, nil, mutationErr(i, op, err)
			}
			if maint != nil {
				ch := maint.RemoveEdge(ov, op.U, op.V)
				coreChanged += len(ch)
				if len(ch) > 0 {
					// Demoted vertices left the level one above their new core.
					if lvl := maint.Core()[ch[0]] + 1; lvl > changedLevel {
						changedLevel = lvl
					}
					if len(ops) == 1 {
						singleChanged = slices.Clone(ch)
					}
				}
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
		mutMu:   d.mutMu,
	}
	if added == 0 {
		// Same names, so whatever was derived from them carries over.
		next.nameForm.Store(d.nameForm.Load())
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
		next.coreOnce.Do(func() {
			next.coreNum = maint.Core()
			next.coreReady.Store(true)
		})
	}
	if d.treeReady.Load() && maint != nil && !d.Graph.Borrowed() {
		// Repair is skipped on a borrowed (mmap-backed) base: the repaired
		// tree would share nodes whose vertex and inverted-list arenas alias
		// the mapping, outliving it once this version is closed. The
		// successor's tree rebuilds lazily on the heap instead.
		tree, shared := cltree.Repair(d.tree, g, maint.Core(), changedLevel, added, edgeOps, singleChanged)
		next.treeOnce.Do(func() {
			next.tree = tree
			next.treeReady.Store(true)
		})
		if shared {
			res.TreeRepair = "shared"
		} else {
			res.TreeRepair = "rebuilt"
		}
	}
	return next, res, nil
}

// maintainerPool recycles kcore.Maintainer scratch (four n-sized arrays)
// across mutation batches; Reset re-targets one at a new core array without
// clearing anything.
var maintainerPool sync.Pool

func acquireMaintainer(core []int32) *kcore.Maintainer {
	if m, ok := maintainerPool.Get().(*kcore.Maintainer); ok {
		m.Reset(core)
		return m
	}
	return kcore.NewMaintainer(core)
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
// version. Batches on one dataset serialize (a lineage-wide mutex), while
// reads never block: searches in flight keep the version they resolved, and
// requests arriving after Mutate returns see the successor.
func (e *Explorer) Mutate(ctx context.Context, dataset string, ops []Mutation) (*MutationResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapContextErr(err)
	}
	for {
		ds, ok := e.Dataset(dataset)
		if !ok {
			return nil, fmt.Errorf("%w: mutate: %q", ErrDatasetNotFound, dataset)
		}
		// Every registration path (NewDataset, OpenSnapshot, AddDataset)
		// installs the lineage lock before the dataset is published.
		mu := ds.mutMu
		mu.Lock()
		cur, ok := e.Dataset(dataset)
		if !ok || cur.mutMu != mu {
			// The dataset was removed or replaced wholesale (re-upload)
			// while we waited; retry against whatever is there now.
			mu.Unlock()
			continue
		}
		next, res, err := cur.Mutate(ctx, ops)
		if err != nil {
			mu.Unlock()
			return nil, err
		}
		e.mu.Lock()
		e.datasets[dataset] = next
		hook := e.mutateHook
		e.mu.Unlock()
		if hook != nil {
			// Still under the lineage lock: hook calls for this dataset are
			// serialized in exactly the order versions were published.
			hook(dataset, res, ops)
		}
		mu.Unlock()
		return res, nil
	}
}
