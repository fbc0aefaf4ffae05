package api

import (
	"fmt"
	"io"
	"time"

	"cexplorer/internal/snapshot"
)

// This file is the bridge between datasets and the persistence subsystem
// (internal/snapshot): WriteSnapshot freezes a dataset — graph plus every
// index, building any that are missing — and OpenSnapshot materializes one
// with its indexes seeded into their slots, so no build ever runs and a
// restart costs a sequential read instead of a rebuild.

// WriteSnapshot serializes the dataset to w, building any missing indexes
// first so the snapshot always carries all three (that one-time cost is the
// point: pay it offline, never at boot). Returns the encoded byte count.
func (d *Dataset) WriteSnapshot(w io.Writer) (int64, error) {
	return snapshot.Write(w, d.makeSnapshot())
}

// WriteSnapshotFile persists the dataset at path atomically (temp file +
// rename), building any missing indexes first.
func (d *Dataset) WriteSnapshotFile(path string) (int64, error) {
	return snapshot.WriteFile(path, d.makeSnapshot())
}

func (d *Dataset) makeSnapshot() *snapshot.Snapshot {
	d.BuildIndexes()
	return &snapshot.Snapshot{
		Name:    d.Name,
		Version: d.Version,
		Graph:   d.Graph,
		Core:    d.CoreNumbers(),
		Tree:    d.Tree(),
		Truss:   d.Truss(),
	}
}

// WriteResidentSnapshotFile persists the dataset with whatever indexes it
// currently holds — no forced builds. Journal compaction uses it from the
// mutation request path, where forcing a from-scratch build of an index the
// lineage never held (most often the truss) would stall the response; a
// snapshot without an index simply reloads with that index lazy, exactly
// like an unindexed upload.
func (d *Dataset) WriteResidentSnapshotFile(path string) (int64, error) {
	return snapshot.WriteFile(path, d.residentSnapshot())
}

// WriteResidentSnapshot streams the resident-index snapshot to w. This is
// the replica-bootstrap encoding: it runs on the primary's request path, so
// like compaction it must never force an index build.
func (d *Dataset) WriteResidentSnapshot(w io.Writer) (int64, error) {
	return snapshot.Write(w, d.residentSnapshot())
}

func (d *Dataset) residentSnapshot() *snapshot.Snapshot {
	s := &snapshot.Snapshot{Name: d.Name, Version: d.Version, Graph: d.Graph}
	s.Core, _ = d.core.resident()
	s.Tree, _ = d.tree.resident()
	s.Truss, _ = d.truss.resident()
	return s
}

// OpenSnapshot materializes a dataset from a snapshot stream. Every index
// the snapshot carries is seeded into its slot here, so it never builds;
// anything absent still builds lazily on first use. name overrides the
// snapshot's embedded dataset name when non-empty. The graph's structural
// invariants were validated at upload/build time and the file is
// checksummed, so the load path deliberately skips the O(m log m) Validate
// re-check.
func OpenSnapshot(name string, r io.Reader) (*Dataset, error) {
	start := time.Now()
	s, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return datasetFromSnapshot(name, s, time.Since(start))
}

// OpenSnapshotFile materializes a dataset from a snapshot file; the
// embedded dataset name is used unless name is non-empty. It always
// heap-decodes (snapshot.OpenCopy); use OpenSnapshotFileMode for the
// zero-copy mmap path.
func OpenSnapshotFile(name, path string) (*Dataset, error) {
	return OpenSnapshotFileMode(name, path, snapshot.OpenCopy)
}

// OpenSnapshotFileMode materializes a dataset from a snapshot file under an
// explicit open mode. With snapshot.OpenMmap (or OpenAuto on an eligible
// file) the dataset's graph and pre-seeded indexes are views over a file
// mapping: the open costs O(index stitch) instead of O(bytes) heap copies,
// and the caller owns a Close obligation — release the mapping with
// Dataset.Close when the dataset is retired (queries running through the
// Explorer pin the mapping and are safe against a concurrent Close).
func OpenSnapshotFileMode(name, path string, mode snapshot.OpenMode) (*Dataset, error) {
	start := time.Now()
	s, m, err := snapshot.OpenFile(path, mode)
	if err != nil {
		return nil, err
	}
	d, err := datasetFromSnapshot(name, s, time.Since(start))
	if err != nil {
		if m != nil {
			m.Release()
		}
		return nil, err
	}
	if m != nil {
		attachBacking(d, m)
		d.Info.OpenMode = "mmap"
		d.Info.MappedBytes = m.Size()
	}
	return d, nil
}

func datasetFromSnapshot(name string, s *snapshot.Snapshot, elapsed time.Duration) (*Dataset, error) {
	if name == "" {
		name = s.Name
	}
	if name == "" {
		return nil, fmt.Errorf("snapshot: no dataset name (none embedded, none given)")
	}
	d := &Dataset{
		Name:    name,
		Graph:   s.Graph,
		Version: s.Version,
		lin:     newLineage(),
		Info: DatasetInfo{
			Source:        "snapshot",
			LoadDuration:  elapsed,
			SnapshotBytes: s.Bytes,
			OpenMode:      "copy", // the file-open path overrides for mmap
		},
	}
	if s.Core != nil {
		d.core.seed(s.Core)
	}
	if s.Tree != nil {
		d.tree.seed(s.Tree)
		// The CL-tree carries per-vertex core numbers: a snapshot without
		// its own reuses them rather than re-peeling (a seeded slot keeps
		// the snapshot's).
		d.core.seed(s.Tree.CoreNumbers())
	}
	if s.Truss != nil {
		d.truss.seed(s.Truss)
	}
	return d, nil
}

// AddDataset registers an already-materialized dataset (typically one from
// OpenSnapshot) under its own name, replacing any dataset with that name.
// Unlike AddGraph it does not re-run Validate: snapshot integrity is the
// checksum's job, and re-validating would forfeit the warm-start win.
func (e *Explorer) AddDataset(ds *Dataset) error {
	if ds == nil || ds.Name == "" || ds.Graph == nil || ds.lin == 0 {
		return fmt.Errorf("add dataset: unnamed, or not made by NewDataset, OpenSnapshot or Mutate")
	}
	e.replace(ds.Name, ds)
	return nil
}
