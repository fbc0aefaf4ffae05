package server

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/snapshot"
)

// The disk-backed catalog: when a data directory is configured (the
// -data.dir flag), every dataset the server accepts is persisted as one
// snapshot file (atomically, via temp-file + rename) and every snapshot in
// the directory is loaded at boot with its indexes pre-seeded — so a
// restarted server serves searches on its old datasets immediately, without
// re-upload and without rebuilding a single index.
//
// Layout: <dataDir>/<escaped-dataset-name>.cxsnap, one file per dataset.
// The dataset name is also embedded in the file; the filename is just a
// stable, filesystem-safe handle derived from it.

// SetDataDir configures the catalog directory, creating it if needed. Call
// once at startup, before LoadSnapshots and before serving.
func (s *Server) SetDataDir(dir string) error {
	if dir == "" {
		return fmt.Errorf("data dir: empty path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("data dir: %w", err)
	}
	s.mu.Lock()
	s.dataDir = dir
	s.mu.Unlock()
	return nil
}

// DataDir returns the configured catalog directory ("" when persistence is
// disabled).
func (s *Server) DataDir() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dataDir
}

// snapshotPath maps a dataset name to its catalog file.
func snapshotPath(dir, name string) string {
	return filepath.Join(dir, url.PathEscape(name)+snapshot.FileExt)
}

// LoadSnapshots opens every snapshot in the data directory and registers
// the datasets, returning how many loaded. Individual corrupt files are
// skipped (logged, counted as errors in /api/stats) rather than failing the
// boot: one damaged dataset must not take down the rest of the catalog.
func (s *Server) LoadSnapshots() (int, error) {
	dir := s.DataDir()
	if dir == "" {
		return 0, fmt.Errorf("load snapshots: no data dir configured")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("load snapshots: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), snapshot.FileExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	mode := s.OpenMode()
	loaded := 0
	for _, fname := range names {
		path := filepath.Join(dir, fname)
		start := time.Now()
		ds, err := api.OpenSnapshotFileMode("", path, mode)
		if err != nil {
			s.logf("catalog: skipping %s: %v", path, err)
			s.stats.snapshotLoadErrors.Add(1)
			continue
		}
		elapsed := time.Since(start)
		s.stats.snapshotLoads.Add(1)
		s.stats.snapshotLoadNanos.Add(elapsed.Nanoseconds())
		s.logf("catalog: %s ready from %s in %s (%d vertices, %d edges, %d bytes, %s)",
			ds.Name, fname, elapsed.Round(time.Millisecond),
			ds.Graph.N(), ds.Graph.M(), ds.Info.SnapshotBytes, ds.Info.OpenMode)
		// Register the dataset and replay the journal's tail under one
		// hold of the name's writer lock: a warm restart resumes at the
		// exact version the previous process served.
		w := s.exp.Lock(ds.Name)
		w.Store(ds, nil)
		if n, err := s.replayJournal(w, ds.Name, ds.Version); err != nil {
			s.logf("catalog: %s: journal replay stopped after %d ops: %v", ds.Name, n, err)
			s.stats.snapshotLoadErrors.Add(1)
		} else if n > 0 {
			cur, _ := w.Dataset()
			s.logf("catalog: %s replayed %d journaled ops (now version %d)", ds.Name, n, cur.Version)
		}
		w.Unlock()
		loaded++
	}
	return loaded, nil
}

// PersistDataset writes the snapshot of the dataset registered under ds's
// name (ds, or a later version or re-upload) under the name's writer lock,
// building missing indexes first, and returns the encoded size (0 without
// a data dir).
func (s *Server) PersistDataset(ds *api.Dataset) (int64, error) {
	w := s.exp.Lock(ds.Name)
	defer w.Unlock()
	cur, ok := w.Dataset()
	if !ok {
		return 0, fmt.Errorf("persist: %w: %q", api.ErrDatasetNotFound, ds.Name)
	}
	end, _ := s.catalogEndOf(ds.Name)
	if err := end.readable(ds.Name); err != nil {
		return 0, err
	}
	return s.persistDataset(cur, false)
}

// persistDataset writes ds's snapshot and drops the journal it supersedes,
// under the caller's writer lock. residentOnly skips forced index builds,
// which compaction must not pay on the mutation request path.
func (s *Server) persistDataset(ds *api.Dataset, residentOnly bool) (int64, error) {
	dir := s.DataDir()
	if dir == "" {
		return 0, nil
	}
	start := time.Now()
	var (
		n   int64
		err error
	)
	if residentOnly {
		n, err = ds.WriteResidentSnapshotFile(snapshotPath(dir, ds.Name))
	} else {
		n, err = ds.WriteSnapshotFile(snapshotPath(dir, ds.Name))
	}
	if err == nil {
		err = s.dropJournal(dir, ds.Name)
	}
	if err != nil {
		s.setCatalogEnd(ds.Name, nil) // unknown: the next write persists first
		return 0, err
	}
	s.setCatalogEnd(ds.Name, endAt(ds, 0))
	elapsed := time.Since(start)
	s.stats.snapshotPersists.Add(1)
	s.stats.snapshotPersistNanos.Add(elapsed.Nanoseconds())
	s.logf("catalog: persisted %s (%d bytes) in %s", ds.Name, n, elapsed.Round(time.Millisecond))
	return n, nil
}

// removeCatalogFiles is a delete's durable step: it removes the dataset's
// snapshot and journal.
func (s *Server) removeCatalogFiles(dir, name string) error {
	s.setCatalogEnd(name, nil)
	if err := os.Remove(snapshotPath(dir, name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("removing the snapshot: %w", err)
	}
	return s.dropJournal(dir, name)
}

// catalogEnd is where the data dir's files for one dataset name end.
type catalogEnd struct {
	lineage uint64 // the lineage of that version (api.Dataset.Lineage)
	version uint64 // the version a boot from the data dir recovers
	ops     int    // ops journaled since the last full persist
	// unread marks a journal this boot could not read: where the files
	// end is unknown, and nothing may persist over them (readable).
	unread bool
}

// endAt is the catalog end at ds, ops journaled since the last persist.
func endAt(ds *api.Dataset, ops int) *catalogEnd {
	return &catalogEnd{lineage: ds.Lineage(), version: ds.Version, ops: ops}
}

// holds reports whether a boot from the data dir recovers ds: the same
// version of the same lineage, not one a re-upload or a replica's
// re-bootstrap numbered alike.
func (e catalogEnd) holds(ds *api.Dataset) bool {
	return e.lineage == ds.Lineage() && e.version == ds.Version
}

// readable refuses, with errJournalUnreadable, to persist over name's
// files while its journal is unread.
func (e catalogEnd) readable(name string) error {
	if e.unread {
		return fmt.Errorf("%w: %q", errJournalUnreadable, name)
	}
	return nil
}

// catalogEndOf returns the catalog's entry for name; ok is false when the
// data dir holds no known state for it.
func (s *Server) catalogEndOf(name string) (catalogEnd, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.catalog[name]
	return e, ok
}

// setCatalogEnd records where name's files end; nil forgets the entry.
func (s *Server) setCatalogEnd(name string, e *catalogEnd) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e == nil {
		delete(s.catalog, name)
	} else {
		s.catalog[name] = *e
	}
}
