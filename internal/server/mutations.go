package server

// The streaming-mutation surface:
//
//	POST /api/v1/datasets/{name}/mutations
//
// accepts one op or a batch and, under the dataset name's writer lock,
// derives the successor, journals it (with a data directory), publishes it
// and swaps it in before answering, so a warm restart replays exactly the
// acknowledged versions. Once a journal holds enough ops the catalog
// compacts: the snapshot is rewritten and the journal dropped.

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/repl"
	"cexplorer/internal/snapshot"
)

// DefaultJournalCompactAfter is how many journaled ops trigger a snapshot
// rewrite + journal reset. Batches are appended whole, so the threshold is
// a floor, not an exact trigger point.
const DefaultJournalCompactAfter = 4096

// mutationRequest is the wire shape of the mutations route: either a batch
// under "mutations" or a single op inline (both at once is rejected).
type mutationRequest struct {
	Mutations []api.Mutation `json:"mutations,omitempty"`
	// Inline single-op fields.
	Op       string   `json:"op,omitempty"`
	U        int32    `json:"u,omitempty"`
	V        int32    `json:"v,omitempty"`
	Name     string   `json:"name,omitempty"`
	Keywords []string `json:"keywords,omitempty"`
}

// parseMutationRequest decodes a request body into the op batch it
// denotes. It is pure (fuzzable) and returns api.ErrInvalidMutation
// wrappers for every rejection.
func parseMutationRequest(body []byte) ([]api.Mutation, error) {
	var req mutationRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("%w: bad request body: %v", api.ErrInvalidMutation, err)
	}
	if len(req.Mutations) > 0 && req.Op != "" {
		return nil, fmt.Errorf("%w: both a batch and an inline op given", api.ErrInvalidMutation)
	}
	if len(req.Mutations) > 0 {
		return req.Mutations, nil
	}
	if req.Op == "" {
		return nil, fmt.Errorf("%w: no mutations given", api.ErrInvalidMutation)
	}
	return []api.Mutation{{Op: req.Op, U: req.U, V: req.V, Name: req.Name, Keywords: req.Keywords}}, nil
}

// mutationResponse is the route's success payload. Journaled/Compacted
// (and, when batching is on, Coalesced) arrive embedded in the
// MutationResult, set by applyMutations.
type mutationResponse struct {
	api.MutationResult
	ElapsedMS float64 `json:"elapsedMs"`
}

// applyMutations is the one write path every mutation takes, the seam the
// batcher wraps: it derives the successor under the name's writer lock and
// stores it with the journal append as the durable step (see store), then
// compacts when due. A coalesced batch journals once, under its version.
func (s *Server) applyMutations(ctx context.Context, name string, ops []api.Mutation) (*api.MutationResult, error) {
	w := s.exp.Lock(name)
	defer w.Unlock()
	start := time.Now()
	next, res, err := w.Mutate(ctx, ops)
	elapsed := time.Since(start)
	if err == nil {
		err = s.store(w, next, func(dir string) (func() error, error) {
			if err := s.persistBase(w, name, res.Version-1); err != nil {
				return func() error { return nil }, err
			}
			return appendBatch(journalPath(dir, name), res.Version, ops)
		}, func() error { return s.commit(name, res.Version, ops) })
	}
	if err != nil {
		return nil, err
	}
	s.stats.mutationBatches.Add(1)
	s.stats.mutationOps.Add(int64(len(ops)))
	s.stats.mutationNanos.Add(elapsed.Nanoseconds())
	if s.DataDir() != "" {
		res.Journaled = true
		res.Compacted = s.compactIfDue(next, len(ops))
	}
	return res, nil
}

// persistBase makes name's catalog end at base, the version the batch's
// journal record follows, under the name's writer lock w. It ends elsewhere
// when the node served versions it did not journal (applied or
// re-bootstrapped as a replica between a demotion and a promotion, or
// registered without a persist); then the base is persisted (snapshot,
// journal dropped), so the record lands neither behind a version gap that
// replay would stop at nor behind another lineage's files.
func (s *Server) persistBase(w *api.Writer, name string, base uint64) error {
	cur, ok := w.Dataset()
	if !ok || cur.Version != base {
		return fmt.Errorf("persisting the base: %q is not at version %d", name, base)
	}
	end, ok := s.catalogEndOf(name)
	if err := end.readable(name); err != nil {
		return err
	}
	if ok && end.holds(cur) {
		return nil
	}
	_, err := s.persistDataset(cur, true)
	return err
}

// errNoPrimary refuses a write at its commit point (503 no_primary).
var errNoPrimary = errors.New("this node is not a primary (replica, demoted, or shut down): write refused, nothing applied")

// errJournalUnreadable refuses a write to a name whose journal this boot
// could not read (503 journal_unreadable): persisting the name's base would
// drop the acknowledged records the journal may hold.
var errJournalUnreadable = errors.New("journal unreadable: write refused until a boot reads it, nothing applied")

// store ends every write to a name (a batch, an upload, a delete) under
// its writer lock w. A replica refuses. With a catalog, durable makes the
// write durable in dir (append and fsync a record, persist an upload,
// remove the files) and returns its undo; then commit runs (see commit)
// and the registry stores next (nil deletes the name). A failed durable
// step, or a commit refused after it, is undone, leaving memory, feed and
// catalog as they were: the answer is 500, or 503 no_primary for the
// refused commit, and 500 when the undo fails too.
func (s *Server) store(w *api.Writer, next *api.Dataset, durable func(dir string) (undo func() error, err error), commit func() error) error {
	if s.role.Load().src != nil {
		return errNoPrimary
	}
	dir := s.DataDir()
	if dir == "" {
		return w.Store(next, commit)
	}
	if s.beforeDurable != nil {
		s.beforeDurable()
	}
	undo, err := durable(dir)
	if err == nil {
		if err = w.Store(next, commit); err == nil {
			return nil
		}
	}
	if uerr := undo(); uerr != nil {
		return fmt.Errorf("%v; undoing its durable step: %w", err, uerr)
	}
	return err
}

// commit is every write's commit point, run under the Explorer's registry
// lock against the role at that moment: a replica refuses; a primary
// publishes a batch, or resets the feed for an upload or delete (nil ops),
// and refuses when its feed does; standalone accepts. Refusal: errNoPrimary.
func (s *Server) commit(name string, version uint64, ops []api.Mutation) error {
	rs := s.role.Load()
	switch {
	case rs.src != nil: // a replica refuses
	case rs.feed == nil, ops == nil && rs.feed.Reset(name),
		ops != nil && rs.feed.Publish(name, version, repl.ToJournalOps(ops)):
		return nil
	}
	return errNoPrimary
}

func (s *Server) v1Mutations(w http.ResponseWriter, r *http.Request) {
	if !s.writeGate(w, r) {
		return
	}
	var body json.RawMessage
	if !decodeBody(w, r, &body) {
		return
	}
	ops, err := parseMutationRequest(body)
	if err != nil {
		s.stats.mutationErrors.Add(1)
		s.writeError(w, err)
		return
	}
	apply := s.applyMutations
	if b := s.mutationBatcher(); b != nil {
		apply = b.Mutate
	}
	start := time.Now()
	res, err := apply(r.Context(), r.PathValue("name"), ops)
	elapsed := time.Since(start)
	if err != nil {
		s.stats.mutationErrors.Add(1)
		s.writeError(w, err)
		return
	}
	writeJSON(w, mutationResponse{MutationResult: *res, ElapsedMS: msec(elapsed)})
}

// journalPath maps a dataset name to its mutation journal file.
func journalPath(dir, name string) string {
	return snapshotPath(dir, name) + snapshot.JournalExt
}

// appendBatch is a mutation's durable step: it appends and fsyncs the
// batch's record. undo truncates the journal back to its size before the
// append (the writer owns the tail), clearing what a failed append left.
func appendBatch(path string, version uint64, ops []api.Mutation) (undo func() error, err error) {
	var size int64
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
	} else if !os.IsNotExist(err) {
		return func() error { return nil }, fmt.Errorf("journal: %w", err)
	}
	undo = func() error {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		return errors.Join(f.Truncate(size), f.Sync(), f.Close())
	}
	return undo, snapshot.AppendJournal(path, snapshot.JournalRecord{Version: version, Ops: repl.ToJournalOps(ops)})
}

// compactIfDue records a journaled batch (ds is the version just stored)
// and, once the journal holds enough ops, persists ds and drops the
// journal; a failure is only logged, as the batch is durable in the journal
// already.
func (s *Server) compactIfDue(ds *api.Dataset, ops int) bool {
	end, _ := s.catalogEndOf(ds.Name)
	end = *endAt(ds, end.ops+ops)
	s.setCatalogEnd(ds.Name, &end)
	if end.ops < cmp.Or(s.journalCompactAfter, DefaultJournalCompactAfter) {
		return false
	}
	if _, err := s.persistDataset(ds, true); err != nil {
		s.logf("mutations %s: compaction: %v", ds.Name, err)
		return false
	}
	return true
}

// dropJournal removes the dataset's journal, after a full snapshot persist
// supersedes it.
func (s *Server) dropJournal(dir, name string) error {
	if err := os.Remove(journalPath(dir, name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("removing the journal: %w", err)
	}
	return nil
}

// replayJournal applies, under the name's writer lock w, the journal
// records a freshly loaded snapshot predates, and returns how many ops it
// replayed. Records are appended under that lock in version order, so each
// must be one version past the one before it and the first past the
// snapshot must follow it; anything else is corruption. Records at or below
// the snapshot's version (a compaction's crash leftovers) are skipped.
//
// When replay stops early, at corruption or a failed apply, the records
// left behind hold versions the restarted lineage is about to reuse, so a
// compaction makes the replayed prefix the durable base before any write
// is served. A journal that cannot be read (an I/O error, not corruption)
// is left alone and nothing is applied, and the name is marked unread:
// mutations to it are refused (errJournalUnreadable) until a boot reads the
// journal, since persisting their base would drop it. An upload or a
// delete, which replaces the lineage on purpose, clears the mark.
func (s *Server) replayJournal(w *api.Writer, name string, baseVersion uint64) (int, error) {
	dir := s.DataDir()
	if dir == "" {
		return 0, nil
	}
	base, _ := w.Dataset()
	end := endAt(base, 0)
	defer func() { s.setCatalogEnd(name, end) }()
	recs, readErr := s.drainJournal(name, journalPath(dir, name))
	if readErr != nil && !errors.Is(readErr, snapshot.ErrJournalCorrupt) {
		// An I/O failure says nothing about the journal's bytes: apply
		// nothing and leave the file for the next boot to read.
		end = &catalogEnd{unread: true}
		return 0, readErr
	}
	replayed := 0
	var applyErr error
	for i, rec := range recs {
		want := baseVersion + 1
		if i > 0 {
			want = recs[i-1].Version + 1
		}
		if rec.Version != want && (i > 0 || rec.Version > baseVersion) {
			applyErr = fmt.Errorf("%w: record %d has version %d, want %d", snapshot.ErrJournalCorrupt, i+1, rec.Version, want)
			break
		}
		if rec.Version <= baseVersion {
			continue
		}
		ops := repl.FromJournalOps(rec.Ops)
		next, _, err := w.Mutate(context.Background(), ops)
		if err == nil {
			err = w.Store(next, func() error { return s.commit(name, rec.Version, ops) })
		}
		if err != nil {
			applyErr = fmt.Errorf("replaying batch for version %d: %w", rec.Version, err)
			break
		}
		replayed += len(ops)
		end = endAt(next, replayed)
	}
	stop := errors.Join(readErr, applyErr)
	if stop == nil {
		return replayed, nil
	}
	if ds, ok := w.Dataset(); ok {
		if _, err := s.persistDataset(ds, true); err != nil {
			end = nil // unknown: the next write persists first
			return replayed, fmt.Errorf("%w; compacting the replayed prefix: %v", stop, err)
		}
		end = endAt(ds, 0)
	}
	return replayed, fmt.Errorf("%w (replayed prefix compacted)", stop)
}

// drainJournal reads the journal at path up to its first unreadable frame.
// A torn tail (the signature of a crash mid-append) is truncated away:
// appends go to the end of the file, so garbage left in place would strand
// every record written after it beyond the reach of replay and of journal
// cursors. Any other error — corruption (snapshot.ErrJournalCorrupt) or an
// I/O failure — is returned beside the records before it.
func (s *Server) drainJournal(name, path string) ([]snapshot.JournalRecord, error) {
	cur := snapshot.OpenJournalCursor(path)
	defer cur.Close()
	var recs []snapshot.JournalRecord
	for {
		rec, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
	if torn := cur.Pending(); torn > 0 {
		s.logf("catalog: journal for %s: dropped %d trailing bytes (crash tail)", name, torn)
		if err := os.Truncate(path, cur.Offset()); err != nil {
			s.logf("catalog: truncating torn journal tail for %s: %v", name, err)
		}
	}
	return recs, nil
}
