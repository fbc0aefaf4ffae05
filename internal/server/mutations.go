package server

// The streaming-mutation surface:
//
//	POST /api/v1/datasets/{name}/mutations
//
// accepts one op or a batch, applies it through Explorer.Mutate (atomic
// copy-on-write version swap; in-flight searches keep their version), and —
// when a data directory is configured — appends the batch to the dataset's
// mutation journal before answering, so a warm restart replays the tail
// instead of losing acknowledged writes. Once a journal accumulates enough
// ops the catalog compacts: the snapshot is rewritten at the current
// version and the journal dropped.

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
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

// applyMutations is the one write path every mutation takes — the apply
// seam the batcher wraps and the direct route calls. It runs the engine
// apply, keeps the mutation counters, and (with a catalog configured)
// journals the batch, recording durability in the result:
//
//   - Journaled reflects the append alone: a batch whose record was fsynced
//     IS durable even when the follow-up compaction failed, and reporting
//     otherwise would invite a client retry that applies the batch twice.
//     Failures (append or compaction) are logged loudly.
//   - With batching enabled, one call here may speak for several coalesced
//     HTTP requests; the batch journals once, under the combined batch's
//     version, so replay sees exactly the applied lineage.
func (s *Server) applyMutations(ctx context.Context, name string, ops []api.Mutation) (*api.MutationResult, error) {
	start := time.Now()
	res, err := s.mutate(ctx, name, ops)
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	s.stats.mutationBatches.Add(1)
	s.stats.mutationOps.Add(int64(len(ops)))
	s.stats.mutationNanos.Add(elapsed.Nanoseconds())
	if s.DataDir() != "" {
		journaled, compacted, jerr := s.journalBatch(name, res.Version, ops)
		res.Journaled = journaled
		res.Compacted = compacted
		if jerr != nil {
			s.logf("mutations %s: %v (journaled=%v)", name, jerr, journaled)
		}
	}
	return res, nil
}

// errNoPrimary refuses a write at its commit point (503 no_primary).
var errNoPrimary = errors.New("this node is not a primary (replica, demoted, or shut down): write refused, nothing applied")

// mutate applies ops through their commit point (see commit).
func (s *Server) mutate(ctx context.Context, name string, ops []api.Mutation) (*api.MutationResult, error) {
	return s.exp.MutateThen(ctx, name, ops, func(res *api.MutationResult) error {
		return s.commit(name, res.Version, ops)
	})
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
	name := r.PathValue("name")
	start := time.Now()
	var res *api.MutationResult
	if b := s.mutationBatcher(); b != nil {
		res, err = b.Mutate(r.Context(), name, ops)
	} else {
		res, err = s.applyMutations(r.Context(), name, ops)
	}
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

// journalBatch appends one applied batch to the dataset's journal and runs
// compaction when the journal has absorbed enough ops. The whole operation
// — append, counter, and any compaction — holds journalMu, so the dataset
// re-fetched for a compaction snapshot is always at least as new as every
// record the compaction deletes (concurrent batches publish before they
// append, and their appends queue behind the lock).
func (s *Server) journalBatch(name string, version uint64, ops []api.Mutation) (journaled, compacted bool, err error) {
	dir := s.DataDir()
	if dir == "" {
		return false, false, nil
	}
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	rec := snapshot.JournalRecord{Version: version, Ops: repl.ToJournalOps(ops)}
	if err := snapshot.AppendJournal(journalPath(dir, name), rec); err != nil {
		return false, false, err
	}
	s.mu.Lock()
	s.journalOps[name] += len(ops)
	pending := s.journalOps[name]
	threshold := s.journalCompactAfter
	s.mu.Unlock()
	if threshold <= 0 {
		threshold = DefaultJournalCompactAfter
	}
	if pending < threshold {
		return true, false, nil
	}
	ds, ok := s.exp.Dataset(name)
	if !ok {
		return true, false, nil
	}
	if _, err := s.persistDatasetLocked(ds, true); err != nil {
		return true, false, fmt.Errorf("compaction: %w", err)
	}
	return true, true, nil
}

// SetJournalCompactAfter overrides the compaction threshold (ops per
// journal); n ≤ 0 restores the default. Test hook and ops knob.
func (s *Server) SetJournalCompactAfter(n int) {
	s.mu.Lock()
	s.journalCompactAfter = n
	s.mu.Unlock()
}

// resetJournalLocked drops the dataset's journal and pending-op counter;
// called after every full snapshot persist (upload, compaction), which
// supersedes the journal's records. Caller holds journalMu.
func (s *Server) resetJournalLocked(name string) {
	dir := s.DataDir()
	if dir == "" {
		return
	}
	if err := os.Remove(journalPath(dir, name)); err != nil && !os.IsNotExist(err) {
		s.logf("catalog: removing journal for %s: %v", name, err)
	}
	s.mu.Lock()
	delete(s.journalOps, name)
	s.mu.Unlock()
}

// replayJournal applies the journal records a freshly loaded snapshot
// predates, bringing the dataset to its last acknowledged version. Records
// at or below the snapshot's version are skipped (the snapshot already
// contains them). Versions are unique per lineage but append order is not
// publish order (the journal lock is taken after the version swap), so
// records are sorted by version and required to be contiguous — a gap
// means records are missing and replay stops rather than applying batches
// against the wrong base. Returns how many ops were replayed.
//
// When replay stops early — at a gap, a failed apply, a bad header or a
// corrupt record — the records left behind can never apply, yet they hold
// versions the restarted lineage is about to reuse, and later appends would
// land behind them where no boot reads. So the replayed prefix (every
// record before the corruption) becomes the durable base before any write
// is served: a compaction rewrites the snapshot at the current version and
// drops the journal. A journal that cannot be read (an I/O error, not
// corruption) is left alone and nothing is applied.
func (s *Server) replayJournal(name string, baseVersion uint64) (int, error) {
	dir := s.DataDir()
	if dir == "" {
		return 0, nil
	}
	path := journalPath(dir, name)
	recs, readErr := s.drainJournal(name, path)
	if readErr != nil && !errors.Is(readErr, snapshot.ErrJournalCorrupt) {
		// An I/O failure says nothing about the journal's bytes: apply
		// nothing and leave the file for the next boot.
		return 0, readErr
	}
	slices.SortFunc(recs, func(a, b snapshot.JournalRecord) int { return cmp.Compare(a.Version, b.Version) })
	replayed := 0
	next := baseVersion + 1
	var applyErr error
	for _, rec := range recs {
		if rec.Version <= baseVersion {
			continue
		}
		if rec.Version != next {
			applyErr = fmt.Errorf("journal gap: have version %d, want %d", rec.Version, next)
			break
		}
		ops := repl.FromJournalOps(rec.Ops)
		if _, err := s.mutate(context.Background(), name, ops); err != nil {
			applyErr = fmt.Errorf("replaying batch for version %d: %w", rec.Version, err)
			break
		}
		replayed += len(ops)
		next++
	}
	s.mu.Lock()
	s.journalOps[name] += replayed
	s.mu.Unlock()
	stop := errors.Join(readErr, applyErr)
	if stop == nil {
		return replayed, nil
	}
	if ds, ok := s.exp.Dataset(name); ok {
		s.journalMu.Lock()
		_, err := s.persistDatasetLocked(ds, true)
		s.journalMu.Unlock()
		if err != nil {
			return replayed, fmt.Errorf("%w; compacting the replayed prefix: %v", stop, err)
		}
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
