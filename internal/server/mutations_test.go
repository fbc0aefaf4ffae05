package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/repl"
	"cexplorer/internal/snapshot"
)

func TestV1MutationsSingleAndBatch(t *testing.T) {
	s, ts := testServer(t)
	url := ts.URL + "/api/v1/datasets/fig5/mutations"

	// Figure5 has 10 vertices; {0,9} is absent in the fixture.
	var resp mutationResponse
	r := doJSON(t, "POST", url, map[string]any{"op": "addEdge", "u": 0, "v": 9}, &resp)
	if r.StatusCode != 200 {
		t.Fatalf("single op: status %d", r.StatusCode)
	}
	if resp.Version != 1 || resp.Applied != 1 || resp.Journaled {
		t.Fatalf("single op: %+v", resp)
	}

	r = doJSON(t, "POST", url, map[string]any{"mutations": []map[string]any{
		{"op": "removeEdge", "u": 0, "v": 9},
		{"op": "addVertex", "name": "newcomer", "keywords": []string{"fresh"}},
	}}, &resp)
	if r.StatusCode != 200 || resp.Version != 2 || resp.Applied != 2 {
		t.Fatalf("batch: status %d %+v", r.StatusCode, resp)
	}
	if resp.Vertices != 11 {
		t.Fatalf("vertex add not applied: %+v", resp)
	}

	// The dataset resource reports the new version.
	var info graphInfo
	doJSON(t, "GET", ts.URL+"/api/v1/datasets/fig5", nil, &info)
	if info.Version != 2 {
		t.Fatalf("dataset version = %d, want 2", info.Version)
	}

	// Mutation counters surface in /api/stats.
	st := s.Stats()
	if st.MutationBatches != 2 || st.MutationOps != 3 {
		t.Fatalf("stats: batches=%d ops=%d", st.MutationBatches, st.MutationOps)
	}
}

func TestV1MutationsTypedErrors(t *testing.T) {
	s, ts := testServer(t)
	url := ts.URL + "/api/v1/datasets/fig5/mutations"

	wantEnvelope(t, "POST", url, map[string]any{}, 400, "invalid_mutation")
	wantEnvelope(t, "POST", url, map[string]any{"op": "explode"}, 400, "invalid_mutation")
	wantEnvelope(t, "POST", url, map[string]any{"op": "addEdge", "u": 3, "v": 3}, 400, "invalid_mutation")
	wantEnvelope(t, "POST", url, map[string]any{"op": "removeEdge", "u": 0, "v": 9}, 409, "mutation_conflict")
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/nope/mutations",
		map[string]any{"op": "addVertex"}, 404, "dataset_not_found")
	// Both a batch and an inline op at once is ambiguous.
	wantEnvelope(t, "POST", url, map[string]any{
		"op": "addVertex", "mutations": []map[string]any{{"op": "addVertex"}},
	}, 400, "invalid_mutation")

	if st := s.Stats(); st.MutationErrors != 6 || st.MutationBatches != 0 {
		t.Fatalf("stats after rejections: %+v", st)
	}
}

// TestV1MutationsJournalAndWarmRestart is the durability loop: mutate a
// persisted dataset, kill the server, boot a fresh one over the same data
// directory, and find the mutations still there — replayed from the journal
// tail the snapshot predates.
func TestV1MutationsJournalAndWarmRestart(t *testing.T) {
	dir := t.TempDir()

	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	s := New(exp, t.Logf)
	if err := s.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, _ := exp.Dataset("fig5")
	if _, err := s.PersistDataset(ds); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	url := ts.URL + "/api/v1/datasets/fig5/mutations"
	var resp mutationResponse
	doJSON(t, "POST", url, map[string]any{"op": "addEdge", "u": 0, "v": 9}, &resp)
	if !resp.Journaled || resp.Version != 1 {
		t.Fatalf("first mutation not journaled: %+v", resp)
	}
	doJSON(t, "POST", url, map[string]any{"mutations": []map[string]any{
		{"op": "addVertex", "name": "nova", "keywords": []string{"dyn"}},
	}}, &resp)
	if !resp.Journaled || resp.Version != 2 {
		t.Fatalf("second mutation not journaled: %+v", resp)
	}
	if _, err := os.Stat(journalPath(dir, "fig5")); err != nil {
		t.Fatalf("journal file missing: %v", err)
	}

	// Cold boot over the same catalog.
	exp2 := api.NewExplorer()
	s2 := New(exp2, t.Logf)
	if err := s2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if n, err := s2.LoadSnapshots(); err != nil || n != 1 {
		t.Fatalf("LoadSnapshots: n=%d err=%v", n, err)
	}
	ds2, ok := exp2.Dataset("fig5")
	if !ok {
		t.Fatal("dataset missing after restart")
	}
	if ds2.Version != 2 {
		t.Fatalf("restarted version = %d, want 2", ds2.Version)
	}
	if !ds2.Graph.HasEdge(0, 9) {
		t.Fatal("journaled edge lost across restart")
	}
	if ds2.Graph.N() != 11 {
		t.Fatalf("journaled vertex lost: n=%d", ds2.Graph.N())
	}
	if v, ok := ds2.Graph.VertexByName("nova"); !ok || int(v) != 10 {
		t.Fatalf("journaled vertex attributes lost: %d %v", v, ok)
	}
}

// TestV1MutationsCompaction drives the journal past its threshold and
// verifies the snapshot absorbs the mutations and the journal resets — and
// that a restart after compaction still lands on the right version.
func TestV1MutationsCompaction(t *testing.T) {
	dir := t.TempDir()
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	s := New(exp, nil)
	if err := s.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, _ := exp.Dataset("fig5")
	if _, err := s.PersistDataset(ds); err != nil {
		t.Fatal(err)
	}
	s.journalCompactAfter = 3
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/api/v1/datasets/fig5/mutations"

	var resp mutationResponse
	for i := 0; i < 2; i++ {
		doJSON(t, "POST", url, map[string]any{"op": "addVertex"}, &resp)
		if resp.Compacted {
			t.Fatalf("op %d compacted below threshold", i)
		}
	}
	doJSON(t, "POST", url, map[string]any{"op": "addVertex"}, &resp)
	if !resp.Compacted {
		t.Fatalf("threshold crossing did not compact: %+v", resp)
	}
	if _, err := os.Stat(journalPath(dir, "fig5")); !os.IsNotExist(err) {
		t.Fatalf("journal survived compaction: %v", err)
	}

	// Restart: the compacted snapshot alone must carry version 3.
	exp2 := api.NewExplorer()
	s2 := New(exp2, nil)
	if err := s2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadSnapshots(); err != nil {
		t.Fatal(err)
	}
	ds2, _ := exp2.Dataset("fig5")
	if ds2.Version != 3 || ds2.Graph.N() != 13 {
		t.Fatalf("after compacted restart: version=%d n=%d", ds2.Version, ds2.Graph.N())
	}
}

// TestV1MutationsReplayStopNeverResurfaces: a boot whose journal replay
// stops early — at a gap, a checksum-clean but malformed record, or a bad
// header — must apply the records before the stop and leave nothing
// unreplayable behind. Otherwise writes on the restarted lineage either
// reuse the stale records' versions (the next boot replays a graph nobody
// acknowledged) or land behind the bad bytes, where every later boot stops.
func TestV1MutationsReplayStopNeverResurfaces(t *testing.T) {
	edge := func(op string, u, v int32) []snapshot.JournalOp {
		return repl.ToJournalOps([]api.Mutation{{Op: op, U: u, V: v}})
	}
	journal := func(header string, recs ...snapshot.JournalRecord) []byte {
		b := []byte(header)
		for _, rec := range recs {
			b = append(b, snapshot.EncodeJournalFrame(rec)...)
		}
		return b
	}
	const header = "CXJRNL\x01\x00"
	for _, tc := range []struct {
		name    string
		base    []api.Mutation // applied before the base snapshot is written
		journal []byte
		writes  []map[string]any // acknowledged on boot 1
		boot1   uint64
		boot2   uint64
		has     [][2]int32 // edges present after boot 2
		hasNot  [][2]int32 // edges absent after boot 2
	}{
		{
			// Snapshot at v0; the journal holds v1 and v3 but lost v2.
			name: "gap",
			journal: journal(header,
				snapshot.JournalRecord{Version: 1, Ops: edge(api.OpAddEdge, 0, 4)},
				snapshot.JournalRecord{Version: 3, Ops: edge(api.OpAddEdge, 0, 5)}),
			writes: []map[string]any{
				{"op": "addEdge", "u": 0, "v": 7},
				{"op": "removeEdge", "u": 0, "v": 4},
			},
			boot1: 1, boot2: 3,
			has:    [][2]int32{{0, 7}},
			hasNot: [][2]int32{{0, 4}, {0, 5}},
		},
		{
			// An intact v1 record, then a frame that checksums clean but
			// carries an unknown op kind.
			name: "corrupt-record",
			journal: journal(header,
				snapshot.JournalRecord{Version: 1, Ops: edge(api.OpAddEdge, 0, 4)},
				snapshot.JournalRecord{Version: 2, Ops: []snapshot.JournalOp{{Kind: 99}}}),
			writes: []map[string]any{{"op": "addEdge", "u": 0, "v": 7}},
			boot1:  1, boot2: 2,
			has: [][2]int32{{0, 4}, {0, 7}},
		},
		{
			// Snapshot at v1; the journal's header is not a journal header.
			name:    "bad-header",
			base:    []api.Mutation{{Op: api.OpAddEdge, U: 0, V: 4}},
			journal: journal("NOTJRN\x01\x00", snapshot.JournalRecord{Version: 2, Ops: edge(api.OpAddEdge, 0, 5)}),
			writes:  []map[string]any{{"op": "addEdge", "u": 0, "v": 7}},
			boot1:   1, boot2: 2,
			has:    [][2]int32{{0, 4}, {0, 7}},
			hasNot: [][2]int32{{0, 5}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			boot := func() (*Server, *api.Explorer) {
				exp := api.NewExplorer()
				s := New(exp, t.Logf)
				if err := s.SetDataDir(dir); err != nil {
					t.Fatal(err)
				}
				return s, exp
			}
			s0, exp0 := boot()
			if _, err := exp0.AddGraph("fig5", gen.Figure5()); err != nil {
				t.Fatal(err)
			}
			if tc.base != nil {
				if _, err := exp0.Mutate(context.Background(), "fig5", tc.base); err != nil {
					t.Fatal(err)
				}
			}
			ds, _ := exp0.Dataset("fig5")
			if _, err := s0.PersistDataset(ds); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(journalPath(dir, "fig5"), tc.journal, 0o644); err != nil {
				t.Fatal(err)
			}

			// Boot 1 replays up to the stop; then the writes are acknowledged.
			s1, exp1 := boot()
			if _, err := s1.LoadSnapshots(); err != nil {
				t.Fatal(err)
			}
			if cur, _ := exp1.Dataset("fig5"); cur.Version != tc.boot1 {
				t.Fatalf("boot 1 replayed to version %d, want %d", cur.Version, tc.boot1)
			}
			ts := httptest.NewServer(s1.Handler())
			url := ts.URL + "/api/v1/datasets/fig5/mutations"
			for i, op := range tc.writes {
				var resp mutationResponse
				if r := doJSON(t, "POST", url, op, &resp); r.StatusCode != 200 || !resp.Journaled || resp.Version != tc.boot1+uint64(i)+1 {
					t.Fatalf("write %d: status %d %+v", i, r.StatusCode, resp)
				}
			}
			ts.Close()

			// Boot 2 must land on exactly the acknowledged version.
			s2, exp2 := boot()
			if _, err := s2.LoadSnapshots(); err != nil {
				t.Fatal(err)
			}
			cur, _ := exp2.Dataset("fig5")
			if cur.Version != tc.boot2 {
				t.Fatalf("boot 2 at version %d, want %d", cur.Version, tc.boot2)
			}
			for _, e := range tc.has {
				if !cur.Graph.HasEdge(e[0], e[1]) {
					t.Fatalf("boot 2 lost acknowledged edge %v", e)
				}
			}
			for _, e := range tc.hasNot {
				if cur.Graph.HasEdge(e[0], e[1]) {
					t.Fatalf("boot 2 has unacknowledged edge %v", e)
				}
			}
		})
	}

	// A journal that fails to read (its path is a directory, so every read
	// is EISDIR) is not corruption: boot applies nothing and must neither
	// compact nor remove the journal, which may hold every acknowledged
	// write since the last compaction.
	t.Run("unreadable", func(t *testing.T) {
		dir := t.TempDir()
		exp0 := api.NewExplorer()
		s0 := New(exp0, t.Logf)
		if err := s0.SetDataDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := exp0.AddGraph("fig5", gen.Figure5()); err != nil {
			t.Fatal(err)
		}
		ds, _ := exp0.Dataset("fig5")
		if _, err := s0.PersistDataset(ds); err != nil {
			t.Fatal(err)
		}
		snap := snapshotPath(dir, "fig5")
		old := time.Now().Add(-time.Hour).Truncate(time.Second)
		if err := os.Chtimes(snap, old, old); err != nil {
			t.Fatal(err)
		}
		jpath := journalPath(dir, "fig5")
		if err := os.Mkdir(jpath, 0o755); err != nil {
			t.Fatal(err)
		}

		exp1 := api.NewExplorer()
		s1 := New(exp1, t.Logf)
		if err := s1.SetDataDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.LoadSnapshots(); err != nil {
			t.Fatal(err)
		}
		if cur, _ := exp1.Dataset("fig5"); cur.Version != 0 {
			t.Fatalf("boot at version %d, want 0", cur.Version)
		}
		if st, err := os.Stat(jpath); err != nil || !st.IsDir() {
			t.Fatalf("unreadable journal removed: %v", err)
		}
		if st, err := os.Stat(snap); err != nil || !st.ModTime().Equal(old) {
			t.Fatalf("snapshot rewritten on an unreadable journal: %v", err)
		}
		if got := s1.stats.snapshotLoadErrors.Load(); got != 1 {
			t.Fatalf("snapshotLoadErrors = %d, want 1", got)
		}
	})
}

// TestV1MutationsRefusedOnUnreadableJournal: a boot that cannot read a
// journal (its path is a directory, so every read is EISDIR) refuses
// mutations to the name with a typed 503 instead of persisting the base
// over the journal, so the acknowledged records are still there for the
// next boot that reads it. An upload replaces the lineage on purpose and
// is allowed; it clears the mark.
func TestV1MutationsRefusedOnUnreadableJournal(t *testing.T) {
	_, h0, dir := catalogNode(t)
	for i, e := range [][2]int32{{0, 4}, {0, 5}} {
		serve(h0, "POST", "/api/v1/datasets/fig5/mutations", addEdge(e[0], e[1])).wait(t, fmt.Sprint("write ", i))
	}
	jpath, snap := journalPath(dir, "fig5"), snapshotPath(dir, "fig5")
	journal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(jpath, jpath+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(jpath, 0o755); err != nil {
		t.Fatal(err)
	}

	boot := func() (*Server, *api.Explorer) {
		exp := api.NewExplorer()
		s := New(exp, t.Logf)
		if err := s.SetDataDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := s.LoadSnapshots(); err != nil {
			t.Fatal(err)
		}
		return s, exp
	}
	s1, _ := boot()
	c := serve(s1.Handler(), "POST", "/api/v1/datasets/fig5/mutations", addEdge(0, 7))
	<-c.done
	var env envelope
	json.Unmarshal(c.rec.Body.Bytes(), &env)
	if c.rec.Code != http.StatusServiceUnavailable || env.Code != "journal_unreadable" || c.rec.Header().Get("Retry-After") == "" {
		t.Fatalf("write on an unread journal: status %d, Retry-After %q, %s", c.rec.Code, c.rec.Header().Get("Retry-After"), c.rec.Body)
	}
	if st, err := os.Stat(jpath); err != nil || !st.IsDir() {
		t.Fatalf("unreadable journal removed: %v", err)
	}
	if b, err := os.ReadFile(snap); err != nil || !bytes.Equal(b, snapBytes) {
		t.Fatalf("snapshot rewritten on an unreadable journal: %v", err)
	}

	// Once the journal reads again, the next boot recovers every
	// acknowledged write from it.
	if err := os.Remove(jpath); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(jpath+".aside", jpath); err != nil {
		t.Fatal(err)
	}
	_, exp2 := boot()
	cur, _ := exp2.Dataset("fig5")
	if cur.Version != 2 || !cur.Graph.HasEdge(0, 4) || !cur.Graph.HasEdge(0, 5) || cur.Graph.HasEdge(0, 7) {
		t.Fatalf("boot after the refusal at version %d", cur.Version)
	}
	if b, err := os.ReadFile(jpath); err != nil || !bytes.Equal(b, journal) {
		t.Fatalf("journal changed: %v", err)
	}

	// An upload over an unread journal is allowed and clears the mark.
	if err := os.Rename(jpath, jpath+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(jpath, 0o755); err != nil {
		t.Fatal(err)
	}
	s3, _ := boot()
	h3 := s3.Handler()
	serve(h3, "PUT", "/api/v1/datasets/fig5", gen.Figure5().ToJSONGraph("fig5")).wait(t, "upload")
	serve(h3, "POST", "/api/v1/datasets/fig5/mutations", addEdge(0, 7)).wait(t, "write after the upload")
}

// TestV1MutationsConcurrentDurability hammers the mutation route from
// several goroutines with an aggressive compaction threshold, then cold
// boots over the catalog: every acknowledged (journaled or compacted)
// batch must survive — the invariant the journal lock exists to protect.
func TestV1MutationsConcurrentDurability(t *testing.T) {
	dir := t.TempDir()
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	s := New(exp, nil)
	if err := s.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, _ := exp.Dataset("fig5")
	if _, err := s.PersistDataset(ds); err != nil {
		t.Fatal(err)
	}
	s.journalCompactAfter = 2
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/api/v1/datasets/fig5/mutations"

	const workers, perWorker = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var resp mutationResponse
				r := doJSON(t, "POST", url, map[string]any{"op": "addVertex"}, &resp)
				if r.StatusCode != 200 {
					t.Errorf("status %d", r.StatusCode)
					return
				}
				if !resp.Journaled && !resp.Compacted {
					t.Errorf("acknowledged batch neither journaled nor compacted: %+v", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	live, _ := exp.Dataset("fig5")
	wantN, wantV := live.Graph.N(), live.Version
	if wantV != workers*perWorker {
		t.Fatalf("live version %d, want %d", wantV, workers*perWorker)
	}

	exp2 := api.NewExplorer()
	s2 := New(exp2, nil)
	if err := s2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadSnapshots(); err != nil {
		t.Fatal(err)
	}
	ds2, _ := exp2.Dataset("fig5")
	if ds2.Version != wantV || ds2.Graph.N() != wantN {
		t.Fatalf("restart lost acknowledged writes: version=%d n=%d, want version=%d n=%d",
			ds2.Version, ds2.Graph.N(), wantV, wantN)
	}
}

// TestV1MutationsPinnedSearch: a mutation between two searches must not
// disturb the first search's view — checked end to end over HTTP by racing
// nothing at all (the sequential contract): results reflect the version at
// request time.
func TestV1MutationsVersioningVisibleToSearch(t *testing.T) {
	_, ts := testServer(t)

	// Global community of vertex 0 at k=1 before and after adding edge {0,9}.
	search := func() int {
		var out struct {
			Communities []struct {
				Vertices []int32 `json:"vertices"`
			} `json:"communities"`
		}
		doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search",
			map[string]any{"algorithm": "Global", "vertices": []int32{0}, "k": 1}, &out)
		if len(out.Communities) == 0 {
			return 0
		}
		return len(out.Communities[0].Vertices)
	}
	before := search()
	var resp mutationResponse
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/mutations",
		map[string]any{"op": "addVertex"}, &resp)
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/mutations",
		map[string]any{"op": "addEdge", "u": 0, "v": int32(resp.Vertices - 1)}, &resp)
	after := search()
	if after != before+1 {
		t.Fatalf("search did not observe the new version: before=%d after=%d", before, after)
	}
}
