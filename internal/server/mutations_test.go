package server

import (
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
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
	s.SetJournalCompactAfter(3)
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
// stops at a gap must not leave the unreplayable records behind. Otherwise
// writes on the restarted lineage reuse their versions, and the next boot
// replays the stale record under an acknowledged version — a graph nobody
// ever acknowledged, served as if it were.
func TestV1MutationsReplayStopNeverResurfaces(t *testing.T) {
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
	ds, _ := exp0.Dataset("fig5")
	if _, err := s0.PersistDataset(ds); err != nil {
		t.Fatal(err)
	}
	// Snapshot at v0; the journal holds v1 and v3 but lost v2.
	edge := func(op string, u, v int32) []snapshot.JournalOp {
		return toJournalOps([]api.Mutation{{Op: op, U: u, V: v}})
	}
	for _, rec := range []snapshot.JournalRecord{
		{Version: 1, Ops: edge(api.OpAddEdge, 0, 4)},
		{Version: 3, Ops: edge(api.OpAddEdge, 0, 5)},
	} {
		if err := snapshot.AppendJournal(journalPath(dir, "fig5"), rec); err != nil {
			t.Fatal(err)
		}
	}

	// Boot 1 replays to v1 and stops at the gap; two writes are acknowledged.
	s1, exp1 := boot()
	if _, err := s1.LoadSnapshots(); err != nil {
		t.Fatal(err)
	}
	if cur, _ := exp1.Dataset("fig5"); cur.Version != 1 {
		t.Fatalf("boot 1 replayed to version %d, want 1", cur.Version)
	}
	ts := httptest.NewServer(s1.Handler())
	url := ts.URL + "/api/v1/datasets/fig5/mutations"
	for i, op := range []map[string]any{
		{"op": "addEdge", "u": 0, "v": 7},
		{"op": "removeEdge", "u": 0, "v": 4},
	} {
		var resp mutationResponse
		if r := doJSON(t, "POST", url, op, &resp); r.StatusCode != 200 || !resp.Journaled || resp.Version != uint64(2+i) {
			t.Fatalf("write %d: status %d %+v", i, r.StatusCode, resp)
		}
	}
	ts.Close()

	// Boot 2 must land on exactly the acknowledged v3.
	s2, exp2 := boot()
	if _, err := s2.LoadSnapshots(); err != nil {
		t.Fatal(err)
	}
	cur, _ := exp2.Dataset("fig5")
	if cur.Version != 3 || cur.Graph.HasEdge(0, 4) || cur.Graph.HasEdge(0, 5) || !cur.Graph.HasEdge(0, 7) {
		t.Fatalf("boot 2: version %d with {0,4}=%v {0,5}=%v {0,7}=%v, want version 3 with only {0,7}",
			cur.Version, cur.Graph.HasEdge(0, 4), cur.Graph.HasEdge(0, 5), cur.Graph.HasEdge(0, 7))
	}
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
	s.SetJournalCompactAfter(2)
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
