package server

// Contract tests for the serve-time speed layer: the version-keyed result
// cache behind the search routes, the overload envelope, and the batched
// mutation route. Named TestV1* so the CI API-contract gate runs them.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/servecache"
)

// statsOut decodes the speed-layer slice of /api/stats.
type statsOut struct {
	Cache   *servecache.Stats `json:"cache"`
	Batcher *api.BatcherStats `json:"batcher"`
}

func TestV1CacheServesRepeatsAndSurfacesStats(t *testing.T) {
	s, ts := testServer(t)
	s.EnableCache(128, 1<<20, 0)
	body := map[string]any{"algorithm": "ACQ", "names": []string{"A"}, "k": 2, "keywords": []string{"w", "x", "y"}}
	var first, second v1SearchOut
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", body, &first)
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", body, &second)
	if len(first.Communities) == 0 || len(first.Communities) != len(second.Communities) {
		t.Fatalf("cached answer differs: %+v vs %+v", first, second)
	}
	var st statsOut
	doJSON(t, "GET", ts.URL+"/api/stats", nil, &st)
	if st.Cache == nil {
		t.Fatal("stats carry no cache block")
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Computations != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	if st.Cache.Entries == 0 || st.Cache.Bytes == 0 {
		t.Fatalf("cache occupancy not surfaced: %+v", st.Cache)
	}
	// Per-dataset occupancy on the dataset resource.
	var info graphInfo
	doJSON(t, "GET", ts.URL+"/api/v1/datasets/fig5", nil, &info)
	if info.CacheEntries != 1 || info.CacheBytes == 0 {
		t.Fatalf("dataset cache occupancy = %+v", info)
	}
	// A deterministic failure from inside the kernel (an unknown param key,
	// rejected by the algorithm itself) is negatively cached. Handler-level
	// rejections (missing vertices, bad names) never reach the cache.
	bad := map[string]any{"algorithm": "ACQ", "names": []string{"A"}, "k": 2,
		"params": map[string]string{"bogus": "1"}}
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", bad, 400, "invalid_query")
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", bad, 400, "invalid_query")
	doJSON(t, "GET", ts.URL+"/api/stats", nil, &st)
	if st.Cache.NegativeHits != 1 {
		t.Fatalf("negative hit not recorded: %+v", st.Cache)
	}
}

// TestV1DetectMinSizeDoesNotCorruptCache: execDetect filters and sorts the
// detection result in place, and with the cache enabled Detect hands every
// caller the slice the cache itself holds — so a minSize-filtered request
// must work on a private copy, or it permanently clobbers the entry later
// unfiltered requests are served from.
func TestV1DetectMinSizeDoesNotCorruptCache(t *testing.T) {
	s, ts := testServer(t)
	s.EnableCache(128, 1<<20, 0)
	type detOut struct {
		Communities []struct {
			Vertices []int32 `json:"vertices"`
		} `json:"communities"`
		Total int `json:"total"`
	}
	var full detOut
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/detect",
		map[string]any{"algorithm": "CODICIL"}, &full)
	if full.Total < 2 {
		t.Fatalf("fixture too small to exercise filtering: %+v", full)
	}
	// Largest-first order: minSize = |largest| drops every smaller community.
	var filtered detOut
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/detect",
		map[string]any{"algorithm": "CODICIL", "minSize": len(full.Communities[0].Vertices)}, &filtered)
	if filtered.Total >= full.Total {
		t.Fatalf("minSize filtered nothing (total %d vs %d); fixture no longer exercises the filter", filtered.Total, full.Total)
	}
	var again detOut
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/detect",
		map[string]any{"algorithm": "CODICIL"}, &again)
	if again.Total != full.Total {
		t.Fatalf("filtered request corrupted the cached entry: total %d, want %d", again.Total, full.Total)
	}
	for i := range full.Communities {
		if !slices.Equal(again.Communities[i].Vertices, full.Communities[i].Vertices) {
			t.Fatalf("community %d changed after the filtered request:\n got %v\nwant %v",
				i, again.Communities[i].Vertices, full.Communities[i].Vertices)
		}
	}
	// All three responses came from one computation: the filtered view was
	// derived from (a copy of) the cached slice, not recomputed.
	var st statsOut
	doJSON(t, "GET", ts.URL+"/api/stats", nil, &st)
	if st.Cache.Computations != 1 {
		t.Fatalf("computations = %d, want 1: %+v", st.Cache.Computations, st.Cache)
	}
}

func TestV1OverloadedEnvelope(t *testing.T) {
	s, ts := testServer(t)
	s.EnableCache(128, 1<<20, 1)
	c := s.exp.Cache()
	// Occupy fig5's single computation slot with a blocking leader, then
	// hit the search route: the HTTP request becomes a second leader and is
	// shed with the 429 envelope.
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), "fig5", 0, 999, "occupier", func(context.Context) (any, int64, error) {
			close(started)
			<-release
			return "x", 1, nil
		})
		done <- err
	}()
	<-started
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/search",
		map[string]any{"algorithm": "ACQ", "names": []string{"A"}, "k": 2}, http.StatusTooManyRequests, "overloaded")
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("occupier: %v", err)
	}
	// Slot free again: the same search now computes.
	var out v1SearchOut
	resp := doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search",
		map[string]any{"algorithm": "ACQ", "names": []string{"A"}, "k": 2}, &out)
	if resp.StatusCode != 200 || len(out.Communities) == 0 {
		t.Fatalf("post-release search: status %d, %+v", resp.StatusCode, out)
	}
	var st statsOut
	doJSON(t, "GET", ts.URL+"/api/stats", nil, &st)
	if st.Cache.Shedded != 1 {
		t.Fatalf("shed not counted: %+v", st.Cache)
	}
}

func TestV1BatchedMutationRoute(t *testing.T) {
	s, ts := testServer(t)
	s.EnableBatcher(api.BatcherOptions{MaxOps: 2, MaxWait: time.Hour})
	// Two concurrent single-op requests: with MaxOps = 2 and an effectively
	// infinite maxWait, neither answers until both arrive, so they must
	// coalesce into exactly one applied batch.
	type mutOut struct {
		api.MutationResult
		ElapsedMS float64 `json:"elapsedMs"`
	}
	outs := make([]mutOut, 2)
	codes := make([]int, 2)
	ops := []map[string]any{
		{"op": "addEdge", "u": 5, "v": 9},
		{"op": "addEdge", "u": 6, "v": 9},
	}
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/mutations", ops[i], &outs[i])
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i := range outs {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		// applied reflects the caller's own single op; version and the graph
		// sizes reflect the combined batch.
		if outs[i].Coalesced != 2 || outs[i].Applied != 1 || outs[i].Version != 1 {
			t.Fatalf("request %d: result = %+v", i, outs[i].MutationResult)
		}
		if outs[i].Journaled { // no data dir configured
			t.Fatalf("request %d: journaled without a catalog", i)
		}
	}
	var st statsOut
	doJSON(t, "GET", ts.URL+"/api/stats", nil, &st)
	if st.Batcher == nil {
		t.Fatal("stats carry no batcher block")
	}
	if st.Batcher.Submissions != 2 || st.Batcher.Batches != 1 || st.Batcher.Ops != 2 || st.Batcher.Coalesced != 2 {
		t.Fatalf("batcher stats = %+v", st.Batcher)
	}
	// Fallback isolation over HTTP: pair a conflicting op (F–J now exists)
	// with a valid one so the size trigger flushes; the combined batch
	// fails, the batcher re-applies per submission, and each caller gets its
	// own verdict.
	var okOut mutOut
	var env envelope
	var okCode, envCode int
	wg.Add(2)
	go func() {
		defer wg.Done()
		resp := doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/mutations",
			map[string]any{"op": "addEdge", "u": 7, "v": 9}, &okOut)
		okCode = resp.StatusCode
	}()
	go func() {
		defer wg.Done()
		resp := doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/mutations",
			map[string]any{"op": "addEdge", "u": 5, "v": 9}, &env)
		envCode = resp.StatusCode
	}()
	wg.Wait()
	if okCode != 200 || okOut.Applied != 1 || okOut.Coalesced != 0 {
		t.Fatalf("valid half: status %d, %+v", okCode, okOut.MutationResult)
	}
	if envCode != http.StatusConflict || env.Code != "mutation_conflict" {
		t.Fatalf("conflicting half: status %d, envelope %+v", envCode, env)
	}
	doJSON(t, "GET", ts.URL+"/api/stats", nil, &st)
	if st.Batcher.Fallbacks != 1 {
		t.Fatalf("fallback not counted: %+v", st.Batcher)
	}
}

// blockCS holds its caller until release closes, ignoring ctx, so a test
// can fill every compute slot for as long as it likes.
type blockCS struct{ started, release chan struct{} }

func (blockCS) Name() string { return "Block" }

func (b blockCS) Search(context.Context, *api.Dataset, api.Query) ([]api.Community, error) {
	b.started <- struct{}{}
	<-b.release
	return nil, nil
}

// TestV1BlockedLeadersNeverDelayHits fills every compute slot with a
// plugin that blocks on a channel, and checks the one admission point:
// while they hold the slots a cached hit answers 200 and a session's state
// reads back, and a new miss waits for a slot until the search timeout
// answers a typed 504. After the release the in-flight gauge reads 0.
func TestV1BlockedLeadersNeverDelayHits(t *testing.T) {
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	b := blockCS{started: make(chan struct{}), release: make(chan struct{})}
	exp.RegisterCS(b)
	s := New(exp, nil)
	const slots = 2
	s.SetSearchLimit(slots)
	s.SetSearchTimeout(100 * time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	search := ts.URL + "/api/v1/datasets/fig5/search"

	// A hang-catcher: what is checked is the answers, not their latency.
	hang := time.AfterFunc(30*time.Second, func() { panic("TestV1BlockedLeadersNeverDelayHits hung for 30 s") })
	defer hang.Stop()
	hot := map[string]any{"algorithm": "ACQ", "names": []string{"A"}, "k": 2}
	if resp := doJSON(t, "POST", search, hot, nil); resp.StatusCode != 200 {
		t.Fatalf("warming search: status %d", resp.StatusCode)
	}
	var st api.ExploreState
	if resp := doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/explore", map[string]any{"vertex": 0, "k": 2}, &st); resp.StatusCode != 200 {
		t.Fatalf("explore: status %d", resp.StatusCode)
	}

	// Released on every exit, so a failure does not leave ts.Close waiting
	// on the blocked requests.
	release := sync.OnceFunc(func() { close(b.release) })
	defer release()
	var held sync.WaitGroup
	for k := 1; k <= slots; k++ {
		held.Add(1)
		go func() {
			defer held.Done()
			body, _ := json.Marshal(map[string]any{"algorithm": "Block", "vertices": []int32{0}, "k": k})
			if resp, err := http.Post(search, "application/json", bytes.NewReader(body)); err == nil {
				resp.Body.Close()
			}
		}()
	}
	for range slots {
		<-b.started
	}
	if got := s.Stats().Cache.InFlight; got != slots {
		t.Fatalf("in flight with every slot held = %d, want %d", got, slots)
	}

	if resp := doJSON(t, "POST", search, hot, nil); resp.StatusCode != 200 {
		t.Fatalf("cached hit: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/api/v1/datasets/fig5/explore/"+st.ID, nil, nil); resp.StatusCode != 200 {
		t.Fatalf("explore get: status %d", resp.StatusCode)
	}
	wantEnvelope(t, "POST", search, map[string]any{"algorithm": "Global", "names": []string{"A"}, "k": 2}, 504, "timeout")

	release()
	held.Wait()
	if got := s.Stats().Cache.InFlight; got != 0 {
		t.Fatalf("in flight after the release = %d, want 0", got)
	}
}
