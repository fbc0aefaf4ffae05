package server

// The /api/v1 contract suite. Every test here is named TestV1* so the
// contract can run on its own (go test -run TestV1): the names are part of
// the contract too.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
)

// doJSON issues a request with a JSON body and decodes the JSON response.
func doJSON(t testing.TB, method, url string, body any, out any) *http.Response {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, url, err)
		}
	}
	return resp
}

// envelope is the v1 error shape.
type envelope struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func wantEnvelope(t testing.TB, method, url string, body any, status int, code string) {
	t.Helper()
	var env envelope
	resp := doJSON(t, method, url, body, &env)
	if resp.StatusCode != status {
		t.Fatalf("%s %s: status = %d, want %d (envelope %+v)", method, url, resp.StatusCode, status, env)
	}
	if env.Code != code {
		t.Fatalf("%s %s: code = %q, want %q (error %q)", method, url, env.Code, code, env.Error)
	}
	if env.Error == "" {
		t.Fatalf("%s %s: empty error message", method, url)
	}
}

func TestV1DatasetsResource(t *testing.T) {
	_, ts := testServer(t)
	var list struct {
		Datasets []graphInfo `json:"datasets"`
		Total    int         `json:"total"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/datasets", nil, &list)
	if list.Total != 1 || len(list.Datasets) != 1 || list.Datasets[0].Name != "fig5" {
		t.Fatalf("datasets = %+v", list)
	}
	var one graphInfo
	resp := doJSON(t, "GET", ts.URL+"/api/v1/datasets/fig5", nil, &one)
	if resp.StatusCode != 200 || one.Vertices != 10 {
		t.Fatalf("dataset fig5 = %+v (status %d)", one, resp.StatusCode)
	}
	wantEnvelope(t, "GET", ts.URL+"/api/v1/datasets/nope", nil, 404, "dataset_not_found")

	var algos struct {
		CS []string `json:"cs"`
		CD []string `json:"cd"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/algorithms", nil, &algos)
	if len(algos.CS) == 0 || len(algos.CD) == 0 {
		t.Fatalf("algorithms = %+v", algos)
	}
}

// TestV1DeleteDataset pins the delete contract: the dataset disappears from
// the registry AND the on-disk catalog (snapshot + journal), open exploration
// sessions on it close, and unknown names answer the typed 404. Replicas
// lean on this — their tailers turn the resulting 404s into an un-claim.
func TestV1DeleteDataset(t *testing.T) {
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

	// A mutation grows a journal tail on disk; an explore create opens a
	// session — delete must clean up both.
	var mresp mutationResponse
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/mutations",
		map[string]any{"op": "addEdge", "u": 0, "v": 9}, &mresp)
	if mresp.Version != 1 || !mresp.Journaled {
		t.Fatalf("mutation: %+v", mresp)
	}
	var st v1State
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/explore",
		map[string]any{"name": "A", "k": 2}, &st)
	if st.ID == "" {
		t.Fatalf("explore create: %+v", st)
	}

	var del struct {
		Deleted string `json:"deleted"`
	}
	resp := doJSON(t, "DELETE", ts.URL+"/api/v1/datasets/fig5", nil, &del)
	if resp.StatusCode != 200 || del.Deleted != "fig5" {
		t.Fatalf("delete: status %d body %+v", resp.StatusCode, del)
	}

	// Gone everywhere: registry, session table, and the catalog files.
	wantEnvelope(t, "GET", ts.URL+"/api/v1/datasets/fig5", nil, 404, "dataset_not_found")
	wantEnvelope(t, "GET", ts.URL+"/api/v1/datasets/fig5/explore/"+st.ID, nil, 404, "session_not_found")
	if _, err := os.Stat(snapshotPath(dir, "fig5")); !os.IsNotExist(err) {
		t.Fatalf("catalog snapshot survived delete: err=%v", err)
	}
	if _, err := os.Stat(journalPath(dir, "fig5")); !os.IsNotExist(err) {
		t.Fatalf("journal survived delete: err=%v", err)
	}
	if snap := s.Stats(); snap.Explore.Active != 0 {
		t.Fatalf("sessions not closed on delete: %+v", snap.Explore)
	}

	// Deleting again (or any unknown name) is the typed 404.
	wantEnvelope(t, "DELETE", ts.URL+"/api/v1/datasets/fig5", nil, 404, "dataset_not_found")
}

func TestV1VertexResource(t *testing.T) {
	_, ts := testServer(t)
	var byName struct {
		ID   int32  `json:"id"`
		Name string `json:"name"`
		Core int32  `json:"core"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/datasets/fig5/vertices/A", nil, &byName)
	if byName.ID != 0 || byName.Name != "A" || byName.Core != 3 {
		t.Fatalf("vertex by name = %+v", byName)
	}
	var byID struct {
		ID   int32  `json:"id"`
		Name string `json:"name"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/datasets/fig5/vertices/0", nil, &byID)
	if byID.ID != 0 || byID.Name != "A" {
		t.Fatalf("vertex by id = %+v", byID)
	}
	wantEnvelope(t, "GET", ts.URL+"/api/v1/datasets/fig5/vertices/ZZ", nil, 404, "vertex_not_found")
	wantEnvelope(t, "GET", ts.URL+"/api/v1/datasets/fig5/vertices/999", nil, 404, "vertex_not_found")
	wantEnvelope(t, "GET", ts.URL+"/api/v1/datasets/nope/vertices/0", nil, 404, "dataset_not_found")
}

// v1SearchOut is the paginated v1 search response.
type v1SearchOut struct {
	Communities []struct {
		Vertices []int32  `json:"vertices"`
		Names    []string `json:"names"`
	} `json:"communities"`
	Total  int `json:"total"`
	Limit  int `json:"limit"`
	Offset int `json:"offset"`
}

func TestV1SearchPagination(t *testing.T) {
	_, ts := testServer(t)
	// KTruss at k=2 on fig5 yields multiple communities for A.
	var full v1SearchOut
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", map[string]any{
		"algorithm": "KTruss", "names": []string{"A"}, "k": 2,
	}, &full)
	if full.Total < 2 {
		t.Skipf("need ≥ 2 communities to paginate, got %d", full.Total)
	}
	var page v1SearchOut
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", map[string]any{
		"algorithm": "KTruss", "names": []string{"A"}, "k": 2, "limit": 1, "offset": 1,
	}, &page)
	if page.Total != full.Total || len(page.Communities) != 1 || page.Limit != 1 || page.Offset != 1 {
		t.Fatalf("page = %+v (full total %d)", page, full.Total)
	}
	if fmt.Sprint(page.Communities[0].Vertices) != fmt.Sprint(full.Communities[1].Vertices) {
		t.Fatalf("offset 1 returned %v, want %v", page.Communities[0].Vertices, full.Communities[1].Vertices)
	}
	// Offset past the end: empty page, correct total.
	var empty v1SearchOut
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", map[string]any{
		"algorithm": "KTruss", "names": []string{"A"}, "k": 2, "offset": 100,
	}, &empty)
	if len(empty.Communities) != 0 || empty.Total != full.Total {
		t.Fatalf("past-the-end page = %+v", empty)
	}
}

func TestV1SearchErrors(t *testing.T) {
	_, ts := testServer(t)
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/nope/search",
		map[string]any{"names": []string{"A"}, "k": 1}, 404, "dataset_not_found")
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/search",
		map[string]any{"names": []string{"ZZ"}, "k": 1}, 404, "vertex_not_found")
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/search",
		map[string]any{"k": 1}, 400, "invalid_query")
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/search",
		map[string]any{"names": []string{"A"}, "algorithm": "nope", "k": 1}, 400, "unknown_algorithm")
	// Unknown Params key and malformed value are invalid_query.
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/search",
		map[string]any{"names": []string{"A"}, "k": 1, "params": map[string]string{"bogus": "1"}}, 400, "invalid_query")
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/search",
		map[string]any{"names": []string{"A"}, "k": 1, "params": map[string]string{"maxResults": "many"}}, 400, "invalid_query")
}

func TestV1SearchParams(t *testing.T) {
	_, ts := testServer(t)
	// maxResults=1 caps the KTruss community list before pagination.
	var out v1SearchOut
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", map[string]any{
		"algorithm": "KTruss", "names": []string{"A"}, "k": 2,
		"params": map[string]string{"maxResults": "1"},
	}, &out)
	if out.Total != 1 || len(out.Communities) != 1 {
		t.Fatalf("maxResults=1: %+v", out)
	}
	// variant selects the ACQ algorithm flavor; all variants agree on fig5.
	for _, variant := range []string{"Dec", "Inc-S", "Inc-T", "Basic"} {
		var v v1SearchOut
		doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", map[string]any{
			"algorithm": "ACQ", "names": []string{"A"}, "k": 2,
			"params": map[string]string{"variant": variant},
		}, &v)
		if len(v.Communities) != 1 || len(v.Communities[0].Vertices) != 3 {
			t.Fatalf("variant %s: %+v", variant, v)
		}
	}
	// Local accepts a budget override.
	var l v1SearchOut
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", map[string]any{
		"algorithm": "Local", "names": []string{"A"}, "k": 2,
		"params": map[string]string{"budget": "64"},
	}, &l)
	if len(l.Communities) != 1 {
		t.Fatalf("Local budget: %+v", l)
	}
	// budget is not a Global param.
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/search",
		map[string]any{"algorithm": "Global", "names": []string{"A"}, "k": 2,
			"params": map[string]string{"budget": "64"}}, 400, "invalid_query")
}

func TestV1DetectPagination(t *testing.T) {
	_, ts := testServer(t)
	var full struct {
		Communities []struct {
			Vertices []int32 `json:"vertices"`
		} `json:"communities"`
		Total int `json:"total"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/detect", map[string]any{
		"algorithm": "CODICIL",
	}, &full)
	if full.Total == 0 || len(full.Communities) != full.Total {
		t.Fatalf("detect full = %+v", full)
	}
	var page struct {
		Communities []struct {
			Vertices []int32 `json:"vertices"`
		} `json:"communities"`
		Total int `json:"total"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/detect", map[string]any{
		"algorithm": "CODICIL", "limit": 1,
	}, &page)
	if page.Total != full.Total || len(page.Communities) != 1 {
		t.Fatalf("detect page = %+v", page)
	}
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/nope/detect", map[string]any{}, 404, "dataset_not_found")
}

func TestV1CompareAnalyzeDisplay(t *testing.T) {
	_, ts := testServer(t)
	var cmp struct {
		Rows []struct {
			Method string `json:"method"`
			Error  string `json:"error"`
		} `json:"rows"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/compare", map[string]any{
		"name": "A", "k": 2,
	}, &cmp)
	if len(cmp.Rows) != 4 {
		t.Fatalf("compare rows = %+v", cmp.Rows)
	}
	var analysis struct {
		CPJ float64 `json:"cpj"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/analyze", map[string]any{
		"vertices": []int32{0, 2, 3}, "query": 0,
	}, &analysis)
	if analysis.CPJ <= 0 {
		t.Fatalf("analysis = %+v", analysis)
	}
	var pl struct {
		Points []struct{ X, Y float64 } `json:"points"`
	}
	doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/display", map[string]any{
		"vertices": []int32{0, 1, 2, 3}, "width": 100, "height": 100,
	}, &pl)
	if len(pl.Points) != 4 {
		t.Fatalf("placement = %+v", pl)
	}
}

// TestV1AnalyzeDisplayRejectOutOfRangeIDs: community ids come from the
// client, so one the graph does not have is a typed 400, never a panic.
func TestV1AnalyzeDisplayRejectOutOfRangeIDs(t *testing.T) {
	_, ts := testServer(t)
	for _, c := range []struct {
		route string
		body  map[string]any
	}{
		{"analyze", map[string]any{"vertices": []int32{0}, "query": -1}},
		{"analyze", map[string]any{"vertices": []int32{0, 999}, "query": 0}},
		{"analyze", map[string]any{"vertices": []int32{0, -1}, "query": 0}},
		{"display", map[string]any{"vertices": []int32{0, 999}}},
		{"display", map[string]any{"vertices": []int32{-1}}},
	} {
		wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/"+c.route, c.body, 400, "invalid_query")
	}
}

// v1State mirrors api.ExploreState for decoding.
type v1State struct {
	ID          string  `json:"id"`
	K           int     `json:"k"`
	MaxK        int     `json:"maxK"`
	Steps       int     `json:"steps"`
	Ring        []int32 `json:"ring"`
	RingSize    int     `json:"ringSize"`
	Communities []struct {
		Vertices []int32 `json:"vertices"`
	} `json:"communities"`
}

func TestV1ExploreRoundTrip(t *testing.T) {
	s, ts := testServer(t)
	base := ts.URL + "/api/v1/datasets/fig5/explore"

	var st v1State
	resp := doJSON(t, "POST", base, map[string]any{"name": "A", "k": 2}, &st)
	if resp.StatusCode != 200 || st.ID == "" || st.K != 2 || st.RingSize != 5 {
		t.Fatalf("create: status %d state %+v", resp.StatusCode, st)
	}

	// Contract to k=3: the ring shrinks to the K4.
	var st3 v1State
	doJSON(t, "POST", base+"/"+st.ID+"/step", map[string]any{"action": "contract"}, &st3)
	if st3.K != 3 || st3.RingSize >= st.RingSize || st3.Steps != 1 {
		t.Fatalf("contract: %+v", st3)
	}
	in2 := map[int32]bool{}
	for _, v := range st.Ring {
		in2[v] = true
	}
	for _, v := range st3.Ring {
		if !in2[v] {
			t.Fatalf("ring at k=3 not nested in k=2: %v vs %v", st3.Ring, st.Ring)
		}
	}

	// Past the max: typed 400, session unmoved.
	wantEnvelope(t, "POST", base+"/"+st.ID+"/step", map[string]any{"action": "contract"}, 400, "invalid_query")

	// Expand back: the k=2 ring returns.
	var back v1State
	doJSON(t, "POST", base+"/"+st.ID+"/step", map[string]any{"action": "expand"}, &back)
	if back.K != 2 || back.RingSize != st.RingSize {
		t.Fatalf("expand: %+v", back)
	}

	// GET reads without stepping.
	var got v1State
	doJSON(t, "GET", base+"/"+st.ID, nil, &got)
	if got.K != 2 || got.Steps != 2 {
		t.Fatalf("get: %+v", got)
	}

	// Session stats are visible in /api/stats.
	snap := s.Stats()
	if snap.Explore.Active != 1 || snap.Explore.Created != 1 || snap.Explore.Steps != 2 {
		t.Fatalf("explore stats = %+v", snap.Explore)
	}

	// DELETE closes; the id is gone.
	var closed struct {
		Closed bool `json:"closed"`
	}
	doJSON(t, "DELETE", base+"/"+st.ID, nil, &closed)
	if !closed.Closed {
		t.Fatalf("close = %+v", closed)
	}
	wantEnvelope(t, "GET", base+"/"+st.ID, nil, 404, "session_not_found")
	if snap := s.Stats(); snap.Explore.Active != 0 || snap.Explore.Closed != 1 {
		t.Fatalf("explore stats after close = %+v", snap.Explore)
	}
}

func TestV1ExploreErrors(t *testing.T) {
	_, ts := testServer(t)
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/nope/explore",
		map[string]any{"name": "A", "k": 2}, 404, "dataset_not_found")
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/explore",
		map[string]any{"name": "ZZ", "k": 2}, 404, "vertex_not_found")
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/explore",
		map[string]any{"name": "A", "k": 9}, 400, "invalid_query")
	// Neither name nor vertex: rejected, never silently anchored at 0.
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/explore",
		map[string]any{"k": 2}, 400, "invalid_query")
	// vertex 0 explicitly is a legitimate anchor.
	var st v1State
	if resp := doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/explore",
		map[string]any{"vertex": 0, "k": 2}, &st); resp.StatusCode != 200 {
		t.Fatalf("explicit vertex 0: status %d", resp.StatusCode)
	}
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/explore/nosuch/step",
		map[string]any{"action": "expand"}, 404, "session_not_found")
	wantEnvelope(t, "DELETE", ts.URL+"/api/v1/datasets/fig5/explore/nosuch", nil, 404, "session_not_found")
}

// slowCS is a test CS plugin that blocks until its context is canceled —
// the deterministic "search that outlives the deadline".
type slowCS struct{}

func (slowCS) Name() string { return "Slow" }

func (slowCS) Search(ctx context.Context, ds *api.Dataset, q api.Query) ([]api.Community, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestV1SearchTimeoutFreesSlot pins the compute limit to 1, sets a short
// search timeout, and fires a request at an algorithm that never returns on
// its own: the response must be a typed 504, the compute slot must be free
// again afterwards (a fast follow-up search succeeds), and the cache's
// in-flight gauge must drop to zero.
func TestV1SearchTimeoutFreesSlot(t *testing.T) {
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	exp.RegisterCS(slowCS{})
	s := New(exp, nil)
	s.SetSearchLimit(1)
	s.SetSearchTimeout(50 * time.Millisecond)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/fig5/search",
		map[string]any{"algorithm": "Slow", "names": []string{"A"}, "k": 2}, 504, "timeout")
	// A hang-catcher: the 504 and the freed slot below are the contract; the
	// clock only tells a request that outlived its deadline by far.
	if lat := time.Since(start); lat > 30*time.Second {
		t.Fatalf("timed-out request took %v", lat)
	}
	if snap := s.Stats(); snap.Cache.InFlight != 0 || snap.TimedOut == 0 {
		t.Fatalf("stats after timeout = %+v", snap)
	}

	// The single slot is free again: a normal search completes.
	var out v1SearchOut
	resp := doJSON(t, "POST", ts.URL+"/api/v1/datasets/fig5/search", map[string]any{
		"algorithm": "ACQ", "names": []string{"A"}, "k": 2,
	}, &out)
	if resp.StatusCode != 200 || len(out.Communities) != 1 {
		t.Fatalf("follow-up search: status %d out %+v", resp.StatusCode, out)
	}
}
