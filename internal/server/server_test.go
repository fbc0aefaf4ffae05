package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
)

func testServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	exp := api.NewExplorer()
	if _, err := exp.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	s := New(exp, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t testing.TB, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

func TestIndexServed(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("content type = %q", ct)
	}
	// Unknown paths 404.
	resp2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Fatalf("unknown path status = %d", resp2.StatusCode)
	}
}

// TestUIScriptSpeaksV1: the embedded UI names no API route outside /api/v1
// but /api/stats, so it cannot drift back onto a retired surface.
func TestUIScriptSpeaksV1(t *testing.T) {
	rest, n := indexHTML, 0
	for i := strings.Index(rest, "/api/"); i >= 0; i = strings.Index(rest, "/api/") {
		rest = rest[i+len("/api/"):]
		if !strings.HasPrefix(rest, "v1/") && !strings.HasPrefix(rest, "stats") {
			t.Errorf("UI names a route outside /api/v1: /api/%.20s", rest)
		}
		n++
	}
	if n == 0 {
		t.Fatal("UI names no API route")
	}
}

// TestGraphsEndpoint: the dataset listing the UI's graph picker reads lives
// under /api/v1, and the flat routes it replaced are gone.
func TestGraphsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var data struct {
		Datasets []struct {
			Name     string `json:"name"`
			Vertices int    `json:"vertices"`
		} `json:"datasets"`
	}
	doJSON(t, "GET", ts.URL+"/api/v1/datasets", nil, &data)
	if len(data.Datasets) != 1 || data.Datasets[0].Name != "fig5" || data.Datasets[0].Vertices != 10 {
		t.Fatalf("datasets = %+v", data.Datasets)
	}
	for _, flat := range []string{"upload", "graphs", "vertex", "search", "detect", "analyze", "display", "compare"} {
		for _, method := range []string{"GET", "POST"} {
			if resp := doJSON(t, method, ts.URL+"/api/"+flat, nil, nil); resp.StatusCode/100 != 4 {
				t.Errorf("%s /api/%s: status %d, want a 4xx", method, flat, resp.StatusCode)
			}
		}
	}
}

func TestSearchEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var out struct {
		Communities []struct {
			Method         string   `json:"method"`
			Vertices       []int32  `json:"vertices"`
			SharedKeywords []string `json:"sharedKeywords"`
			Names          []string `json:"names"`
			Placement      *struct {
				Points []struct{ X, Y float64 } `json:"points"`
			} `json:"placement"`
		} `json:"communities"`
		ElapsedMS float64 `json:"elapsedMs"`
	}
	postJSON(t, ts.URL+"/api/v1/datasets/fig5/search", map[string]any{
		"algorithm": "ACQ", "names": []string{"A"}, "k": 2, "keywords": []string{"w", "x", "y"},
		"layout": true,
	}, &out)
	if len(out.Communities) != 1 {
		t.Fatalf("communities = %+v", out.Communities)
	}
	c := out.Communities[0]
	if len(c.Vertices) != 3 || len(c.SharedKeywords) != 2 {
		t.Fatalf("community = %+v", c)
	}
	if c.Names[0] != "A" {
		t.Fatalf("names = %v", c.Names)
	}
	if c.Placement == nil || len(c.Placement.Points) != 3 {
		t.Fatalf("placement missing: %+v", c.Placement)
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	_, ts := testServer(t)
	// A stray "dataset" key is ignored like any unknown field: the path
	// names the dataset.
	wantEnvelope(t, "POST", ts.URL+"/api/v1/datasets/nope/search",
		map[string]any{"dataset": "fig5", "names": []string{"A"}, "k": 1}, 404, "dataset_not_found")
	// Malformed body.
	resp, err := http.Post(ts.URL+"/api/v1/datasets/fig5/search", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body status = %d", resp.StatusCode)
	}
}

func TestVertexEndpointWithProfile(t *testing.T) {
	s, ts := testServer(t)
	s.SetProfiles("fig5", map[int32]gen.Profile{
		0: {Name: "A", Areas: []string{"databases"}, Institutes: []string{"hku"}},
	})
	var data struct {
		ID       int32    `json:"id"`
		Degree   int      `json:"degree"`
		Core     int32    `json:"core"`
		Keywords []string `json:"keywords"`
		Profile  *gen.Profile
	}
	doJSON(t, "GET", ts.URL+"/api/v1/datasets/fig5/vertices/A", nil, &data)
	if data.ID != 0 || data.Degree != 4 || data.Core != 3 || len(data.Keywords) != 3 {
		t.Fatalf("vertex = %+v", data)
	}
	if data.Profile == nil || data.Profile.Areas[0] != "databases" {
		t.Fatalf("profile = %+v", data.Profile)
	}
}

func TestDetectEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var out struct {
		Communities []struct {
			Vertices []int32 `json:"vertices"`
		} `json:"communities"`
	}
	postJSON(t, ts.URL+"/api/v1/datasets/fig5/detect", map[string]any{
		"algorithm": "CODICIL", "minSize": 2, "limit": 3,
	}, &out)
	if len(out.Communities) == 0 || len(out.Communities) > 3 {
		t.Fatalf("communities = %+v", out.Communities)
	}
	for _, c := range out.Communities {
		if len(c.Vertices) < 2 {
			t.Fatalf("minSize violated: %v", c.Vertices)
		}
	}
}

func TestAnalyzeAndDisplayEndpoints(t *testing.T) {
	_, ts := testServer(t)
	var analysis struct {
		CPJ   float64 `json:"cpj"`
		CMF   float64 `json:"cmf"`
		Stats struct {
			Vertices int `json:"Vertices"`
		} `json:"stats"`
	}
	postJSON(t, ts.URL+"/api/v1/datasets/fig5/analyze", map[string]any{
		"vertices": []int32{0, 2, 3}, "query": 0,
	}, &analysis)
	if analysis.CPJ <= 0 || analysis.CMF <= 0 {
		t.Fatalf("analysis = %+v", analysis)
	}
	var placement struct {
		Points []struct{ X, Y float64 } `json:"points"`
		Edges  [][2]int32               `json:"edges"`
	}
	postJSON(t, ts.URL+"/api/v1/datasets/fig5/display", map[string]any{
		"vertices": []int32{0, 1, 2, 3}, "width": 100, "height": 100,
	}, &placement)
	if len(placement.Points) != 4 || len(placement.Edges) != 6 {
		t.Fatalf("placement = %+v", placement)
	}
	for _, p := range placement.Points {
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
			t.Fatalf("point out of bounds: %+v", p)
		}
	}
}

func TestCompareEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var out struct {
		Rows []struct {
			Method      string  `json:"method"`
			Communities int     `json:"communities"`
			AvgVertices float64 `json:"avgVertices"`
			CPJ         float64 `json:"cpj"`
			Error       string  `json:"error"`
		} `json:"rows"`
	}
	postJSON(t, ts.URL+"/api/v1/datasets/fig5/compare", map[string]any{"name": "A", "k": 2}, &out)
	if len(out.Rows) != 4 {
		t.Fatalf("rows = %+v", out.Rows)
	}
	byMethod := map[string]int{}
	for i, r := range out.Rows {
		byMethod[r.Method] = i
		if r.Error != "" {
			t.Fatalf("row %s error: %s", r.Method, r.Error)
		}
	}
	for _, m := range []string{"Global", "Local", "CODICIL", "ACQ"} {
		if _, ok := byMethod[m]; !ok {
			t.Fatalf("missing method %s", m)
		}
	}
	// Global's community (2-core of A = 5 vertices) must be ≥ ACQ's (3).
	g := out.Rows[byMethod["Global"]]
	a := out.Rows[byMethod["ACQ"]]
	if g.AvgVertices < a.AvgVertices {
		t.Fatalf("Global %f < ACQ %f vertices", g.AvgVertices, a.AvgVertices)
	}
	// ACQ must win on CPJ (the Figure-6a bars shape).
	if a.CPJ < g.CPJ {
		t.Fatalf("ACQ CPJ %f < Global CPJ %f", a.CPJ, g.CPJ)
	}
}

// TestUploadEndpoint: PUT /api/v1/datasets/{name} takes the graph wire
// format as its whole body; a body that does not parse is a 400.
func TestUploadEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var out struct {
		Name  string `json:"name"`
		Stats struct {
			Vertices int `json:"Vertices"`
		} `json:"stats"`
	}
	doJSON(t, "PUT", ts.URL+"/api/v1/datasets/up", gen.Figure5().ToJSONGraph("up"), &out)
	if out.Name != "up" || out.Stats.Vertices != 10 {
		t.Fatalf("upload = %+v", out)
	}
	// Search the uploaded graph end to end.
	var sr struct {
		Communities []struct {
			Vertices []int32 `json:"vertices"`
		} `json:"communities"`
	}
	postJSON(t, ts.URL+"/api/v1/datasets/up/search", map[string]any{
		"algorithm": "ACQ", "names": []string{"A"}, "k": 2,
	}, &sr)
	if len(sr.Communities) != 1 || len(sr.Communities[0].Vertices) != 3 {
		t.Fatalf("search on uploaded = %+v", sr)
	}
	wantEnvelope(t, "PUT", ts.URL+"/api/v1/datasets/bad", "not a graph", 400, "bad_request")
	wantEnvelope(t, "PUT", ts.URL+"/api/v1/datasets/bad",
		map[string]any{"vertices": "none", "edges": [][2]int32{{0, 1}}}, 400, "bad_request")
	wantEnvelope(t, "PUT", ts.URL+"/api/v1/datasets/bad",
		map[string]any{"vertices": []any{map[string]any{"id": -1}}}, 400, "bad_request")
	// Edge endpoints need no vertex entry: the wire format creates them
	// implicitly, as the flat upload route did.
	doJSON(t, "PUT", ts.URL+"/api/v1/datasets/implicit",
		map[string]any{"vertices": []any{}, "edges": [][2]int32{{0, 1}}}, &out)
	if out.Name != "implicit" || out.Stats.Vertices != 2 {
		t.Fatalf("implicit-vertex upload = %+v", out)
	}
}

// searchBody is an ACQ query for author A on fig5 at k.
func searchBody(k int) []byte {
	b, _ := json.Marshal(map[string]any{"algorithm": "ACQ", "names": []string{"A"}, "k": k})
	return b
}

func TestConcurrentSearches(t *testing.T) {
	_, ts := testServer(t)
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			resp, err := http.Post(ts.URL+"/api/v1/datasets/fig5/search", "application/json", bytes.NewReader(searchBody(1+i%3)))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	postJSON(t, ts.URL+"/api/v1/datasets/fig5/search", map[string]any{
		"algorithm": "ACQ", "names": []string{"A"}, "k": 2,
	}, nil)
	var snap StatsSnapshot
	doJSON(t, "GET", ts.URL+"/api/stats", nil, &snap)
	if snap.Searches != 1 || snap.Requests < 2 || snap.Cache.ComputeLimit < 1 {
		t.Fatalf("stats = %+v", snap)
	}
	if snap.Cache.InFlight != 0 {
		t.Fatalf("searches still in flight: %+v", snap)
	}
	// Errors counter sees a failed request.
	postJSON(t, ts.URL+"/api/v1/datasets/nope/search", map[string]any{"k": 1}, nil)
	doJSON(t, "GET", ts.URL+"/api/stats", nil, &snap)
	if snap.Errors == 0 {
		t.Fatalf("error not counted: %+v", snap)
	}
}

// TestSearchLimitQueues pins the compute limit to 1 and fires a burst of
// searches: all must wait for the single slot (or join the computation
// holding it) and still succeed.
func TestSearchLimitQueues(t *testing.T) {
	s, ts := testServer(t)
	s.SetSearchLimit(1)
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/v1/datasets/fig5/search", "application/json", bytes.NewReader(searchBody(1+i%3)))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.Stats().Searches; got != 12 {
		t.Fatalf("searches counted = %d, want 12", got)
	}
}

// TestConcurrentMixedRequestsRace drives every mutable code path reachable
// from Handler() at once — searches, vertex lookups with profile reads,
// profile installs, uploads, stats reads, and a compute-limit change — so
// `go test -race ./internal/server` audits the server's shared state.
func TestConcurrentMixedRequestsRace(t *testing.T) {
	s, ts := testServer(t)
	var wg sync.WaitGroup
	do := func(fn func(i int)) {
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) { defer wg.Done(); fn(i) }(i)
		}
	}
	send := func(method, path string, body []byte) {
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	do(func(i int) { send("POST", "/api/v1/datasets/fig5/search", searchBody(1+i%3)) })
	do(func(i int) {
		s.SetProfiles("fig5", map[int32]gen.Profile{int32(i): {Name: "p"}})
	})
	do(func(i int) { send("GET", "/api/v1/datasets/fig5/vertices/A", nil) })
	do(func(i int) { send("GET", "/api/stats", nil) })
	do(func(i int) {
		if i == 0 {
			s.SetSearchLimit(4)
		}
		b, _ := json.Marshal(gen.Figure5().ToJSONGraph("up"))
		send("PUT", fmt.Sprintf("/api/v1/datasets/up%d", i), b)
	})
	wg.Wait()
}
