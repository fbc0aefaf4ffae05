package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/layout"
	"cexplorer/internal/repl"
)

// The response structs the streaming encoder replaced, kept as the
// reference it must match byte for byte: these, pushed through
// encoding/json, are what every community-carrying body used to be.
type refCommunity struct {
	api.Community
	Names     []string       `json:"names"`
	Placement *api.Placement `json:"placement,omitempty"`
}

type refSearch struct {
	Communities []refCommunity `json:"communities"`
	ElapsedMS   float64        `json:"elapsedMs"`
}

type refPaged[T any] struct {
	Communities T       `json:"communities"`
	Total       int     `json:"total"`
	Limit       int     `json:"limit"`
	Offset      int     `json:"offset"`
	ElapsedMS   float64 `json:"elapsedMs"`
}

func reflected(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("reference encoding: %v", err)
	}
	return buf.Bytes()
}

// referencePage renders a /search or /detect body the way the handlers did
// before the encoder: the same arguments as communityPage, but with the
// placement as a value.
func referencePage(t testing.TB, page []api.Community, g *graph.Graph, place func(api.Community) *api.Placement, info *pageInfo, elapsed time.Duration) []byte {
	var list any = page
	if g != nil {
		dtos := make([]refCommunity, 0, len(page))
		for _, c := range page {
			names := make([]string, len(c.Vertices))
			for i, v := range c.Vertices {
				names[i] = g.Name(v)
			}
			dto := refCommunity{Community: c, Names: names}
			if place != nil {
				dto.Placement = place(c)
			}
			dtos = append(dtos, dto)
		}
		list = dtos
	}
	switch {
	case info != nil:
		return reflected(t, refPaged[any]{list, info.total, info.limit, info.offset, msec(elapsed)})
	case g != nil:
		return reflected(t, refSearch{list.([]refCommunity), msec(elapsed)})
	default:
		return reflected(t, map[string]any{"communities": list, "elapsedMs": msec(elapsed)})
	}
}

// encoded runs body over the encoder into memory.
func encoded(body func(e *pageEncoder)) []byte {
	rec := httptest.NewRecorder()
	encodePage(rec, body)
	return rec.Body.Bytes()
}

// checkPage holds communityPage to referencePage on one input.
func checkPage(t testing.TB, page []api.Community, g *graph.Graph, pl *api.Placement, info *pageInfo, elapsed time.Duration) {
	t.Helper()
	var place func(api.Community) []byte
	var refPlace func(api.Community) *api.Placement
	if pl != nil {
		b, err := json.Marshal(pl)
		if err != nil {
			t.Fatal(err)
		}
		place = func(api.Community) []byte { return b }
		refPlace = func(api.Community) *api.Placement { return pl }
	}
	var names *quotedNames
	if g != nil {
		names = quoteNames(g).(*quotedNames)
	}
	got := encoded(func(e *pageEncoder) { e.communityPage(page, names, place, info, elapsed) })
	if want := referencePage(t, page, g, refPlace, info, elapsed); !bytes.Equal(got, want) {
		t.Fatalf("encoder and encoding/json disagree (names %v, paged %v):\n got %s\nwant %s",
			g != nil, info != nil, clip(got), clip(want))
	}
}

func clip(b []byte) string {
	if len(b) > 600 {
		return fmt.Sprintf("%s…%s (%d bytes)", b[:300], b[len(b)-300:], len(b))
	}
	return string(b)
}

// FuzzEncodeCommunityPage holds the hand-written encoder to encoding/json,
// byte for byte, over hostile names (quotes, backslashes, control bytes,
// <>&, U+2028, invalid UTF-8, empty), nil, empty and one-element lists,
// keywords and theme present, empty and absent, a placement present or
// absent, all four body shapes, and the explore state built from the same
// material.
func FuzzEncodeCommunityPage(f *testing.F) {
	f.Add("Jim Gray", "Michael Stonebraker", "x", "ACQ", "data", uint8(0xff), int64(1234567))
	f.Add(`say "hi"`, `back\slash`, "tab\there\nnewline\x00\x1f\x7f", "<script>&amp;", "\b\f\r", uint8(0x7b), int64(0))
	f.Add("line\u2028sep\u2029", "bad\xffutf8\xc0\xaf", "", "", "\u00e9\u4e2d\u6587\U0001F600\ufffd", uint8(0x36), int64(999))
	f.Add("", "", "", "Global", "", uint8(0xe3), int64(-1500))
	f.Add("\xe2\x80", "a\xe2\x80\xa8", "\xed\xa0\x80", "m", "k", uint8(0x91), int64(1<<53))
	f.Fuzz(func(t *testing.T, n0, n1, n2, method, kw string, flags uint8, elapsedNS int64) {
		b := graph.NewBuilder(3, 2)
		for _, n := range []string{n0, n1, n2} {
			b.AddVertex(n, kw)
		}
		b.AddEdge(0, 1)
		b.AddEdge(1, 2)
		g := b.MustBuild() // unnamed when all three names are empty

		full := api.Community{Method: method, Vertices: []int32{0, 1, 2}}
		if flags&4 != 0 {
			full.SharedKeywords = []string{kw, n1}
		} else if flags&16 != 0 {
			full.SharedKeywords = []string{}
		}
		if flags&8 != 0 {
			full.Theme = []string{n2, kw, n0}
		}
		var page []api.Community
		switch flags & 3 {
		case 1:
			page = []api.Community{}
		case 2:
			page = []api.Community{{Method: method, Vertices: []int32{2}}}
		case 3:
			page = []api.Community{full, {Method: kw}, {Vertices: []int32{}, Theme: []string{}}, full}
		}
		var pl *api.Placement
		if flags&128 != 0 {
			sub, err := api.NewDataset("f", g).Display(full, layout.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			pl = sub
		}
		var info *pageInfo
		if flags&64 != 0 {
			info = &pageInfo{len(page) + int(flags), int(flags) - 100, int(elapsedNS % 7)}
		}
		elapsed := time.Duration(elapsedNS)
		if flags&32 != 0 {
			checkPage(t, page, g, pl, info, elapsed)
		} else {
			checkPage(t, page, nil, nil, info, elapsed)
		}

		zone := time.FixedZone("", int(flags)*300-36000)
		st := &api.ExploreState{
			ID: n0, Dataset: n1, Vertex: int32(flags), K: int(elapsedNS % 9), Keywords: full.SharedKeywords,
			Steps: int(flags) - 7, MaxK: 8, AnchorCore: -int32(flags & 3), RingSize: int(flags & 3), Communities: page,
			CreatedAt: time.Unix(0, elapsedNS).In(zone), ExpiresAt: time.Unix(elapsedNS%4_000_000_000, 0).UTC(),
		}
		if flags&3 != 0 {
			st.Ring = full.Vertices[:flags&3-1]
		}
		got := encoded(func(e *pageEncoder) { e.exploreState(st) })
		if want := reflected(t, st); !bytes.Equal(got, want) {
			t.Fatalf("explore state: encoder and encoding/json disagree:\n got %s\nwant %s", got, want)
		}
	})
}

// TestAppendJSONStringEveryByte: every byte value, and every pair of them,
// at the start, in the middle and at the end of a string, escapes exactly
// as encoding/json escapes it.
func TestAppendJSONStringEveryByte(t *testing.T) {
	check := func(s string) {
		want, _ := json.Marshal(s)
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, want %s", s, got, want)
		}
	}
	for a := range 256 {
		for b := range 256 {
			pair := string([]byte{byte(a), byte(b)})
			check(pair)
			check("plain" + pair + "text")
		}
		check("tail" + string([]byte{byte(a)}))
	}
	check("\xe2\x80\xa8\xe2\x80\xa9 \xe2\x80 \xef\xbf\xbd \xf0\x9f\x98\x80\xf0\x9f")
}

// TestEncoderKnowsEveryField fails when a response struct gains a field the
// hand-written encoder would silently drop.
func TestEncoderKnowsEveryField(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{{api.Community{}, 4}, {api.ExploreState{}, 13}} {
		if n := reflect.TypeOf(c.v).NumField(); n != c.want {
			t.Errorf("%T has %d fields, the encoder in encode.go writes %d: teach it the new one", c.v, n, c.want)
		}
	}
}

// namedGraph is a path over n vertices named like authors, every 97th name
// needing the escaping slow path.
func namedGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, n)
	for i := range n {
		name := "Author Name-" + strconv.Itoa(i)
		if i%97 == 0 {
			name = "Renée <O'Neil> & \"Søn\" " + strconv.Itoa(i)
		}
		b.AddVertex(name, "kw")
		if i > 0 {
			b.AddEdge(int32(i-1), int32(i))
		}
	}
	return b.MustBuild()
}

func firstN(n int) []int32 {
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(i)
	}
	return vs
}

// TestEncoderMatchesReflectionOnRealAnswers is the differential on real
// responses: the answers of every built-in algorithm on the paper's example
// and on a generated DBLP graph, an answer long enough to be flushed many
// times, and the v1 bodies as served over HTTP, which must survive a decode
// into the old structs and a re-encode by encoding/json unchanged.
func TestEncoderMatchesReflectionOnRealAnswers(t *testing.T) {
	exp := api.NewExplorer()
	fig, err := exp.AddGraph("fig5", gen.Figure5())
	if err != nil {
		t.Fatal(err)
	}
	cfg := gen.SmallDBLPConfig()
	cfg.Authors = 1500
	dblp, err := exp.AddGraph("dblp", gen.GenerateDBLP(cfg).Graph)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, ds := range []*api.Dataset{fig, dblp} {
		for _, algo := range exp.CSAlgorithms() {
			for _, k := range []int{1, 2, 3} {
				comms, err := exp.SearchOn(ctx, ds, algo, api.Query{Vertices: []int32{0}, K: k})
				if err != nil {
					continue // no community at this k: an envelope, not a page
				}
				checkPage(t, comms, ds.Graph, nil, nil, 1234*time.Microsecond)
				checkPage(t, comms, ds.Graph, nil, &pageInfo{len(comms), 0, 0}, 0)
			}
		}
		comms, err := exp.Detect(ctx, ds.Name, "CODICIL")
		if err != nil {
			t.Fatal(err)
		}
		checkPage(t, comms, nil, nil, nil, time.Second)
		checkPage(t, comms, nil, nil, &pageInfo{len(comms), 5, 1}, 17*time.Microsecond)
	}

	big := namedGraph(50000)
	page := []api.Community{{Method: "ACQ", Vertices: firstN(50000), Theme: []string{"kw"}}, {Method: "ACQ", Vertices: firstN(3)}}
	checkPage(t, page, big, nil, &pageInfo{2, 0, 0}, 3*time.Millisecond)
	unnamed := graph.NewBuilder(0, 0)
	unnamed.AddVertexIDs(49999)
	checkPage(t, page, unnamed.MustBuild(), nil, nil, 3*time.Millisecond)

	ts := httptest.NewServer(New(exp, nil).Handler())
	defer ts.Close()
	roundTrip := func(path string, req any, into any) {
		t.Helper()
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, got)
		}
		if err := json.Unmarshal(got, into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if want := reflected(t, into); !bytes.Equal(got, want) {
			t.Errorf("%s: body is not what encoding/json makes of it:\n got %s\nwant %s", path, clip(got), clip(want))
		}
	}
	search := map[string]any{"dataset": "fig5", "names": []string{"A"}, "k": 2, "keywords": []string{"w", "x", "y"}, "layout": true, "limit": 5}
	roundTrip("/api/search", search, &refSearch{})
	roundTrip("/api/v1/datasets/fig5/search", search, &refPaged[[]refCommunity]{})
	detect := map[string]any{"dataset": "dblp", "limit": 3}
	roundTrip("/api/detect", detect, &struct {
		Communities []api.Community `json:"communities"`
		ElapsedMS   float64         `json:"elapsedMs"`
	}{})
	roundTrip("/api/v1/datasets/dblp/detect", detect, &refPaged[[]api.Community]{})
	roundTrip("/api/v1/datasets/dblp/explore", map[string]any{"vertex": 0, "k": 2}, &api.ExploreState{})
}

// fixedCS answers with one community of the first q.K vertices.
type fixedCS struct{}

func (fixedCS) Name() string { return "Fixed" }

func (fixedCS) Search(_ context.Context, _ *api.Dataset, q api.Query) ([]api.Community, error) {
	return []api.Community{{Method: "Fixed", Vertices: firstN(q.K)}}, nil
}

// discardWriter is a ResponseWriter that keeps nothing, so that what a
// handler call allocates is the handler's doing.
type discardWriter struct {
	h      http.Header
	writes int
	failAt int // the write that fails and every later one (0 = none)
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(p []byte) (int, error) {
	if w.writes++; w.failAt > 0 && w.writes >= w.failAt {
		return 0, errors.New("client hung up")
	}
	return len(p), nil
}

func fixedServer(t testing.TB, n int) *Server {
	exp := api.NewExplorer()
	exp.RegisterCS(fixedCS{})
	if _, err := exp.AddGraph("big", namedGraph(n)); err != nil {
		t.Fatal(err)
	}
	s := New(exp, nil)
	s.EnableCache(0, 0, 0)
	return s
}

func fixedSearch(h http.Handler, w http.ResponseWriter, k int) {
	body := `{"algorithm":"Fixed","vertices":[0],"k":` + strconv.Itoa(k) + `}`
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/v1/datasets/big/search", strings.NewReader(body)))
}

// TestSearchHitAllocationCeiling: a cache-hit search allocates a fixed
// number of objects whatever the size of the answer — no name slice, no
// DTO list, no whole-body buffer.
func TestSearchHitAllocationCeiling(t *testing.T) {
	h := fixedServer(t, 50000).Handler()
	w := &discardWriter{h: http.Header{}}
	allocs := func(k int) float64 {
		fixedSearch(h, w, k) // fill the cache
		return testing.AllocsPerRun(20, func() { fixedSearch(h, w, k) })
	}
	small, large := allocs(100), allocs(50000)
	t.Logf("allocations per cache-hit search: %.0f at 100 vertices, %.0f at 50,000", small, large)
	// The slack is for a collection emptying the encoder pool mid-run.
	if large > small+4 || large > 150 {
		t.Errorf("a 50,000-vertex hit allocates %.0f objects, a 100-vertex one %.0f: the cost must not grow with the answer", large, small)
	}
}

// TestResponseAbortCountedNotLogged: a client that hangs up mid-body stops
// the encoder at the failed write and is counted, with no log line.
func TestResponseAbortCountedNotLogged(t *testing.T) {
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	s := fixedServer(t, 50000)
	h := s.Handler()
	w := &discardWriter{h: http.Header{}, failAt: 2}
	fixedSearch(h, w, 50000) // over 1 MB: a dozen flushes if none failed
	if w.writes != 2 {
		t.Errorf("encoder wrote %d times, want it to stop at the failed second write", w.writes)
	}
	w = &discardWriter{h: http.Header{}, failAt: 1}
	h.ServeHTTP(w, httptest.NewRequest("GET", "/api/stats", nil))
	if got := s.Stats().ResponseAborts; got != 2 {
		t.Errorf("responseAborts = %d, want 2 (one streamed page, one writeJSON body)", got)
	}
	if logged.Len() > 0 {
		t.Errorf("a hung-up client was logged: %s", logged.String())
	}
}

// TestSearchNamesComeFromTheSearchedVersion interleaves addVertex+addEdge
// batches with searches whose answer grows by the new vertex. Resolving the
// dataset twice let an answer from the newer version be named against the
// older graph: an id past its name table, a panic mid-response. Every
// response must be whole, report its version, hold only ids that version
// has, and name each of them correctly.
func TestSearchNamesComeFromTheSearchedVersion(t *testing.T) {
	s, ts := testServer(t)
	base := gen.Figure5()
	// One batch per answered search keeps the two interleaved whatever the
	// scheduler does.
	answered := make(chan struct{}, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/api/v1/datasets/fig5/search", "application/json",
					strings.NewReader(`{"algorithm":"Global","names":["A"],"k":1}`))
				if err != nil {
					t.Error(err)
					return
				}
				var out struct{ Communities []refCommunity }
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("search: status %d, decode error %v", resp.StatusCode, err)
					return
				}
				select {
				case answered <- struct{}{}:
				default:
				}
				version, err := strconv.Atoi(resp.Header.Get(repl.HeaderVersion))
				if err != nil {
					t.Errorf("search response reports no version: %v", err)
					return
				}
				for _, c := range out.Communities {
					if len(c.Names) != len(c.Vertices) {
						t.Errorf("%d names for %d vertices", len(c.Names), len(c.Vertices))
						return
					}
					for i, v := range c.Vertices {
						want := "new" + strconv.Itoa(int(v))
						if int(v) < base.N() {
							want = base.Name(v)
						}
						if int(v) >= base.N()+version || c.Names[i] != want {
							t.Errorf("version %d: vertex %d named %q, want %q", version, v, c.Names[i], want)
							return
						}
					}
				}
			}
		}()
	}
	exited := make(chan struct{})
	go func() { wg.Wait(); close(exited) }()
	for i := range 200 {
		select {
		case <-answered:
		case <-exited:
			t.Fatal("every reader gave up")
		}
		id := int32(base.N() + i)
		_, err := s.Explorer().Mutate(context.Background(), "fig5", []api.Mutation{
			{Op: api.OpAddVertex, Name: "new" + strconv.Itoa(int(id))},
			{Op: api.OpAddEdge, U: id, V: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkEncodeSearchPage encodes a v1 search page at browse_hot's two
// sizes, the 139 KB median body and the 2 MB body that sets its p95, with
// the streaming encoder and, as the yardstick, the reflection path it
// replaced.
func BenchmarkEncodeSearchPage(b *testing.B) {
	g := namedGraph(100000)
	for _, n := range []int{5800, 88000} {
		// The ids spread evenly over the graph: runs of seven consecutive
		// ones at 88,000 of 100,000, none at all at 5,800.
		vs := firstN(n)
		for i := range vs {
			vs[i] = int32(i * g.N() / n)
		}
		page := []api.Community{{Method: "ACQ", Vertices: vs, SharedKeywords: []string{"data", "graph", "query"}, Theme: []string{"data"}}}
		info := &pageInfo{1, 0, 0}
		w := &discardWriter{h: http.Header{}}
		names := quoteNames(g).(*quotedNames)
		b.Run(strconv.Itoa(n)+"vertices/stream", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				encodePage(w, func(e *pageEncoder) { e.communityPage(page, names, nil, info, time.Millisecond) })
			}
		})
		b.Run(strconv.Itoa(n)+"vertices/reflect", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				w.Write(referencePage(b, page, g, nil, info, time.Millisecond))
			}
		})
	}
}
