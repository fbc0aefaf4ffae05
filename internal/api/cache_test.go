package api

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cexplorer/internal/gen"
	"cexplorer/internal/graph"
	"cexplorer/internal/servecache"
)

// cachedExplorer is figure5Explorer with a small result cache installed.
func cachedExplorer(t testing.TB) (*Explorer, *servecache.Cache) {
	t.Helper()
	e, _ := figure5Explorer(t)
	c := NewServeCache(128, 1<<20, 0)
	e.SetCache(c)
	return e, c
}

var acqQuery = Query{Vertices: []int32{0}, K: 2, Keywords: []string{"w", "x", "y"}}

func TestCachedSearchHitThenVersionBump(t *testing.T) {
	e, c := cachedExplorer(t)
	ctx := context.Background()
	first, err := e.Search(ctx, "fig5", "ACQ", acqQuery)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Search(ctx, "fig5", "ACQ", acqQuery)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Computations != 1 {
		t.Fatalf("stats after repeat = %+v", st)
	}
	if len(first) != len(second) || len(first) == 0 || first[0].Method != second[0].Method {
		t.Fatalf("cached answer differs: %+v vs %+v", first, second)
	}

	// A mutation publishes a successor version; the same query misses (new
	// key) and recomputes against the new graph.
	if _, err := e.Mutate(ctx, "fig5", []Mutation{{Op: OpAddEdge, U: 5, V: 9}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(ctx, "fig5", "ACQ", acqQuery); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Misses != 2 || st.Computations != 2 {
		t.Fatalf("stats after version bump = %+v", st)
	}
}

func TestCachedSearchNegativeCaching(t *testing.T) {
	e, c := cachedExplorer(t)
	ctx := context.Background()
	bad := Query{K: 2} // no query vertex: deterministic ErrInvalidQuery
	for i := 0; i < 2; i++ {
		if _, err := e.Search(ctx, "fig5", "ACQ", bad); !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	st := c.Stats()
	if st.NegativeHits != 1 || st.Computations != 1 {
		t.Fatalf("negative caching stats = %+v", st)
	}
}

func TestCachedDetectAndAnalyze(t *testing.T) {
	e, c := cachedExplorer(t)
	ctx := context.Background()
	algos := e.CDAlgorithms()
	if len(algos) == 0 {
		t.Fatal("no CD algorithms")
	}
	if _, err := e.Detect(ctx, "fig5", algos[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Detect(ctx, "fig5", algos[0]); err != nil {
		t.Fatal(err)
	}
	comm := Community{Method: "ACQ", Vertices: []int32{0, 2, 3}}
	a1, err := e.Analyze(ctx, "fig5", comm, 0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Analyze(ctx, "fig5", comm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 { // pointer identity: the second call served the cached value
		t.Fatal("analyze did not serve the cached result")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Computations != 2 {
		t.Fatalf("detect+analyze stats = %+v", st)
	}
}

func TestReuploadPurgesCache(t *testing.T) {
	e, c := cachedExplorer(t)
	ctx := context.Background()
	if _, err := e.Search(ctx, "fig5", "ACQ", acqQuery); err != nil {
		t.Fatal(err)
	}
	if n := c.DatasetStats("fig5").Entries; n != 1 {
		t.Fatalf("entries before re-upload = %d", n)
	}
	// Re-registering the name restarts the version counter at 0; stale
	// entries keyed (fig5, 0, …) would collide, so registration purges.
	if _, err := e.AddGraph("fig5", gen.Figure5()); err != nil {
		t.Fatal(err)
	}
	if n := c.DatasetStats("fig5").Entries; n != 0 {
		t.Fatalf("entries after re-upload = %d", n)
	}
	if _, err := e.Search(ctx, "fig5", "ACQ", acqQuery); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 0 {
		t.Fatalf("hit served across re-upload: %+v", st)
	}
}

// smallGraph builds a graph on n vertices with the given edges.
func smallGraph(n int, edges ...[2]int32) *graph.Graph {
	b := graph.NewBuilder(n, len(edges))
	for i := 0; i < n; i++ {
		b.AddVertex(string(rune('a'+i)), "x")
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// TestReuploadNeverServesReplacedLineage: once a name is registered anew,
// every answer for it comes from the new graph, whatever the replaced
// dataset's readers put in the cache after the swap and whatever version
// the new dataset starts at. Global at k=2 from vertex 0 is the triangle
// [0 1 2] on the first graph and empty on a path.
func TestReuploadNeverServesReplacedLineage(t *testing.T) {
	ctx := context.Background()
	triangleTail := func() *graph.Graph {
		return smallGraph(4, [2]int32{0, 1}, [2]int32{1, 2}, [2]int32{0, 2}, [2]int32{2, 3})
	}
	path := func() *graph.Graph { return smallGraph(4, [2]int32{0, 1}, [2]int32{1, 2}, [2]int32{2, 3}) }
	q := Query{Vertices: []int32{0}, K: 2}
	// check searches "d" and compares with the kernel run directly on the
	// registered dataset.
	check := func(t *testing.T, e *Explorer) {
		t.Helper()
		got, err := e.Search(ctx, "d", "Global", q)
		if err != nil {
			t.Fatal(err)
		}
		cur, _ := e.Dataset("d")
		want, err := GlobalAlgorithm{}.Search(ctx, cur, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("search on the new dataset = %v, want %v: the replaced lineage answered", got, want)
		}
	}
	newExplorer := func(t *testing.T) *Explorer {
		e := NewExplorer()
		e.SetCache(NewServeCache(128, 1<<20, 0))
		if _, err := e.AddGraph("d", triangleTail()); err != nil {
			t.Fatal(err)
		}
		return e
	}

	t.Run("reader of the old graph fills after the re-upload", func(t *testing.T) {
		e := newExplorer(t)
		old, _ := e.Dataset("d")
		if _, err := e.AddGraph("d", path()); err != nil {
			t.Fatal(err)
		}
		if comms, err := e.SearchOn(ctx, old, "Global", q); err != nil || len(comms) != 1 {
			t.Fatalf("search on the old graph = %v, %v; want the triangle", comms, err)
		}
		check(t, e)
	})
	t.Run("snapshot added at the replaced version", func(t *testing.T) {
		e := newExplorer(t)
		if _, err := e.Mutate(ctx, "d", []Mutation{{Op: OpAddEdge, U: 0, V: 3}}); err != nil {
			t.Fatal(err)
		}
		if comms, err := e.Search(ctx, "d", "Global", q); err != nil || len(comms) != 1 {
			t.Fatalf("search at version 1 = %v, %v", comms, err)
		}
		other, _, err := NewDataset("d", path()).Mutate(ctx, []Mutation{{Op: OpAddVertex, Name: "e"}})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := other.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := OpenSnapshot("d", &buf)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Version != 1 {
			t.Fatalf("snapshot version %d, want 1", snap.Version)
		}
		if err := e.AddDataset(snap); err != nil {
			t.Fatal(err)
		}
		check(t, e)
	})
}

func TestSearchKeyCanonical(t *testing.T) {
	a := searchKey("ACQ", Query{Vertices: []int32{0}, K: 2,
		Keywords: []string{"y", "x", "w"},
		Params:   map[string]string{"variant": "Dec", "maxResults": "3"}})
	b := searchKey("ACQ", Query{Vertices: []int32{0}, K: 2,
		Keywords: []string{"w", "y", "x"},
		Params:   map[string]string{"maxResults": "3", "variant": "Dec"}})
	if a != b {
		t.Fatalf("canonicalization failed:\n%q\n%q", a, b)
	}
	if c := searchKey("ACQ", Query{Vertices: []int32{0}, K: 3}); c == a {
		t.Fatal("distinct queries share a key")
	}
	// Huge queries collapse to a digest bounded at maxRawKeyLen.
	long := searchKey("ACQ", Query{Vertices: make([]int32, 512), K: 2})
	if len(long) > maxRawKeyLen {
		t.Fatalf("long key not digested: %d bytes", len(long))
	}
	if long2 := searchKey("ACQ", Query{Vertices: make([]int32, 513), K: 2}); long2 == long {
		t.Fatal("distinct long queries share a digest")
	}
}

// TestConcurrentCachedSearchMutateShed is the designated -race workout for
// the serve-time speed layer: cached searches, streaming mutations (version
// churn), and a tight admission bound all running against one dataset.
func TestConcurrentCachedSearchMutateShed(t *testing.T) {
	e, _ := figure5Explorer(t)
	e.SetCache(NewServeCache(64, 1<<20, 2))
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := Query{Vertices: []int32{int32((w + i) % 4)}, K: 2}
				if _, err := e.Search(ctx, "fig5", "ACQ", q); err != nil &&
					!errors.Is(err, ErrOverloaded) {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			op := Mutation{Op: OpAddEdge, U: 7, V: 9}
			if i%2 == 1 {
				op.Op = OpRemoveEdge
			}
			if _, err := e.Mutate(ctx, "fig5", []Mutation{op}); err != nil {
				t.Errorf("mutate %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	st := e.Cache().Stats()
	if st.Computations == 0 {
		t.Fatalf("no computations recorded: %+v", st)
	}
}

func TestNewServeCacheClassifiers(t *testing.T) {
	c := NewServeCache(4, 1<<10, 0)
	ctx := context.Background()
	// Transient errors must not be cached: two calls, two computations.
	calls := 0
	for i := 0; i < 2; i++ {
		_, err := c.Do(ctx, "d", 1, 1, "q", func(context.Context) (any, int64, error) {
			calls++
			return nil, 0, wrapContextErr(context.Canceled)
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("transient error was cached (calls = %d)", calls)
	}
	// Deterministic typed errors are cached: one computation serves both.
	calls = 0
	for i := 0; i < 2; i++ {
		_, err := c.Do(ctx, "d", 1, 1, "neg", func(context.Context) (any, int64, error) {
			calls++
			return nil, 0, ErrVertexNotFound
		})
		if !errors.Is(err, ErrVertexNotFound) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("negative result not cached (calls = %d)", calls)
	}
	if !strings.Contains(ErrOverloaded.Error(), "overloaded") {
		t.Fatalf("ErrOverloaded = %v", ErrOverloaded)
	}
}
