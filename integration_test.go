package cexplorer

// Cross-module integration tests: index persistence round trips, engine /
// server equivalence, algorithm containment relationships, and detection
// quality against planted ground truth. These exercise seams the per-package
// unit tests cannot.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"cexplorer/internal/api"
	"cexplorer/internal/cluster"
	"cexplorer/internal/codicil"
	"cexplorer/internal/core"
	"cexplorer/internal/csearch"
	"cexplorer/internal/gen"
	"cexplorer/internal/ktruss"
	"cexplorer/internal/metrics"
	"cexplorer/internal/server"
)

func smallDBLP(t testing.TB) *gen.DBLP {
	t.Helper()
	return gen.GenerateDBLP(gen.SmallDBLPConfig())
}

// TestIndexPersistenceEndToEnd: build the indexes offline, write a
// snapshot, reopen it, and check queries answer identically through the
// reloaded CL-tree.
func TestIndexPersistenceEndToEnd(t *testing.T) {
	d := smallDBLP(t)
	ds := api.NewDataset("dblp", d.Graph)
	ds.BuildIndexes()
	var buf bytes.Buffer
	if _, err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	reopened, err := api.OpenSnapshot("", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.Indexes().CLTree {
		t.Fatal("reopened snapshot carries no CL-tree")
	}
	e1 := NewEngine(ds.Tree())
	e2 := NewEngine(reopened.Tree())
	for i := 0; i < gen.NumFamousAuthors(); i += 3 {
		q, ok := d.Graph.VertexByName(gen.FamousAuthor(i))
		if !ok {
			continue
		}
		for _, k := range []int32{2, 4} {
			a, err1 := e1.Search(q, k, nil, Dec)
			b, err2 := e2.Search(q, k, nil, Dec)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("error mismatch: %v vs %v", err1, err2)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("reloaded index answers differ for q=%d k=%d", q, k)
			}
		}
	}
}

// TestConcurrentEnginesShareTree: many goroutines, one tree, each with its
// own engine — results must match a serial run.
func TestConcurrentEnginesShareTree(t *testing.T) {
	d := smallDBLP(t)
	tree := BuildIndex(d.Graph)
	q, _ := d.Graph.VertexByName("jim gray")
	want, err := NewEngine(tree).Search(q, 3, nil, Dec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := NewEngine(tree)
			got, err := eng.Search(q, 3, nil, Dec)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- errMismatch
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errMismatch = errString("concurrent result mismatch")

type errString string

func (e errString) Error() string { return string(e) }

// TestACQWithinGlobal: every ACQ community is contained in the Global
// community for the same (q,k) — ACQ adds keyword cohesiveness on top of the
// same structural constraint, so it can only shrink the answer.
func TestACQWithinGlobal(t *testing.T) {
	d := smallDBLP(t)
	tree := BuildIndex(d.Graph)
	eng := NewEngine(tree)
	core := tree.CoreNumbers()
	for i := 0; i < gen.NumFamousAuthors(); i++ {
		q, ok := d.Graph.VertexByName(gen.FamousAuthor(i))
		if !ok {
			continue
		}
		k := int32(3)
		if core[q] < k {
			continue
		}
		acq, err := eng.Search(q, k, nil, Dec)
		if err != nil {
			t.Fatal(err)
		}
		glob := csearch.Global(d.Graph, core, q, k)
		if glob == nil {
			if acq != nil {
				t.Fatalf("ACQ found a community where Global did not (q=%d)", q)
			}
			continue
		}
		in := map[int32]bool{}
		for _, v := range glob.Vertices {
			in[v] = true
		}
		for _, c := range acq {
			for _, v := range c.Vertices {
				if !in[v] {
					t.Fatalf("ACQ vertex %d outside Global community (q=%d)", v, q)
				}
			}
		}
	}
}

// TestKTrussInsideKMinusOneCore: the k-truss is contained in the (k-1)-core
// — a classical containment that ties the two decompositions together.
func TestKTrussInsideKMinusOneCore(t *testing.T) {
	d := smallDBLP(t)
	g := d.Graph
	core := CoreNumbers(g)
	td := ktruss.Decompose(g)
	g.Edges(func(u, v int32) bool {
		tr, _ := td.Trussness(u, v)
		if core[u] < tr-1 || core[v] < tr-1 {
			t.Fatalf("edge {%d,%d} trussness %d but cores %d,%d", u, v, tr, core[u], core[v])
		}
		return true
	})
}

// TestCodicilRecoversPlantedCommunities: on a planted partition with
// topic-correlated keywords, CODICIL's NMI against ground truth must beat a
// random partition by a wide margin.
func TestCodicilRecoversPlantedCommunities(t *testing.T) {
	cfg := gen.SmallDBLPConfig()
	cfg.CrossFrac = 0.02
	d := gen.GenerateDBLP(cfg)
	res := codicil.Detect(d.Graph, codicil.Options{Seed: 1})

	truthLabels := make([]int32, d.Graph.N())
	for c, members := range d.Truth {
		for _, v := range members {
			truthLabels[v] = int32(c) // secondary memberships overwrite; fine for NMI
		}
	}
	nmi := metrics.NMI(res.Partition.Labels, truthLabels)
	if nmi < 0.3 {
		t.Fatalf("CODICIL NMI vs ground truth = %.3f, want ≥ 0.3", nmi)
	}
	// Louvain on structure alone should also do fine; CODICIL shouldn't be
	// drastically worse than it.
	var edges []cluster.WEdge
	d.Graph.Edges(func(u, v int32) bool {
		edges = append(edges, cluster.WEdge{U: u, V: v, W: 1})
		return true
	})
	louv := cluster.LouvainWeighted(cluster.NewWeighted(d.Graph.N(), edges), 1)
	lnmi := metrics.NMI(louv.Labels, truthLabels)
	if nmi < lnmi*0.5 {
		t.Fatalf("CODICIL NMI %.3f ≪ Louvain NMI %.3f", nmi, lnmi)
	}
	t.Logf("NMI: CODICIL=%.3f Louvain=%.3f", nmi, lnmi)
}

// TestServerMatchesLibrary: the HTTP search path must return exactly what a
// direct engine call returns.
func TestServerMatchesLibrary(t *testing.T) {
	d := smallDBLP(t)
	exp := NewExplorer()
	if _, err := exp.AddGraph("dblp", d.Graph); err != nil {
		t.Fatal(err)
	}
	srv := server.New(exp, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	q, _ := d.Graph.VertexByName("jim gray")
	direct, err := exp.Search(context.Background(), "dblp", "ACQ", Query{Vertices: []int32{q}, K: 3})
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(map[string]any{
		"algorithm": "ACQ", "names": []string{"jim gray"}, "k": 3,
	})
	resp, err := http.Post(ts.URL+"/api/v1/datasets/dblp/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Communities []struct {
			Vertices []int32 `json:"vertices"`
		} `json:"communities"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Communities) != len(direct) {
		t.Fatalf("server %d communities, library %d", len(out.Communities), len(direct))
	}
	for i := range direct {
		if !reflect.DeepEqual(out.Communities[i].Vertices, direct[i].Vertices) {
			t.Fatalf("community %d differs between server and library", i)
		}
	}
}

// TestDecConsistentAcrossAlgorithmsOnDBLP: the four ACQ algorithms agree on
// the realistic dataset, not just on the random graphs of the unit tests.
func TestAlgorithmsAgreeOnDBLP(t *testing.T) {
	d := smallDBLP(t)
	tree := BuildIndex(d.Graph)
	eng := NewEngine(tree)
	q, _ := d.Graph.VertexByName("jim gray")
	S := d.Graph.Keywords(q)
	if len(S) > 8 {
		S = S[:8] // keep Basic feasible
	}
	var want []core.Community
	for i, algo := range []Algorithm{Dec, IncS, IncT, Basic} {
		got, err := eng.Search(q, 3, S, algo)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if i == 0 {
			want = got
			if len(want) == 0 {
				t.Skip("no community for the probe query")
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v disagrees with Dec", algo)
		}
	}
}

// TestThemeMatchesSharedKeywords: each shared keyword of an ACQ community
// must appear in the community's full-frequency theme (it is carried by
// every member, so nothing can rank above-it by count... at minimum it must
// be present in the unlimited theme list).
func TestThemeContainsSharedKeywords(t *testing.T) {
	d := smallDBLP(t)
	eng := NewEngine(BuildIndex(d.Graph))
	q, _ := d.Graph.VertexByName("jim gray")
	res, err := eng.Search(q, 3, nil, Dec)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res {
		theme := Theme(d.Graph, c.Vertices, 0)
		themeSet := map[string]bool{}
		for _, w := range theme {
			themeSet[w] = true
		}
		for _, w := range d.Graph.Vocab().Words(c.SharedKeywords) {
			if !themeSet[w] {
				t.Fatalf("shared keyword %q missing from theme", w)
			}
		}
	}
}
