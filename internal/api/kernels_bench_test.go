package api

import (
	"context"
	"slices"
	"sync"
	"testing"

	"cexplorer/internal/gen"
)

var (
	kernelOnce sync.Once
	kernelExp  *Explorer
	kernelQs   []Query
)

// kernelBench builds, once, an uncached Explorer over the dataset cmd/bench
// generates (100k authors, 320 communities, ≈532k edges) with every index
// resident, and a fixed panel of query vertices with core ≥ k for k cycling
// through 3, 4, 6. Every query carries the first three keywords of its
// vertex, as the harness's ACQ queries do.
func kernelBench() (*Explorer, []Query) {
	kernelOnce.Do(func() {
		cfg := gen.DefaultDBLPConfig()
		cfg.Authors, cfg.Communities = 100000, 320
		g := gen.GenerateDBLP(cfg).Graph
		kernelExp = NewExplorer()
		ds, err := kernelExp.AddGraph("dblp", g)
		if err != nil {
			panic(err)
		}
		ds.BuildIndexes()
		core := ds.CoreNumbers()
		ks := []int{3, 4, 6}
		for v := int32(0); len(kernelQs) < 48 && int(v) < g.N(); v += 997 {
			k := ks[len(kernelQs)%len(ks)]
			if int(core[v]) < k {
				continue
			}
			words := slices.Clone(g.KeywordStrings(v))
			slices.Sort(words)
			kernelQs = append(kernelQs, Query{Vertices: []int32{v}, K: k, Keywords: words[:min(3, len(words))]})
		}
	})
	return kernelExp, kernelQs
}

// BenchmarkSearchKernels times one cache-miss read per kernel, through the
// same api entry points the server calls: the four community searches and
// one exploration step (an expand immediately undone by a contract counts
// as two).
func BenchmarkSearchKernels(b *testing.B) {
	exp, qs := kernelBench()
	ctx := context.Background()
	for _, algo := range []string{"ACQ", "Global", "Local", "KTruss"} {
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				q := qs[i%len(qs)]
				if algo != "ACQ" {
					q.Keywords = nil
				}
				if _, err := exp.Search(ctx, "dblp", algo, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("ExploreStep", func(b *testing.B) {
		var sessions []string
		for _, q := range qs {
			q.K++ // leave room to expand
			st, err := exp.Explore(ctx, "dblp", q)
			if err != nil {
				continue
			}
			sessions = append(sessions, st.ID)
		}
		if len(sessions) == 0 {
			b.Fatal("no session could be opened")
		}
		defer func() {
			for _, id := range sessions {
				exp.ExploreClose("dblp", id)
			}
		}()
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			id := sessions[(i/2)%len(sessions)]
			action := "expand"
			if i%2 == 1 {
				action = "contract"
			}
			if _, err := exp.ExploreStep(ctx, "dblp", id, action, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
