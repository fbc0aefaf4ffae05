package main

// Per-layer measurements taken from outside the program: each one times
// calls into a package's public functions on the run's own dataset and
// panel, or reads a public Stats() struct. They run on a quiet fleet after
// the workload, in traced runs only.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/core"
	"cexplorer/internal/csearch"
	"cexplorer/internal/graph"
	"cexplorer/internal/layout"
	"cexplorer/internal/repl"
	"cexplorer/internal/snapshot"
)

// layerSamples bounds how many panel queries a kernel median is taken over.
const layerSamples = 16

// panel returns up to layerSamples hot-panel queries of one algorithm.
func (f *fleet) panel(algo string) []*query {
	var out []*query
	for i := range f.in.Hot {
		if q := &f.in.Hot[i]; q.Algorithm == algo && len(out) < layerSamples {
			out = append(out, q)
		}
	}
	return out
}

// perQuery is the median over qs of the time one call of fn takes.
func perQuery(qs []*query, fn func(q *query)) float64 {
	var vals []float64
	for _, q := range qs {
		t := time.Now()
		fn(q)
		vals = append(vals, ms(time.Since(t)))
	}
	if len(vals) == 0 {
		return 0
	}
	return median(vals)
}

// bootScratch bootstraps a third replica, times it, and detaches it: its
// explorer becomes the scratch copy that in-process mutation measurements
// and write replays may change freely.
func (r *run) bootScratch(m metrics) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	t := time.Now()
	n, err := startReplica(ctx, r.f.primary.url)
	if err != nil {
		return fmt.Errorf("third replica: %w", err)
	}
	m.set("repl.bootstrap_ms", ms(time.Since(t)), "ms")
	n.stop() // stops the tailer and the listener; the explorer stays usable
	// The first mutation of a bootstrapped dataset builds the maintenance
	// state every later one reuses; pay that here, not inside a measurement.
	warm := []api.Mutation{{Op: api.OpAddVertex, Name: "bench scratch warm-up"}}
	if _, err := n.exp.Mutate(ctx, datasetName, warm); err != nil {
		return fmt.Errorf("third replica: %w", err)
	}
	r.tr.scratch = n.exp
	r.tr.journal = filepath.Join(r.f.dir, "scratch.cxjournal")
	return nil
}

// kernelLayers times the search kernels, the exploration session and the
// analysis and layout calls directly, below api's cache and the server.
func (r *run) kernelLayers(m metrics) {
	ctx := context.Background()
	ds, _ := r.tr.home.exp.Dataset(datasetName)
	g, cores := ds.Graph, ds.CoreNumbers()
	ids := func(q *query) []int32 {
		var s []int32
		for _, w := range q.Keywords {
			if id, ok := g.Vocab().ID(w); ok {
				s = append(s, id)
			}
		}
		slices.Sort(s)
		return s
	}

	acq := r.f.panel("ACQ")
	eng := ds.AcquireEngine()
	search := func(q *query) { eng.SearchContext(ctx, q.Vertices[0], int32(q.K), ids(q), core.Dec) }
	m.set("core.acq_ms", perQuery(acq, search), "ms")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range acq {
		search(q)
	}
	runtime.ReadMemStats(&after)
	if len(acq) > 0 {
		m.set("core.acq_allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(len(acq)), "count")
	}
	ds.ReleaseEngine(eng)

	m.set("csearch.global_ms", perQuery(r.f.panel("Global"), func(q *query) {
		csearch.GlobalContext(ctx, g, cores, q.Vertices[0], int32(q.K))
	}), "ms")
	m.set("csearch.local_ms", perQuery(r.f.panel("Local"), func(q *query) {
		csearch.LocalContext(ctx, g, q.Vertices[0], int32(q.K), csearch.LocalOptions{})
	}), "ms")
	truss := ds.Truss()
	m.set("ktruss.communities_ms", perQuery(r.f.panel("KTruss"), func(q *query) {
		truss.CommunitiesContext(ctx, q.Vertices[0], int32(max(q.K, 2)))
	}), "ms")

	// Exploration, analysis and layout on the scratch explorer, which has no
	// result cache in front of it.
	exp := r.tr.scratch
	var open, step, fr, analyze []float64
	for _, q := range acq {
		t := time.Now()
		st, err := exp.Explore(ctx, datasetName, q.apiQuery())
		if err != nil {
			continue
		}
		open = append(open, ms(time.Since(t)))
		for _, action := range []string{"expand", "contract"} {
			t = time.Now()
			exp.ExploreStep(ctx, datasetName, st.ID, action, 0)
			step = append(step, ms(time.Since(t)))
		}
		exp.ExploreClose(datasetName, st.ID)
		if len(st.Communities) == 0 {
			continue
		}
		c := st.Communities[0]
		if len(c.Vertices) > displayCap {
			c.Vertices = c.Vertices[:displayCap]
		}
		t = time.Now()
		exp.Display(ctx, datasetName, c, layout.Options{Seed: 1})
		fr = append(fr, ms(time.Since(t)))
		t = time.Now()
		exp.Analyze(ctx, datasetName, c, q.Vertices[0])
		analyze = append(analyze, ms(time.Since(t)))
	}
	for name, vals := range map[string][]float64{
		"api.explore_open_ms": open, "api.explore_step_ms": step,
		"layout.fr_ms": fr, "metrics.analyze_ms": analyze,
	} {
		if len(vals) > 0 {
			m.set(name, median(vals), "ms")
		}
	}
}

// servingLayers measures what each shell around a cache hit adds: the
// in-process hit, the same hit over HTTP straight at the replica, and the
// same again through the router, paired per query.
func (r *run) servingLayers(m metrics) {
	ctx := context.Background()
	home := r.tr.home
	var inproc, direct, overhead, hop []float64
	for i := range 4 * layerSamples {
		q := &r.f.in.Hot[i]
		// The first call fills the replica's cache at the current version.
		home.exp.Search(ctx, datasetName, q.Algorithm, q.apiQuery())
		t := time.Now()
		home.exp.Search(ctx, datasetName, q.Algorithm, q.apiQuery())
		hit := time.Since(t)
		t = time.Now()
		if _, err := r.c.search(home.url, q, 0, false); err != nil {
			r.rec.fail(err)
			continue
		}
		d := time.Since(t)
		t = time.Now()
		if _, err := r.c.search(r.f.front.url, q, 0, false); err != nil {
			r.rec.fail(err)
			continue
		}
		routed := time.Since(t)
		inproc = append(inproc, float64(hit.Nanoseconds()))
		direct = append(direct, ms(d))
		overhead = append(overhead, ms(d-hit))
		hop = append(hop, ms(routed-d))
	}
	if len(direct) == 0 {
		return
	}
	m.set("servecache.hit_ns", median(inproc), "ns")
	m.set("server.search_direct_ms", median(direct), "ms")
	m.set("server.hit_overhead_ms", median(overhead), "ms")
	m.set("repl.router_hop_ms", median(hop), "ms")
}

// writeLayers measures the write path piece by piece: Explorer.Mutate with
// no journal behind it, the journal append with its fsync, the feed, and
// what the replica's version gate adds to a read that follows a write.
func (r *run) writeLayers(m metrics, seed int64) {
	ctx := context.Background()
	exp := r.tr.scratch
	// The copy has also taken the traced write replays, whose edges this
	// stream does not know about: an op the copy rejects is skipped.
	s := newMutationStream(r.f.data, seed^0x5c7a7c4, 0, 1)
	var single []float64
	for len(single) < layerSamples {
		t := time.Now()
		if _, err := exp.Mutate(ctx, datasetName, []api.Mutation{s.next(false)}); err == nil {
			single = append(single, ms(time.Since(t)))
		}
	}
	m.set("api.mutate_single_ms", median(single), "ms")
	var perOp []float64
	for tries := 0; len(perOp) < 4 && tries < 16; tries++ {
		t := time.Now()
		if _, err := exp.Mutate(ctx, datasetName, s.batch(batchOps)); err == nil {
			perOp = append(perOp, float64(time.Since(t).Microseconds())/batchOps)
		}
	}
	if len(perOp) > 0 {
		m.set("api.mutate_batch64_us_per_op", median(perOp), "us")
	}

	// Journal: one single-op record per append, fsync included.
	path := filepath.Join(r.f.dir, "layers.cxjournal")
	ops := repl.ToJournalOps([]api.Mutation{{Op: api.OpAddEdge, U: 1, V: 2}})
	version := uint64(0)
	m.set("snapshot.journal_append_ms", medianOf(2*layerSamples, func() {
		version++
		snapshot.AppendJournal(path, snapshot.JournalRecord{Version: version, Ops: ops})
	}), "ms")
	if fi, err := os.Stat(path); err == nil {
		m.set("snapshot.journal_bytes_per_op", float64(fi.Size())/float64(version), "bytes")
	}

	// Feed: publish one record and ship it to a waiting cursor.
	feed := repl.NewFeed(func(string) (uint64, bool) { return 0, true }, repl.FeedOptions{})
	epoch, _ := feed.Epoch(datasetName)
	version = 0
	m.set("repl.feed_ship_us", 1e3*medianOf(64, func() {
		version++
		feed.Publish(datasetName, version, ops)
		feed.Ship(ctx, datasetName, epoch, version, 0, 0, 0)
	}), "us")

	// Gate: a dataset GET is the cheapest read the gate covers, so gated
	// minus ungated is the wait alone. The writes go straight to the primary,
	// drawn from the run's own stream where it has one, so that they are
	// valid on the graph the workload left.
	live := newMutationStream(r.f.data, seed, 0, 1)
	if len(r.streams) > 0 {
		live = r.streams[0]
	}
	var wait []float64
	for range layerSamples {
		res, err := r.c.mutate(r.f.primary.url, []api.Mutation{live.next(false)})
		if err != nil {
			r.rec.fail(err)
			return
		}
		t := time.Now()
		_, err = r.c.info(r.tr.home.url, res.Version)
		gated := time.Since(t)
		t = time.Now()
		_, err2 := r.c.info(r.tr.home.url, 0)
		if err != nil || err2 != nil {
			r.rec.fail(fmt.Errorf("gated read after version %d: %v %v", res.Version, err, err2))
			return
		}
		wait = append(wait, ms(gated-time.Since(t)))
	}
	m.set("repl.gate_wait_ms", median(wait), "ms")
}

// snapshotLayers times the codec and the open modes on the primary's
// catalog file, against parsing the same graph from text and indexing it.
func (r *run) snapshotLayers(m metrics, st setupTimes) error {
	pds := r.primaryDataset()
	m.set("snapshot.encode_ms", medianOf(3, func() { pds.WriteSnapshot(io.Discard) }), "ms")

	path := filepath.Join(r.f.dir, "layers.cxsnap")
	if _, err := pds.WriteSnapshotFile(path); err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("snapshot.bytes_per_edge", float64(fi.Size())/float64(pds.Graph.M()), "bytes")
	open := func(mode snapshot.OpenMode) float64 {
		return medianOf(3, func() {
			if ds, err := api.OpenSnapshotFileMode(datasetName, path, mode); err == nil {
				ds.Close()
			}
		})
	}
	mmap := open(snapshot.OpenMmap)
	m.set("snapshot.open_mmap_ms", mmap, "ms")
	m.set("snapshot.open_copy_ms", open(snapshot.OpenCopy), "ms")

	var text bytes.Buffer
	pds.Graph.Edges(func(u, v int32) bool {
		fmt.Fprintf(&text, "%d %d\n", u, v)
		return true
	})
	t := time.Now()
	if _, err := graph.LoadEdgeList(&text); err != nil {
		return fmt.Errorf("parsing the edge list back: %w", err)
	}
	cold := ms(time.Since(t)) + ms(st.BuildIndexes)
	if mmap > 0 {
		m.set("snapshot.warm_vs_cold_ratio", cold/mmap, "ratio")
	}
	return nil
}
