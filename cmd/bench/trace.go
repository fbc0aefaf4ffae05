package main

// Tracing from the outside. The program has no stage timers yet, so a traced
// run attributes a request's time to layers by replaying the same input at
// each shallower depth of the path and recording one span per depth: a
// layer's self time is its span minus its child's. Spans stay in memory and
// are written as trace.json when the run ends.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cexplorer/internal/api"
	"cexplorer/internal/repl"
	"cexplorer/internal/snapshot"
)

// traceEvery is the sampling period per kind: one read in twenty is
// replayed and, writes being rarer and cheaper to replay, one write in five.
var traceEvery = [2]int64{20, 5}

// span is one timed visit to a layer. Spans of one request share Req; Parent
// names the span of the same request that caused this one ("" for the root).
type span struct {
	Req     int64   `json:"req"`
	Kind    string  `json:"kind"` // "read" or "write"
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"startUs"` // offset from the trace's start
	EndUS   float64 `json:"endUs"`
	// Counterfactual marks an engine span recorded for a request the cache
	// answered: what a miss would have cost, not a part of its parent.
	Counterfactual bool `json:"counterfactual,omitempty"`
}

// tracer samples requests and collects their spans. A nil *tracer traces
// nothing, so callers never branch on whether tracing is on.
type tracer struct {
	start  time.Time
	seen   [2]atomic.Int64 // requests offered for sampling, reads and writes apart
	nextID atomic.Int64
	// Requests sent in [from, until) are sampled: the second half of the
	// measured window, so the first half gives the untraced comparison.
	from, until time.Time

	mu    sync.Mutex
	spans []span

	home     *node         // replica the router sends the dataset's reads to
	replay   sync.Mutex    // guards the three fields below
	scratch  *api.Explorer // detached copy of the dataset, for write replays
	journal  string        // scratch journal file
	jversion uint64
}

// sample reports the request id to trace this request under, or 0: the
// first read and the first write of the traced half-window, and every
// traceEvery-th of its kind after it.
func (t *tracer) sample(write bool) int64 {
	if t == nil {
		return 0
	}
	if now := time.Now(); now.Before(t.from) || !now.Before(t.until) || t.seen[btoi(write)].Add(1)%traceEvery[btoi(write)] != 1 {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *tracer) span(req int64, kind, name, parent string, start, end time.Time) {
	if t == nil || req == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Req: req, Kind: kind, Name: name, Parent: parent,
		StartUS: float64(start.Sub(t.start).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.start).Nanoseconds()) / 1e3,
	})
	t.mu.Unlock()
}

// timeSpan runs fn as the named span of req.
func (t *tracer) timeSpan(req int64, kind, name, parent string, fn func()) {
	start := time.Now()
	fn()
	t.span(req, kind, name, parent, start, time.Now())
}

// dto mirrors what the server encodes per community: the record plus the
// vertex names resolved for it.
type dto struct {
	api.Community
	Names []string `json:"names"`
}

// traceRead replays q at each depth below the router: direct-to-replica
// HTTP, the replica's Explorer.Search (result cache included), the algorithm
// on the replica's dataset with the cache bypassed, and the name resolution
// plus JSON encoding of the answer.
func (r *run) traceRead(req int64, q *query) {
	t := r.tr
	ctx := context.Background()
	t.timeSpan(req, "read", "server", "router", func() {
		if _, err := r.c.search(t.home.url, q, 0, false); err != nil {
			r.rec.fail(err)
		}
	})
	var comms []api.Community
	t.timeSpan(req, "read", "explorer", "server", func() {
		var err error
		if comms, err = t.home.exp.Search(ctx, datasetName, q.Algorithm, q.apiQuery()); err != nil {
			r.rec.fail(err)
		}
	})
	ds, _ := t.home.exp.Dataset(datasetName)
	t.timeSpan(req, "read", "engine", "explorer", func() {
		if _, err := algorithms[q.Algorithm].Search(ctx, ds, q.apiQuery()); err != nil {
			r.rec.fail(err)
		}
	})
	t.timeSpan(req, "read", "encode", "server", func() {
		out := make([]dto, len(comms))
		for i, c := range comms {
			names := make([]string, len(c.Vertices))
			for j, v := range c.Vertices {
				names[j] = ds.Graph.Name(v)
			}
			out[i] = dto{Community: c, Names: names}
		}
		json.Marshal(map[string]any{"communities": out, "total": len(out)})
	})
}

// traceWrite replays an edge op below the router. The op itself cannot be
// applied to the primary twice, so the direct-to-primary POST sends its
// inverse (same shape, same cost, and the graph ends where it started); the
// detached scratch explorer and the scratch journal take the op itself.
func (r *run) traceWrite(req int64, stream int, op api.Mutation) {
	t := r.tr
	r.streamMu.Lock()
	inv := r.streams[stream].inverse(op)
	r.streamMu.Unlock()
	t.timeSpan(req, "write", "server", "router", func() {
		if _, err := r.c.mutate(r.f.primary.url, []api.Mutation{inv}); err != nil {
			r.rec.fail(err)
		}
	})
	t.replay.Lock() // the scratch lineage and journal take one replay at a time
	defer t.replay.Unlock()
	sds, _ := t.scratch.Dataset(datasetName)
	if op.Op == api.OpRemoveEdge && !sds.Graph.HasEdge(op.U, op.V) {
		op = inv // the scratch copy never saw the edge added; add it instead
	}
	start := time.Now()
	_, err := t.scratch.Mutate(context.Background(), datasetName, []api.Mutation{op})
	mid := time.Now()
	if err == nil {
		t.jversion++
		err = snapshot.AppendJournal(t.journal, snapshot.JournalRecord{
			Version: t.jversion, Ops: repl.ToJournalOps([]api.Mutation{op}),
		})
	}
	end := time.Now()
	if err != nil {
		r.rec.fail(err)
		return
	}
	t.span(req, "write", "mutate", "server", start, mid)
	t.span(req, "write", "journal", "server", mid, end)
}

// attribute decides, per traced read, whether the routed request computed
// its answer or the cache served it. Only stage timers inside the program can
// tell for sure; from outside, the replays run after the original and are
// always cache hits, so a request that took at least half an engine call
// longer than its own direct replay is taken to have missed. On a miss the
// engine span is part of the request; on a hit it is counterfactual (what a
// miss would have cost) and belongs to no parent's time.
func (t *tracer) attribute() {
	dur := map[int64]map[string]float64{}
	for _, s := range t.spans {
		if dur[s.Req] == nil {
			dur[s.Req] = map[string]float64{}
		}
		dur[s.Req][s.Name] = s.EndUS - s.StartUS
	}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == "engine" {
			d := dur[s.Req]
			s.Counterfactual = d["router"]-d["server"] < d["engine"]/2
		}
	}
}

// finish writes the spans to dir/trace.json.
func (t *tracer) finish(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attribute()
	data, err := json.MarshalIndent(map[string]any{"schema": "cexplorer-bench-trace/1", "spans": t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}

// selfTimes folds the spans of one kind into per-layer self times in
// milliseconds, averaged over the traced requests that have every span: a
// span's duration minus its children's. Means, so that the layers add up to
// "total", the mean routed span. Two spans are not nested in time where the
// parent link says they are caused: "visible" follows the write it belongs
// to, and on a miss the computation the "engine" replay stands for happened
// inside the routed request only, not inside its cache-hit replays, so it is
// taken out of the router's share.
func (t *tracer) selfTimes(kind string, names []string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[int64]map[string]span{}
	for _, s := range t.spans {
		if s.Kind == kind {
			if byReq[s.Req] == nil {
				byReq[s.Req] = map[string]span{}
			}
			byReq[s.Req][s.Name] = s
		}
	}
	sum := map[string]float64{}
	n := 0
	for _, spans := range byReq {
		if !slices.ContainsFunc(names, func(name string) bool { _, ok := spans[name]; return !ok }) {
			n++
			dur := func(name string) float64 { return (spans[name].EndUS - spans[name].StartUS) / 1e3 }
			for _, name := range names {
				if name == "engine" && spans[name].Counterfactual {
					continue // not part of this request's time
				}
				d := dur(name)
				for _, c := range spans {
					if c.Parent == name && c.Name != "visible" && c.Name != "engine" {
						d -= dur(c.Name)
					}
				}
				sum[name] += d
			}
			if e, ok := spans["engine"]; ok && !e.Counterfactual {
				sum["router"] -= dur("engine")
			}
			sum["total"] += dur("router")
		}
	}
	for name := range sum {
		sum[name] /= float64(n)
	}
	return sum
}
