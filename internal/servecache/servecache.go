// Package servecache is the serve-time speed layer and the one admission
// point of read work: a version-keyed LRU result cache with singleflight
// coalescing, a node-wide bound on computing leaders, and per-dataset
// shedding.
//
// Searches are pure functions of (dataset version, query): the same query
// against the same immutable dataset version always yields the same
// communities. That purity is what makes result caching sound without any
// invalidation protocol — the key embeds the dataset's lineage (new on every
// re-upload) and Version, so a mutation or re-upload makes every entry and
// in-flight computation of the old version unreachable *by construction*,
// however late it fills. Stale entries are never served; they age out.
//
// Three mechanisms share one lookup path (Do):
//
//   - LRU cache: bounded by entry count and by approximate byte footprint,
//     whichever cap is hit first. Hits (positive and negative) return the
//     shared cached value without touching the graph.
//   - Singleflight: concurrent requests for one missing key coalesce onto a
//     single computation — a thundering herd on a hot query costs one
//     search, and every follower gets the leader's result. A leader that
//     fails with a transient error (its own cancellation or deadline) does
//     not poison its followers: they retry, and the first live one becomes
//     the new leader.
//   - Admission: a leader computes only while it holds one of the node's
//     compute slots (SetComputeLimit; 2×GOMAXPROCS by default), waiting for
//     one until its ctx is done — a wait that fails transiently, so its
//     followers retry. Optionally, the number of leaders per dataset is
//     bounded too: past that bound new leaders are shed immediately with
//     ErrOverloaded (the HTTP layer's 429) instead of queueing — the
//     load-shedding alternative to queue collapse. Cache hits and
//     singleflight followers never wait and are never shed; they add no
//     work.
//
// Negative caching: deterministic failures (vertex not found, invalid
// query) are results too — they are cached like values so a storm of bad
// requests is absorbed by the cache instead of recomputed. Which errors
// qualify is the caller's policy (Config.Cacheable); transient errors
// (cancellation, timeout) are never cached.
package servecache

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrOverloaded is the typed load-shedding error: the dataset already has
// the configured maximum number of computations in flight, and this request
// was rejected rather than queued. The HTTP layer maps it to 429.
var ErrOverloaded = errors.New("overloaded")

// Defaults for Config zero values.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 64 << 20 // 64 MiB

	// entryOverhead is the fixed per-entry byte charge added on top of the
	// caller-reported value size (key strings, list/map bookkeeping).
	entryOverhead = 160
)

// Config tunes a Cache. Zero values take the defaults above; MaxInflight 0
// disables shedding.
type Config struct {
	// MaxEntries bounds the number of cached results.
	MaxEntries int
	// MaxBytes bounds the approximate cached byte footprint (values plus
	// per-entry overhead).
	MaxBytes int64
	// MaxInflight bounds concurrent computations per dataset; excess
	// leaders fail fast with ErrOverloaded.
	MaxInflight int
	// Transient reports errors that must be neither cached nor handed to
	// singleflight followers (the leader's own cancellation or deadline):
	// followers retry instead. Nil means no error is transient.
	Transient func(error) bool
	// Cacheable reports errors worth negative-caching (deterministic
	// request failures: unknown vertex, invalid query). Nil means no error
	// is cached; values (nil-error results) always are.
	Cacheable func(error) bool
}

// Stats is the counter snapshot surfaced at /api/stats. All counters are
// cumulative since construction.
type Stats struct {
	// Hits counts lookups served from a cached value; NegativeHits the
	// subset served from a cached error.
	Hits         int64 `json:"hits"`
	NegativeHits int64 `json:"negativeHits"`
	// Misses counts lookups that found neither an entry nor an in-flight
	// computation and so had to compute (or were shed trying).
	Misses int64 `json:"misses"`
	// Coalesced counts lookups that joined another caller's in-flight
	// computation instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// Computations counts computations actually started; with singleflight
	// working, this tracks distinct (version, query) pairs, not requests.
	Computations int64 `json:"computations"`
	// Shedded counts lookups rejected by admission control.
	Shedded int64 `json:"shedded"`
	// InFlight is the number of leaders computing now, each holding one
	// of the ComputeLimit compute slots (SetComputeLimit).
	InFlight     int64 `json:"inFlight"`
	ComputeLimit int   `json:"computeLimit"`
	// Evictions counts entries dropped by the LRU caps; purges (explicit
	// dataset invalidation) are counted separately.
	Evictions int64 `json:"evictions"`
	Purged    int64 `json:"purged"`
	// Entries/Bytes are the current cache occupancy.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// DatasetStats is the per-dataset occupancy slice of Stats.
type DatasetStats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

type key struct {
	dataset string
	lineage uint64 // the caller's id for one history of the name
	version uint64
	query   string
}

// entry is one cached result: a value or a negative-cached error.
type entry struct {
	k     key
	val   any
	err   error
	bytes int64
}

// call is one in-flight computation; followers block on done.
type call struct {
	done chan struct{}
	val  any
	err  error
	// transient marks a leader failure followers must not adopt.
	transient bool
}

// Cache is the serve-time result cache. All methods are safe for concurrent
// use. The zero value is not usable; call New.
type Cache struct {
	cfg Config

	mu       sync.Mutex
	lru      *list.List // of *entry; front = most recently used
	entries  map[key]*list.Element
	bytes    int64
	perDS    map[string]DatasetStats
	inflight map[key]*call
	// computing counts in-flight leaders per dataset, computing or waiting
	// for a slot (shedding).
	computing map[string]int
	// slots holds one token per computing leader; its capacity is the
	// compute limit. SetComputeLimit swaps in a new channel, and a leader
	// returns its token to the channel it took it from.
	slots chan struct{}

	hits, negHits, misses, coalesced atomic.Int64
	computations, shedded, evictions atomic.Int64
	purged, inFlight                 atomic.Int64
}

// New returns a Cache with the given config (zero fields defaulted).
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	return &Cache{
		cfg:       cfg,
		lru:       list.New(),
		entries:   make(map[key]*list.Element),
		perDS:     make(map[string]DatasetStats),
		inflight:  make(map[key]*call),
		computing: make(map[string]int),
		slots:     make(chan struct{}, defaultComputeLimit()),
	}
}

func defaultComputeLimit() int { return 2 * runtime.GOMAXPROCS(0) }

// SetComputeLimit bounds the leaders computing at once, across every
// dataset, at n (n ≤ 0 restores the default, 2×GOMAXPROCS). Leaders that
// already hold or wait for a slot finish under the old bound.
func (c *Cache) SetComputeLimit(n int) {
	if n <= 0 {
		n = defaultComputeLimit()
	}
	c.mu.Lock()
	c.slots = make(chan struct{}, n)
	c.mu.Unlock()
}

// Do returns the cached result for (dataset, lineage, version, query), or
// computes it. Exactly one computation runs per missing key at a time:
// concurrent callers coalesce onto the leader and share its result. compute
// reports the value, its approximate byte size, and an error; a nil error
// always caches, an error caches only if cfg.Cacheable says so, and a
// transient error (cfg.Transient) is returned to the leader alone while
// followers retry. A leader computes only once it holds a compute slot; it
// waits for one until ctx is done, and that failure is transient too. When
// the dataset already has cfg.MaxInflight leaders, Do fails fast with
// ErrOverloaded instead of queueing.
//
// The returned value is shared across callers and with the cache itself:
// treat it as immutable.
func (c *Cache) Do(ctx context.Context, dataset string, lineage, version uint64, query string, compute func(context.Context) (any, int64, error)) (any, error) {
	k := key{dataset, lineage, version, query}
	for {
		c.mu.Lock()
		if el, ok := c.entries[k]; ok {
			c.lru.MoveToFront(el)
			e := el.Value.(*entry)
			c.mu.Unlock()
			if e.err != nil {
				c.negHits.Add(1)
				return nil, e.err
			}
			c.hits.Add(1)
			return e.val, nil
		}
		if cl, ok := c.inflight[k]; ok {
			c.mu.Unlock()
			c.coalesced.Add(1)
			select {
			case <-cl.done:
				if cl.transient {
					// The leader died of its own cancellation; this caller
					// is still live, so take over as the new leader.
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					continue
				}
				return cl.val, cl.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// Leader path: shedding, then a slot and the computation without
		// the lock.
		c.misses.Add(1)
		if c.cfg.MaxInflight > 0 && c.computing[dataset] >= c.cfg.MaxInflight {
			c.mu.Unlock()
			c.shedded.Add(1)
			return nil, fmt.Errorf("%w: dataset %q at its in-flight computation limit (%d)",
				ErrOverloaded, dataset, c.cfg.MaxInflight)
		}
		cl := &call{done: make(chan struct{})}
		c.inflight[k] = cl
		c.computing[dataset]++
		slots := c.slots
		c.mu.Unlock()

		return c.lead(ctx, k, cl, slots, compute)
	}
}

// lead waits for a slot in slots, runs one computation as key k's leader
// and publishes the outcome to followers. All bookkeeping runs in defers:
// compute may panic (net/http recovers per request, so the process
// survives), and without deferred cleanup every future request for the key
// would coalesce onto the dead call forever while the node permanently lost
// a compute slot. A panicked call is marked transient so followers retry as
// new leaders, then the panic is re-raised for the leader's own handler.
func (c *Cache) lead(ctx context.Context, k key, cl *call, slots chan struct{}, compute func(context.Context) (any, int64, error)) (any, error) {
	completed := false
	var bytes int64
	defer func() {
		if !completed {
			cl.val, cl.err = nil, fmt.Errorf("servecache: computation for dataset %q panicked", k.dataset)
			cl.transient = true
		}
		cacheable := completed && (cl.err == nil ||
			(!cl.transient && c.cfg.Cacheable != nil && c.cfg.Cacheable(cl.err)))
		c.mu.Lock()
		delete(c.inflight, k)
		if c.computing[k.dataset]--; c.computing[k.dataset] <= 0 {
			delete(c.computing, k.dataset)
		}
		if cacheable {
			c.addLocked(k, cl.val, cl.err, bytes)
		}
		c.mu.Unlock()
		close(cl.done)
	}()

	if err := acquire(ctx, slots); err != nil {
		cl.err, cl.transient, completed = err, true, true
		return nil, err
	}
	c.inFlight.Add(1)
	defer func() {
		c.inFlight.Add(-1)
		<-slots
	}()
	c.computations.Add(1)
	val, n, err := compute(ctx)
	cl.val, cl.err, bytes = val, err, n
	cl.transient = err != nil && c.cfg.Transient != nil && c.cfg.Transient(err)
	completed = true
	return val, err
}

// acquire takes a slot, or fails once ctx is done. When both are ready
// select may pick the slot; the recheck gives it back rather than compute
// for a caller that is gone.
func acquire(ctx context.Context, slots chan struct{}) error {
	select {
	case slots <- struct{}{}:
		if ctx.Err() == nil {
			return nil
		}
		<-slots
	case <-ctx.Done():
	}
	return fmt.Errorf("servecache: waiting for a compute slot: %w", ctx.Err())
}

// Get reports a cached value without computing (test and introspection
// hook). It counts as a hit/negative hit when present.
func (c *Cache) Get(dataset string, lineage, version uint64, query string) (any, error, bool) {
	c.mu.Lock()
	k := key{dataset, lineage, version, query}
	el, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		return nil, nil, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*entry)
	c.mu.Unlock()
	if e.err != nil {
		c.negHits.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e.val, e.err, true
}

// addLocked inserts an entry and evicts from the LRU tail until both caps
// hold. Caller holds c.mu.
func (c *Cache) addLocked(k key, val any, err error, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	bytes += entryOverhead + int64(len(k.query)) + int64(len(k.dataset))
	if bytes > c.cfg.MaxBytes {
		return // larger than the whole cache; not worth evicting everything
	}
	if el, ok := c.entries[k]; ok {
		// Lost a race with another leader for the same key (possible when a
		// transient retry overlaps a fresh fill); keep the existing entry.
		c.lru.MoveToFront(el)
		return
	}
	e := &entry{k: k, val: val, err: err, bytes: bytes}
	c.entries[k] = c.lru.PushFront(e)
	c.bytes += bytes
	ds := c.perDS[k.dataset]
	ds.Entries++
	ds.Bytes += bytes
	c.perDS[k.dataset] = ds
	for c.lru.Len() > c.cfg.MaxEntries || c.bytes > c.cfg.MaxBytes {
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
	}
}

// removeLocked unlinks one element and updates occupancy. Caller holds c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.k)
	c.bytes -= e.bytes
	ds := c.perDS[e.k.dataset]
	ds.Entries--
	ds.Bytes -= e.bytes
	if ds.Entries <= 0 {
		delete(c.perDS, e.k.dataset)
	} else {
		c.perDS[e.k.dataset] = ds
	}
}

// Purge drops every cached entry for a dataset, all lineages and versions,
// and reports how many. It only releases memory early — entries of a
// replaced lineage are already unreachable by key — so a computation in
// flight at purge time may still fill its (equally unreachable) entry.
func (c *Cache) Purge(dataset string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	n := 0
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*entry).k.dataset == dataset {
			c.removeLocked(el)
			n++
		}
	}
	c.purged.Add(int64(n))
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries := c.lru.Len()
	bytes := c.bytes
	limit := cap(c.slots)
	c.mu.Unlock()
	return Stats{
		Hits:         c.hits.Load(),
		NegativeHits: c.negHits.Load(),
		Misses:       c.misses.Load(),
		Coalesced:    c.coalesced.Load(),
		Computations: c.computations.Load(),
		Shedded:      c.shedded.Load(),
		Evictions:    c.evictions.Load(),
		Purged:       c.purged.Load(),
		InFlight:     c.inFlight.Load(),
		ComputeLimit: limit,
		Entries:      entries,
		Bytes:        bytes,
	}
}

// DatasetStats reports one dataset's cache occupancy (all versions).
func (c *Cache) DatasetStats(dataset string) DatasetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perDS[dataset]
}
