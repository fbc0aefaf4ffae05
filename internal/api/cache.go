package api

// The serve-time result cache (see internal/servecache). Search, Detect,
// Analyze and exploration steps are pure functions of (dataset version,
// query): every Explorer has a cache, and each of them is a cache lookup
// keyed by the dataset name, its lineage, its immutable Version, and a
// canonicalized rendering of the request — a mutation publishes a successor
// version and a re-upload starts a new lineage, so stale entries (late
// fills included) are unreachable by construction and age out of the LRU.
// Concurrent requests for one missing key coalesce onto a single
// computation (singleflight), deterministic failures (unknown vertex,
// invalid query) negative-cache, a computation waits for one of the node's
// compute slots, and per-dataset admission control sheds work beyond the
// configured in-flight bound with ErrOverloaded instead of queueing.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"slices"
	"strconv"
	"strings"

	"cexplorer/internal/servecache"
)

// NewServeCache builds a result cache wired with the API's error policy:
// cancellations and timeouts are transient (never cached, never adopted by
// coalesced followers), while vertex-not-found and invalid-query failures
// are deterministic and negative-cache. maxInflight ≤ 0 disables admission
// control; maxEntries/maxBytes ≤ 0 take the servecache defaults.
func NewServeCache(maxEntries int, maxBytes int64, maxInflight int) *servecache.Cache {
	return servecache.New(servecache.Config{
		MaxEntries:  maxEntries,
		MaxBytes:    maxBytes,
		MaxInflight: maxInflight,
		Transient: func(err error) bool {
			return errors.Is(err, ErrCanceled) || errors.Is(err, ErrTimeout) ||
				errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		},
		Cacheable: func(err error) bool {
			return errors.Is(err, ErrVertexNotFound) || errors.Is(err, ErrInvalidQuery) ||
				errors.Is(err, ErrUnknownAlgorithm)
		},
	})
}

// SetCache replaces the serve-time result cache (nil installs a fresh one
// of the default size). Set it before serving; it is safe to swap
// mid-flight, but in-flight requests finish on the cache they started with.
func (e *Explorer) SetCache(c *servecache.Cache) {
	if c == nil {
		c = NewServeCache(0, 0, 0)
	}
	e.mu.Lock()
	e.cache = c
	e.mu.Unlock()
}

// Cache returns the installed result cache.
func (e *Explorer) Cache() *servecache.Cache {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cache
}

// maxRawKeyLen is the longest canonical query rendering stored verbatim;
// anything longer (an Analyze over a huge community, say) is replaced by
// its SHA-256 so cache keys stay small.
const maxRawKeyLen = 160

func finishKey(b *strings.Builder) string {
	s := b.String()
	if len(s) <= maxRawKeyLen {
		return s
	}
	sum := sha256.Sum256([]byte(s))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// searchKey canonicalizes a search request: keyword order and Params map
// order never matter (keywords resolve to a sorted ID set; params are a
// map), so equivalent requests render to one key and coalesce.
func searchKey(algo string, q Query) string {
	var b strings.Builder
	b.WriteString("search\x1f")
	b.WriteString(algo)
	b.WriteString("\x1fk=")
	b.WriteString(strconv.Itoa(q.K))
	b.WriteString("\x1fv=")
	for i, v := range q.Vertices {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
	if len(q.Keywords) > 0 {
		kws := slices.Clone(q.Keywords)
		slices.Sort(kws)
		b.WriteString("\x1fw=")
		for i, w := range kws {
			if i > 0 {
				b.WriteByte('\x1e')
			}
			b.WriteString(w)
		}
	}
	if len(q.Params) > 0 {
		keys := make([]string, 0, len(q.Params))
		for k := range q.Params {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b.WriteString("\x1fp=")
		for i, k := range keys {
			if i > 0 {
				b.WriteByte('\x1e')
			}
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(q.Params[k])
		}
	}
	return finishKey(&b)
}

// detectKey canonicalizes a whole-graph detection request.
func detectKey(algo string) string {
	return "detect\x1f" + algo
}

// analyzeKey canonicalizes an Analyze request (community + query vertex).
func analyzeKey(c Community, q int32) string {
	var b strings.Builder
	b.WriteString("analyze\x1f")
	b.WriteString(c.Method)
	b.WriteString("\x1fq=")
	b.WriteString(strconv.FormatInt(int64(q), 10))
	b.WriteString("\x1fv=")
	for i, v := range c.Vertices {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
	return finishKey(&b)
}

// communitiesBytes estimates the heap footprint of a community list for the
// cache's byte accounting (slice headers + vertex IDs + string bytes).
func communitiesBytes(cs []Community) int64 {
	n := int64(len(cs)) * 96
	for i := range cs {
		c := &cs[i]
		n += int64(len(c.Method)) + int64(4*len(c.Vertices))
		for _, s := range c.SharedKeywords {
			n += int64(len(s)) + 16
		}
		for _, s := range c.Theme {
			n += int64(len(s)) + 16
		}
	}
	return n
}

// cachedCommunities adapts a community-list computation to the cache's
// (value, error) contract and recovers the typed slice on the way out. The
// cached slice is shared across callers and with the cache itself: callers
// must treat it as read-only (pagination subslicing and DTO building are
// fine) and clone it before any in-place filter or sort.
func (e *Explorer) cachedCommunities(ctx context.Context, ds *Dataset, key string, compute func(context.Context) ([]Community, error)) ([]Community, error) {
	v, err := e.Cache().Do(ctx, ds.Name, ds.lin, ds.Version, key, func(ctx context.Context) (any, int64, error) {
		out, err := compute(ctx)
		if err != nil {
			return nil, 0, wrapContextErr(err)
		}
		return out, communitiesBytes(out), nil
	})
	if err != nil {
		return nil, wrapContextErr(err)
	}
	if v == nil {
		return nil, nil
	}
	return v.([]Community), nil
}
