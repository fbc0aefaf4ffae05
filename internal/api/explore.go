package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cexplorer/internal/cltree"
	"cexplorer/internal/core"
	"cexplorer/internal/metrics"
)

// Exploration sessions are the paper's defining interaction — the Figure
// 1/6 browse loop, where a user anchors at a query vertex and repeatedly
// expands (smaller k, larger community) or contracts (larger k, smaller,
// denser community) — lifted into server-side state. A session pins one
// warm query engine for its whole lifetime, so every step reuses the
// engine's peeler scratch and interned keyword tables instead of paying
// pool checkout + rewarming per step, and it tracks its CL-tree anchor so
// each step reports where in the k-core hierarchy the browse currently
// sits. VCExplorer and GMine (PAPERS.md) take the same position: stateful
// drill-down sessions, not one-shot queries, are the natural API for
// interactive graph exploration.

// DefaultExploreTTL is how long an idle session survives before eviction
// reclaims its pinned engine.
const DefaultExploreTTL = 15 * time.Minute

// maxExploreSessions caps live sessions; creating one past the cap evicts
// the least-recently-used session first (each pins an engine, which is O(n)
// scratch, so unbounded growth would be a memory leak with a public face).
const maxExploreSessions = 1024

// ExploreState is the client-visible snapshot of a session after creation
// or a step.
type ExploreState struct {
	ID      string `json:"id"`
	Dataset string `json:"dataset"`
	Vertex  int32  `json:"vertex"`
	// K is the current minimum-degree position of the browse loop.
	K        int      `json:"k"`
	Keywords []string `json:"keywords,omitempty"`
	// Steps counts completed expand/contract moves.
	Steps int `json:"steps"`
	// MaxK is the largest k with any community at this anchor (core(q)):
	// the depth limit of the contract direction.
	MaxK int `json:"maxK"`
	// AnchorCore describes the session's CL-tree position: the core level
	// of the anchor node whose subtree spells out the current ring.
	AnchorCore int32 `json:"anchorCore"`
	// Ring is the structural community at the current k — the connected
	// k-core containing the anchor vertex, i.e. the Figure-6(b) ring the
	// browse loop walks. Rings nest: contract always yields a subset,
	// expand a superset.
	Ring []int32 `json:"ring"`
	// RingSize is len(Ring), kept explicit for clients that drop the list.
	RingSize int `json:"ringSize"`
	// Communities holds the attributed (ACQ) communities at the current k:
	// the keyword-maximal subsets of the ring around the anchor vertex.
	Communities []Community `json:"communities"`
	CreatedAt   time.Time   `json:"createdAt"`
	ExpiresAt   time.Time   `json:"expiresAt"`
}

// ExploreStats is the session-manager section of /api/stats.
type ExploreStats struct {
	Active  int   `json:"active"`
	Created int64 `json:"created"`
	Steps   int64 `json:"steps"`
	Expired int64 `json:"expired"`
	Closed  int64 `json:"closed"`
}

// exploreSession is one live browse loop.
type exploreSession struct {
	// mu serializes steps: the pinned engine carries per-query scratch and
	// must never run two searches at once. The engine is released back to
	// the pool only under mu with closed set (see closeAndRelease), so an
	// eviction or DELETE racing an in-flight step can never hand the
	// engine to a new query while the step still uses it.
	mu       sync.Mutex
	closed   bool
	id       string
	ds       *Dataset
	unpin    func() // releases the dataset backing pinned at creation
	q        int32
	k        int
	keywords []string
	eng      *core.Engine
	anchor   *cltree.Node
	ring     []int32
	comms    []Community
	steps    int
	created  time.Time
	lastUsed time.Time
}

// exploreManager owns the session table. It lives inside Explorer.
type exploreManager struct {
	mu       sync.Mutex
	sessions map[string]*exploreSession
	ttl      time.Duration

	created atomic.Int64
	steps   atomic.Int64
	expired atomic.Int64
	closed  atomic.Int64
}

func (m *exploreManager) init() {
	m.sessions = make(map[string]*exploreSession)
	m.ttl = DefaultExploreTTL
}

// SetExploreTTL overrides the idle lifetime of exploration sessions (test
// hook and ops knob); d must be positive.
func (e *Explorer) SetExploreTTL(d time.Duration) {
	if d <= 0 {
		return
	}
	m := &e.explore
	m.mu.Lock()
	m.ttl = d
	m.mu.Unlock()
}

// ExploreStats reports session counters for /api/stats. It sweeps expired
// sessions first so Active reflects reality even on an idle server.
func (e *Explorer) ExploreStats() ExploreStats {
	m := &e.explore
	m.mu.Lock()
	evicted := m.sweepLocked(time.Now())
	active := len(m.sessions)
	m.mu.Unlock()
	closeSessions(evicted)
	return ExploreStats{
		Active:  active,
		Created: m.created.Load(),
		Steps:   m.steps.Load(),
		Expired: m.expired.Load(),
		Closed:  m.closed.Load(),
	}
}

// sweepLocked removes every session idle past the TTL from the table and
// returns them for the caller to close OUTSIDE m.mu (closing may block on
// a session's own lock while a step finishes; doing that under the table
// lock would stall every other session). Caller holds m.mu.
func (m *exploreManager) sweepLocked(now time.Time) []*exploreSession {
	var evicted []*exploreSession
	for id, s := range m.sessions {
		if now.Sub(s.lastUsed) > m.ttl {
			delete(m.sessions, id)
			evicted = append(evicted, s)
			m.expired.Add(1)
		}
	}
	return evicted
}

// dropDataset closes every session anchored on the named dataset, outside
// m.mu (same discipline as sweepLocked). Used when the dataset itself is
// unregistered.
func (m *exploreManager) dropDataset(name string) {
	var evicted []*exploreSession
	m.mu.Lock()
	for id, s := range m.sessions {
		if s.ds.Name == name {
			delete(m.sessions, id)
			evicted = append(evicted, s)
			m.closed.Add(1)
		}
	}
	m.mu.Unlock()
	closeSessions(evicted)
}

// evictOldestLocked removes the least-recently-used session (cap pressure)
// and returns it for the caller to close outside m.mu (nil if none).
func (m *exploreManager) evictOldestLocked() *exploreSession {
	var oldest *exploreSession
	for _, s := range m.sessions {
		if oldest == nil || s.lastUsed.Before(oldest.lastUsed) {
			oldest = s
		}
	}
	if oldest != nil {
		delete(m.sessions, oldest.id)
		m.expired.Add(1)
	}
	return oldest
}

// closeAndRelease marks the session closed and returns its pinned engine
// to the pool. Taking s.mu first means an in-flight step finishes before
// the engine changes hands; the closed flag stops any step that was
// already queued on the lock from touching the engine afterwards.
func (s *exploreSession) closeAndRelease() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.ds.ReleaseEngine(s.eng)
		s.unpin()
	}
	s.mu.Unlock()
}

func closeSessions(sessions []*exploreSession) {
	for _, s := range sessions {
		s.closeAndRelease()
	}
}

func newSessionID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on supported platforms
	}
	return hex.EncodeToString(b[:])
}

// Explore creates an exploration session on the dataset, anchored at
// q.Vertices[0] with minimum degree q.K (clamped to ≥ 1), optionally scoped
// to q.Keywords. The initial search runs under ctx; the session itself
// lives until closed or idle past the TTL.
func (e *Explorer) Explore(ctx context.Context, dataset string, q Query) (*ExploreState, error) {
	ds, err := e.resolve(ctx, "explore: ", dataset)
	if err != nil {
		return nil, err
	}
	// The session reads the dataset's graph and indexes on every step; an
	// mmap-backed dataset stays pinned for the session's whole lifetime
	// (released by closeAndRelease once the session is published).
	unpin, err := ds.Pin()
	if err != nil {
		return nil, err
	}
	published := false
	defer func() {
		if !published {
			unpin()
		}
	}()
	if len(q.Vertices) != 1 {
		return nil, fmt.Errorf("%w: explore: exactly one query vertex required", ErrInvalidQuery)
	}
	if _, err := parseParams(q); err != nil {
		return nil, err
	}
	v := q.Vertices[0]
	if v < 0 || int(v) >= ds.Graph.N() {
		return nil, fmt.Errorf("%w: explore: vertex %d", ErrVertexNotFound, v)
	}
	k := q.K
	if k < 1 {
		k = 1
	}
	if core := ds.CoreNumbers(); int(core[v]) < k {
		return nil, fmt.Errorf("%w: explore: vertex %d has no community at k=%d (max k=%d)",
			ErrInvalidQuery, v, k, core[v])
	}

	s := &exploreSession{
		id:       newSessionID(),
		ds:       ds,
		unpin:    unpin,
		q:        v,
		k:        k,
		keywords: append([]string(nil), q.Keywords...),
		eng:      ds.AcquireEngine(),
		created:  time.Now(),
	}
	if err := s.run(ctx); err != nil {
		ds.ReleaseEngine(s.eng)
		return nil, wrapContextErr(err)
	}
	published = true

	m := &e.explore
	m.mu.Lock()
	evicted := m.sweepLocked(time.Now())
	if len(m.sessions) >= maxExploreSessions {
		if lru := m.evictOldestLocked(); lru != nil {
			evicted = append(evicted, lru)
		}
	}
	s.lastUsed = time.Now()
	m.sessions[s.id] = s
	ttl := m.ttl
	m.mu.Unlock()
	closeSessions(evicted)
	m.created.Add(1)
	return s.state(dataset, ttl), nil
}

// lookupSession resolves (dataset, id) to a live session, refreshing its
// idle timer.
func (e *Explorer) lookupSession(dataset, id string) (*exploreSession, time.Duration, error) {
	m := &e.explore
	m.mu.Lock()
	evicted := m.sweepLocked(time.Now())
	s, ok := m.sessions[id]
	if ok && s.ds.Name == dataset {
		s.lastUsed = time.Now()
	}
	ttl := m.ttl
	m.mu.Unlock()
	closeSessions(evicted)
	if !ok || s.ds.Name != dataset {
		return nil, 0, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	return s, ttl, nil
}

// ExploreStep moves a session along the browse loop. action is "expand"
// (k-1: a larger, looser community), "contract" (k+1: a smaller, denser
// one), or "set" with an explicit k. The step reuses the session's pinned
// engine; if the new k admits no community the session keeps its previous
// position and an ErrInvalidQuery is returned, so a client can probe the
// boundary freely.
func (e *Explorer) ExploreStep(ctx context.Context, dataset, id, action string, k int) (*ExploreState, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapContextErr(err)
	}
	s, ttl, err := e.lookupSession(dataset, id)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// Evicted or deleted while this step was queued on the session
		// lock; the engine is no longer ours.
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	newK := s.k
	switch action {
	case "expand":
		newK = s.k - 1
	case "contract":
		newK = s.k + 1
	case "set":
		newK = k
	default:
		return nil, fmt.Errorf("%w: explore step: action %q (want expand, contract, or set)", ErrInvalidQuery, action)
	}
	if newK < 1 {
		return nil, fmt.Errorf("%w: explore step: already at the loosest community (k=1)", ErrInvalidQuery)
	}
	if core := s.ds.CoreNumbers(); int(core[s.q]) < newK {
		return nil, fmt.Errorf("%w: explore step: no community at k=%d (max k=%d)", ErrInvalidQuery, newK, core[s.q])
	}

	oldK, oldAnchor, oldRing, oldComms := s.k, s.anchor, s.ring, s.comms
	s.k = newK
	if err := s.run(ctx); err != nil {
		s.k, s.anchor, s.ring, s.comms = oldK, oldAnchor, oldRing, oldComms
		return nil, wrapContextErr(err)
	}
	s.steps++
	e.explore.steps.Add(1)
	return s.state(dataset, ttl), nil
}

// ExploreGet returns a session's current state without moving it.
func (e *Explorer) ExploreGet(dataset, id string) (*ExploreState, error) {
	s, ttl, err := e.lookupSession(dataset, id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	return s.state(dataset, ttl), nil
}

// ExploreClose ends a session, returning its pinned engine to the pool
// once any in-flight step on it has finished.
func (e *Explorer) ExploreClose(dataset, id string) error {
	m := &e.explore
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok && s.ds.Name == dataset {
		delete(m.sessions, id)
	} else {
		ok = false
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrSessionNotFound, id)
	}
	s.closeAndRelease()
	m.closed.Add(1)
	return nil
}

// run recomputes the session's ring and attributed communities at the
// current k on the pinned engine. The CL-tree anchor moves incrementally:
// an expand step climbs Parent pointers from the current ring (O(levels)
// instead of a fresh root-to-leaf walk), a contract step re-anchors from
// the vertex's leaf node. Caller must hold s.mu (or own s exclusively, as
// Explore does before publishing).
func (s *exploreSession) run(ctx context.Context) error {
	tree := s.eng.Tree()
	k := int32(s.k)
	a := s.anchor
	switch {
	case a == nil || k > a.Core:
		// First run, or contracting into a deeper ring: locate from the
		// leaf. (For k ≤ a.Core no node above a can host the new anchor —
		// everything above the old anchor has a strictly smaller core.)
		a = tree.Anchor(s.q, k)
	default:
		// Expanding (or staying): the new anchor is an ancestor of the
		// current one; climb from where the session already sits.
		for a.Parent != nil && a.Parent.Core >= k {
			a = a.Parent
		}
	}
	if a == nil {
		return fmt.Errorf("%w: no community at k=%d", ErrInvalidQuery, s.k)
	}
	res, err := s.eng.SearchContext(ctx, s.q, k, resolveKeywords(s.ds.Graph, s.keywords), core.Dec)
	if err != nil {
		return err
	}
	s.anchor = a
	s.ring = tree.SubtreeAscending(a) // shared with the index: read-only
	s.comms = make([]Community, 0, len(res))
	for _, c := range res {
		s.comms = append(s.comms, Community{
			Method:         "ACQ",
			Vertices:       c.Vertices,
			SharedKeywords: s.ds.Graph.Vocab().Words(c.SharedKeywords),
			Theme:          metrics.Theme(s.ds.Graph, c.Vertices, 5),
		})
	}
	return nil
}

// state renders the client-visible snapshot. Caller must hold s.mu (or own
// s exclusively).
func (s *exploreSession) state(dataset string, ttl time.Duration) *ExploreState {
	st := &ExploreState{
		ID:          s.id,
		Dataset:     dataset,
		Vertex:      s.q,
		K:           s.k,
		Keywords:    s.keywords,
		Steps:       s.steps,
		MaxK:        int(s.ds.CoreNumbers()[s.q]),
		Ring:        s.ring,
		RingSize:    len(s.ring),
		Communities: s.comms,
		CreatedAt:   s.created,
		ExpiresAt:   time.Now().Add(ttl),
	}
	if s.anchor != nil {
		st.AnchorCore = s.anchor.Core
	}
	return st
}
