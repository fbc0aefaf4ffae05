package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Exploration sessions are the paper's defining interaction — the Figure
// 1/6 browse loop, where a user anchors at a query vertex and repeatedly
// expands (smaller k, larger community) or contracts (larger k, smaller,
// denser community) — lifted into server-side state. A session is a cursor:
// its dataset version (pinned for the session's lifetime), the position
// (q, k, keywords) and the last state. Each open or step is a read with the
// same lookups a search uses: the ring is the CL-tree's anchor subtree, and
// the attributed communities are the cached answer of the ACQ search for
// (q, k, keywords), so sessions and searches share cache entries and a step
// back to a visited k is a hit. VCExplorer and GMine (PAPERS.md) navigate a
// precomputed hierarchy the same way.

// DefaultExploreTTL is how long an idle session survives before eviction
// releases its pin.
const DefaultExploreTTL = 15 * time.Minute

// maxExploreSessions caps live sessions; creating one past the cap evicts
// the least-recently-used session first (each holds its state and pins a
// dataset version, so unbounded growth would be a memory leak with a public
// face).
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
	// mu serializes steps and guards the pin: the session's reads run on
	// the pinned version without a pin of their own, and closeAndRelease
	// unpins only under mu with closed set, so an eviction or DELETE racing
	// an in-flight step never unmaps the pages the step reads.
	mu       sync.Mutex
	closed   bool
	id       string
	ds       *Dataset
	unpin    func() // releases the dataset backing pinned at creation
	q        int32
	keywords []string
	// The last state: k and what read returned for it.
	k          int
	anchorCore int32
	ring       []int32
	comms      []Community
	steps      int
	created    time.Time
	lastUsed   time.Time
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

// closeAndRelease marks the session closed and releases its pin. Taking
// s.mu first means an in-flight step finishes before the pin drops; the
// closed flag stops any step that was already queued on the lock from
// reading the dataset afterwards.
func (s *exploreSession) closeAndRelease() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
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

	s := &exploreSession{
		id:       newSessionID(),
		ds:       ds,
		unpin:    unpin,
		q:        v,
		keywords: append([]string(nil), q.Keywords...),
		created:  time.Now(),
	}
	if err := e.read(ctx, s, k); err != nil {
		return nil, err
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
// one), or "set" with an explicit k. A failed step — the new k admits no
// community (ErrInvalidQuery), or the read fails — leaves the session where
// it was, so a client can probe the boundary freely.
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
		// lock; the pin is gone.
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
	if err := e.read(ctx, s, newK); err != nil {
		return nil, err
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

// ExploreClose ends a session, releasing its pin once any in-flight step
// on it has finished.
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

// read moves the session to k: the ring is the CL-tree's anchor subtree at
// (q, k), and the communities are the answer of the ACQ search for (q, k,
// keywords), read through the result cache under that search's key. On
// failure the session keeps its state. Caller holds s.mu (or owns s
// exclusively, as Explore does before publishing): the session's pin keeps
// the version mapped, so a miss runs the kernel with no pin of its own,
// which a closed dataset would refuse.
func (e *Explorer) read(ctx context.Context, s *exploreSession, k int) error {
	tree := s.ds.Tree()
	a := tree.Anchor(s.q, int32(k))
	if a == nil {
		return fmt.Errorf("%w: explore: vertex %d has no community at k=%d (max k=%d)",
			ErrInvalidQuery, s.q, k, s.ds.CoreNumbers()[s.q])
	}
	q := Query{Vertices: []int32{s.q}, K: k, Keywords: s.keywords}
	e.mu.RLock()
	acq := e.cs["ACQ"]
	e.mu.RUnlock()
	comms, err := e.cachedCommunities(ctx, s.ds, searchKey("ACQ", q), func(ctx context.Context) ([]Community, error) {
		return acq.Search(ctx, s.ds, q)
	})
	if err != nil {
		return err
	}
	s.k, s.anchorCore, s.comms = k, a.Core, comms
	s.ring = tree.SubtreeAscending(a) // shared with the index: read-only
	return nil
}

// state renders the client-visible snapshot. Caller must hold s.mu (or own
// s exclusively).
func (s *exploreSession) state(dataset string, ttl time.Duration) *ExploreState {
	return &ExploreState{
		ID:          s.id,
		Dataset:     dataset,
		Vertex:      s.q,
		K:           s.k,
		Keywords:    s.keywords,
		Steps:       s.steps,
		MaxK:        int(s.ds.CoreNumbers()[s.q]),
		AnchorCore:  s.anchorCore,
		Ring:        s.ring,
		RingSize:    len(s.ring),
		Communities: s.comms,
		CreatedAt:   s.created,
		ExpiresAt:   time.Now().Add(ttl),
	}
}
