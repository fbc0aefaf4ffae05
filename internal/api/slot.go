package api

import (
	"sync"
	"sync/atomic"
	"time"
)

// slot holds one derived index of a dataset version. It is filled at most
// once — by a build on first use (get), or with a value built elsewhere
// (seed: a snapshot's index or the predecessor's carry in Mutate) — and read
// with no lock after that.
type slot[T any] struct {
	once  sync.Once
	ready atomic.Bool
	val   T
	nanos atomic.Int64 // the slot's own build time: zero if seeded or empty
}

// get returns the slot's value, building it with build on first use; racing
// first callers share the one build. The build's wall time is recorded on
// the slot and, when total is non-nil, added to that process-wide counter.
func (s *slot[T]) get(build func() T, total *atomic.Int64) T {
	if s.ready.Load() {
		return s.val
	}
	s.once.Do(func() {
		start := time.Now()
		s.val = build()
		n := int64(time.Since(start))
		s.nanos.Store(n)
		if total != nil {
			total.Add(n)
		}
		s.ready.Store(true)
	})
	return s.val
}

// seed fills an empty slot with a value built elsewhere, at zero build
// cost. A filled slot keeps its value.
func (s *slot[T]) seed(v T) {
	s.once.Do(func() {
		s.val = v
		s.ready.Store(true)
	})
}

// resident returns the slot's value and whether it is filled, without
// building.
func (s *slot[T]) resident() (v T, ok bool) {
	if s.ready.Load() {
		return s.val, true
	}
	return v, false
}
