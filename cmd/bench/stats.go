package main

// Latency samples and the statistics the report is made of.

import (
	"slices"
	"sync"
	"time"
)

// Request classes a sample belongs to.
const (
	classRead  = iota // search, analyze, display
	classStep         // explore open / step / close
	classWrite        // mutation POST → ack
	classLag          // ack → applied on both replicas
)

// segments is how many equal pieces a measured window is cut into, so that
// the spread inside one run is printed beside every latency percentile.
const segments = 5

type sample struct {
	class int
	at    time.Duration // offset from the window's start of the instant it was due
	lat   time.Duration
	units int // user work done: 1 per read or step, ops per mutation request
}

// recorder collects samples from concurrent clients.
type recorder struct {
	mu        sync.Mutex
	samples   []sample
	late      []time.Duration // how late the generator sent each open-loop slot
	attempted int64
	failed    int64
	errs      []string // first few failures, for the operator
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.attempted++
	r.mu.Unlock()
}

// fail counts one attempted operation that failed, was shed, timed out or
// answered wrongly. It records no latency: a failure misses every limit.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	r.attempted++
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
	r.mu.Unlock()
}

func (r *recorder) lateness(d time.Duration) {
	r.mu.Lock()
	r.late = append(r.late, d)
	r.mu.Unlock()
}

// quantile reads the q-quantile (nearest rank) of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// stat is one reported number with the evidence beside it.
type stat struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`      // samples behind the value
	SegMin float64 `json:"segMin,omitempty"` // lowest per-segment value
	SegMax float64 `json:"segMax,omitempty"` // highest per-segment value
}

// latencyStat is the q-quantile of the latencies of the given classes over
// the window [0, window), with the lowest and highest of the same quantile
// taken over each fifth of the window beside it.
//
// The median of the five per-segment quantiles was tried as the reported
// value: at 15 s windows a segment holds only 40 to 700 samples, and across
// seeds that median was 1.1 to 1.6 times noisier than the pooled quantile.
// A stall still moves one segment and not the pooled p95, as long as it
// catches fewer than one request in twenty.
func latencyStat(samples []sample, window time.Duration, q float64, classes ...int) stat {
	var all []float64
	var per [segments][]float64
	for _, s := range samples {
		if !slices.Contains(classes, s.class) || s.at < 0 || s.at >= window {
			continue
		}
		all = append(all, ms(s.lat))
		seg := int(s.at * segments / window)
		per[seg] = append(per[seg], ms(s.lat))
	}
	if len(all) == 0 {
		return stat{Unit: "ms"}
	}
	slices.Sort(all)
	st := stat{Value: quantile(all, q), Unit: "ms", N: len(all)}
	for _, p := range per {
		if len(p) == 0 {
			continue
		}
		slices.Sort(p)
		v := quantile(p, q)
		if st.SegMin == 0 || v < st.SegMin {
			st.SegMin = v
		}
		st.SegMax = max(st.SegMax, v)
	}
	return st
}

// rateStat is the units of work per second the given classes completed: the
// work due inside the window over the time from the window's start to the
// last of it completing.
func rateStat(samples []sample, window time.Duration, unit string, classes ...int) stat {
	var units, n int
	var last time.Duration
	for _, s := range samples {
		if !slices.Contains(classes, s.class) || s.at < 0 || s.at >= window {
			continue
		}
		units += s.units
		n++
		last = max(last, s.at+s.lat)
	}
	if n == 0 {
		return stat{Unit: unit}
	}
	return stat{Value: float64(units) / last.Seconds(), Unit: unit, N: n}
}

// medianOf times fn n times and returns the median in milliseconds.
func medianOf(n int, fn func()) float64 {
	vals := make([]float64, n)
	for i := range vals {
		t := time.Now()
		fn()
		vals[i] = ms(time.Since(t))
	}
	return median(vals)
}
