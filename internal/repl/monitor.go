package repl

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is a node's circuit-breaker position in the health monitor.
type BreakerState int

const (
	// StateClosed: the node is healthy; probe every Interval.
	StateClosed BreakerState = iota
	// StateHalfOpen: one probe succeeded after the circuit opened; the node
	// is usable again but one more failure re-opens immediately.
	StateHalfOpen
	// StateOpen: FailThreshold consecutive probes failed; the node is out
	// of the read ring and re-probed on exponential backoff.
	StateOpen
)

func (s BreakerState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateHalfOpen:
		return "half-open"
	case StateOpen:
		return "open"
	default:
		return "unknown"
	}
}

// MonitorOptions tune the failure detector. Zero values take the defaults
// noted per field.
type MonitorOptions struct {
	Client *http.Client
	// Interval is the probe cadence for closed/half-open nodes (default 1s).
	Interval time.Duration
	// Timeout is the per-probe deadline (default min(Interval, 2s)): a
	// probe that outlives its own cadence tells us nothing extra.
	Timeout time.Duration
	// FailThreshold is the consecutive-failure count that opens the
	// circuit (default 3). One slow probe is weather; K in a row is a
	// dead node.
	FailThreshold int
	// BackoffMax caps the open-state re-probe backoff (default 15s).
	BackoffMax time.Duration
	Logf       func(format string, args ...any)
}

// Monitor is the router's failure detector: it probes every tracked node's
// health endpoint on a cadence and keeps a circuit breaker per node, so
// routing decisions ("is this node usable?", "who is the most caught-up
// replica?") read cached state instead of paying a network round trip.
type Monitor struct {
	opt MonitorOptions

	mu    sync.Mutex
	nodes map[string]*probeState

	probes   atomic.Int64
	failures atomic.Int64
	opens    atomic.Int64
}

type probeState struct {
	state   BreakerState
	fails   int           // consecutive failures while closed
	backoff time.Duration // current open-state re-probe delay
	due     time.Time     // next probe time while open
	health  *HealthStatus // last successful payload (possibly stale)
	lastErr error
}

// NewMonitor builds a monitor; Add nodes, then call ProbeOnce once per
// Interval (Router.Run does, supervising after every round).
func NewMonitor(opt MonitorOptions) *Monitor {
	if opt.Client == nil {
		opt.Client = &http.Client{}
	}
	if opt.Interval <= 0 {
		opt.Interval = time.Second
	}
	if opt.Timeout <= 0 {
		opt.Timeout = min(opt.Interval, healthDeadline)
	}
	if opt.FailThreshold <= 0 {
		opt.FailThreshold = 3
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 15 * time.Second
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	return &Monitor{opt: opt, nodes: map[string]*probeState{}}
}

// Add starts tracking a node (idempotent). New nodes begin closed — innocent
// until probed — so adding a node never blocks routing on a probe.
func (m *Monitor) Add(url string) {
	m.mu.Lock()
	if _, ok := m.nodes[url]; !ok {
		m.nodes[url] = &probeState{state: StateClosed}
	}
	m.mu.Unlock()
}

// ProbeOnce runs one probe round: every closed/half-open node, plus open
// nodes whose backoff has elapsed. Probes run concurrently and the call
// blocks until all complete (each is bounded by Timeout).
func (m *Monitor) ProbeOnce(ctx context.Context) {
	now := time.Now()
	var targets []string
	m.mu.Lock()
	for url, st := range m.nodes {
		if st.state != StateOpen || !now.Before(st.due) {
			targets = append(targets, url)
		}
	}
	m.mu.Unlock()
	var wg sync.WaitGroup
	for _, url := range targets {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, m.opt.Timeout)
			h, err := FetchHealth(pctx, m.opt.Client, url)
			cancel()
			if ctx.Err() != nil {
				return // shutdown, not a verdict on the node
			}
			m.record(url, h, err)
		}(url)
	}
	wg.Wait()
}

// record applies one probe outcome to the node's breaker.
func (m *Monitor) record(url string, h *HealthStatus, err error) {
	m.probes.Add(1)
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.nodes[url]
	if st == nil {
		return // removed concurrently (not currently possible, but harmless)
	}
	if err == nil {
		st.health = h
		st.lastErr = nil
		st.fails = 0
		switch st.state {
		case StateOpen:
			st.state = StateHalfOpen
			m.opt.Logf("repl: monitor: %s half-open (probe succeeded)", url)
		case StateHalfOpen:
			st.state = StateClosed
			st.backoff = 0
			m.opt.Logf("repl: monitor: %s closed (recovered)", url)
		}
		return
	}
	m.failures.Add(1)
	st.lastErr = err
	switch st.state {
	case StateClosed:
		st.fails++
		if st.fails >= m.opt.FailThreshold {
			st.state = StateOpen
			st.backoff = m.opt.Interval
			st.due = time.Now().Add(st.backoff)
			m.opens.Add(1)
			m.opt.Logf("repl: monitor: %s open after %d consecutive failures (%v)", url, st.fails, err)
		}
	case StateHalfOpen:
		st.state = StateOpen
		st.backoff = max(st.backoff, m.opt.Interval)
		st.due = time.Now().Add(st.backoff)
		m.opens.Add(1)
		m.opt.Logf("repl: monitor: %s re-open (half-open probe failed: %v)", url, err)
	case StateOpen:
		st.backoff = min(st.backoff*2, m.opt.BackoffMax)
		st.due = time.Now().Add(st.backoff)
	}
}

// Available reports whether the node is usable for routing: anything but an
// open circuit. Unknown nodes are available (the monitor may simply not have
// been told about them).
func (m *Monitor) Available(url string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.nodes[url]
	return st == nil || st.state != StateOpen
}

// State returns the node's breaker state (closed for unknown nodes).
func (m *Monitor) State(url string) BreakerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.nodes[url]; st != nil {
		return st.state
	}
	return StateClosed
}

// Health returns the node's last successful health payload, which may be
// stale if the node has since failed probes; nil if none ever succeeded.
func (m *Monitor) Health(url string) *HealthStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.nodes[url]; st != nil {
		return st.health
	}
	return nil
}

// NodeProbe is one node's monitor view for stats.
type NodeProbe struct {
	State   string        `json:"state"`
	Fails   int           `json:"fails,omitempty"`
	LastErr string        `json:"lastErr,omitempty"`
	Health  *HealthStatus `json:"health,omitempty"`
}

// MonitorStats is the monitor counter block for router stats.
type MonitorStats struct {
	Probes   int64                `json:"probes"`
	Failures int64                `json:"failures"`
	Opens    int64                `json:"opens"`
	Nodes    map[string]NodeProbe `json:"nodes"`
}

// Stats snapshots the monitor.
func (m *Monitor) Stats() MonitorStats {
	s := MonitorStats{
		Probes:   m.probes.Load(),
		Failures: m.failures.Load(),
		Opens:    m.opens.Load(),
		Nodes:    map[string]NodeProbe{},
	}
	m.mu.Lock()
	for url, st := range m.nodes {
		np := NodeProbe{State: st.state.String(), Fails: st.fails, Health: st.health}
		if st.lastErr != nil {
			np.LastErr = st.lastErr.Error()
		}
		s.Nodes[url] = np
	}
	m.mu.Unlock()
	return s
}
