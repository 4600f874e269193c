package wire

import (
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/units"
)

// GatewayConfig parameterizes the live marking gateway.
type GatewayConfig struct {
	// RouterID identifies this gateway in feedback labels.
	RouterID int
	// Interval is T, the feedback measurement period (paper uses 30 ms).
	Interval time.Duration
	// Capacity is C, the rate available to PELS traffic — normally the
	// bandwidth of the link the gateway fronts.
	Capacity units.BitRate
	// MinLoss clamps the computed loss from below; it must be negative
	// (the negative range is the spare-capacity signal that lets sources
	// grow). 0 selects cc.DefaultMinLoss.
	MinLoss float64
	// Now overrides the clock for tests; nil means time.Now.
	Now func() time.Time
	// Obs, if non-nil, registers the gateway's epoch, loss, and stamp
	// gauges under the "gateway." prefix.
	Obs *obs.Registry
}

// Gateway is the live counterpart of aqm.Feedback plus the drop-priority
// classifier: installed as a link's Marker, it measures the aggregate
// PELS arrival rate R over each interval, computes p = (R−C)/R (paper
// eq. 11), advances the epoch, and stamps (router ID, epoch, p) into
// every passing PELS datagram with the max-loss override of eq. 8.
//
// The epoch clock is advanced lazily from packet arrivals rather than by
// a timer goroutine: an idle link stamps nothing, so nothing is lost,
// and the loss computation uses the actually elapsed window length,
// which keeps R accurate under scheduler jitter.
type Gateway struct {
	cfg GatewayConfig

	mu          sync.Mutex
	bytes       int64 // S: PELS bytes arrived in the current window
	epoch       uint64
	loss        float64
	windowStart time.Time
	started     bool
	stamped     uint64
	ignored     uint64
}

var _ Marker = (*Gateway)(nil)

// NewGateway validates cfg and returns a gateway.
func NewGateway(cfg GatewayConfig) *Gateway {
	if cfg.Interval <= 0 {
		panic("wire: gateway interval must be positive")
	}
	if cfg.Capacity <= 0 {
		panic("wire: gateway capacity must be positive")
	}
	if cfg.MinLoss > 0 {
		panic("wire: gateway MinLoss must be negative (it bounds the spare-capacity signal)")
	}
	if cfg.MinLoss == 0 {
		cfg.MinLoss = cc.DefaultMinLoss
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	g := &Gateway{cfg: cfg, loss: cfg.MinLoss}
	if cfg.Obs != nil {
		cfg.Obs.GaugeFunc("gateway.epoch", func() float64 { return float64(g.Epoch()) })
		cfg.Obs.GaugeFunc("gateway.loss", g.Loss)
		cfg.Obs.GaugeFunc("gateway.stamped", func() float64 { return float64(g.Stamped()) })
		cfg.Obs.GaugeFunc("gateway.ignored", func() float64 {
			g.mu.Lock()
			defer g.mu.Unlock()
			return float64(g.ignored)
		})
	}
	return g
}

// Mark implements Marker: PELS data datagrams are counted toward S and
// stamped with the current label; everything else (feedback, hello,
// best-effort, non-PELS noise) passes through untouched.
func (g *Gateway) Mark(b []byte) bool {
	color, ok := PeekColor(b)
	if !ok || !color.IsPELS() {
		g.mu.Lock()
		g.ignored++
		g.mu.Unlock()
		return false
	}
	g.mu.Lock()
	g.advanceLocked(g.cfg.Now())
	g.bytes += int64(len(b))
	fb := packet.Feedback{RouterID: g.cfg.RouterID, Epoch: g.epoch, Loss: g.loss, Valid: true}
	g.stamped++
	g.mu.Unlock()
	// Stamp outside anything fancy: the datagram was just validated by
	// PeekColor, so this cannot fail.
	_ = StampFeedback(b, fb)
	return false
}

// Priority implements Marker: control datagrams (feedback, hello, or
// anything unparseable) rank above green, then yellow, then red — so
// congestion drops consume probes first, exactly like the strict-priority
// PELS queue of paper Fig. 4.
func (g *Gateway) Priority(b []byte) int {
	color, ok := PeekColor(b)
	if !ok {
		return 0
	}
	switch color {
	case packet.Green:
		return 1
	case packet.Yellow:
		return 2
	case packet.Red:
		return 3
	default: // best-effort video ranks below all PELS colors
		return 4
	}
}

// advanceLocked closes the measurement window once it has fully elapsed
// by now: p from eq. (11) over the real window length, z = z+1, S = 0.
func (g *Gateway) advanceLocked(now time.Time) {
	if !g.started {
		g.windowStart = now
		g.started = true
		return
	}
	elapsed := now.Sub(g.windowStart)
	if elapsed < g.cfg.Interval {
		return
	}
	_, g.loss = cc.RouterLoss(g.bytes, elapsed, g.cfg.Capacity, g.cfg.MinLoss)
	g.epoch++
	g.bytes = 0
	g.windowStart = now
}

// Epoch returns the current epoch number z.
func (g *Gateway) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Loss returns the most recently computed loss p(k).
func (g *Gateway) Loss() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.loss
}

// Stamped returns how many datagrams have been counted and stamped.
func (g *Gateway) Stamped() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stamped
}

// MarkerSwitch is a Marker whose underlying implementation can be swapped
// while traffic flows — the live mechanism for a route change or gateway
// restart: the link keeps one Marker for its lifetime, and chaos drivers
// replace the Gateway behind it (new RouterID, epoch counter back at
// zero). A nil inner marker stamps nothing and ranks everything equal.
type MarkerSwitch struct {
	mu    sync.RWMutex
	inner Marker
}

// NewMarkerSwitch returns a switch initially delegating to m (may be nil).
func NewMarkerSwitch(m Marker) *MarkerSwitch {
	return &MarkerSwitch{inner: m}
}

// Set atomically replaces the delegate marker.
func (s *MarkerSwitch) Set(m Marker) {
	s.mu.Lock()
	s.inner = m
	s.mu.Unlock()
}

// Mark delegates to the current marker.
func (s *MarkerSwitch) Mark(b []byte) bool {
	s.mu.RLock()
	m := s.inner
	s.mu.RUnlock()
	if m == nil {
		return false
	}
	return m.Mark(b)
}

// Priority delegates to the current marker.
func (s *MarkerSwitch) Priority(b []byte) int {
	s.mu.RLock()
	m := s.inner
	s.mu.RUnlock()
	if m == nil {
		return 0
	}
	return m.Priority(b)
}
