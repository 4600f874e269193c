// Package stream is the PELS sender core shared by the simulator and the
// live server: at each frame boundary it sizes the byte budget from the
// congestion controller's rate (paper eq. 8), splits it into priority
// layers with the γ controller (paper §4.2), numbers the packets per wire
// band, and reacts to router feedback — epoch dedup through the
// controller, γ reset when the bottleneck router changes, and the
// stale-feedback watchdog.
//
// The core never reads a clock and never does I/O: every instant is an
// argument, and the caller owns pacing, transmission, and locking. The
// simulator's pels.Source drives it from the event clock and the live
// session.Session from the pacing wheel, so both run the same control
// law.
package stream

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/units"
)

// StaleDecay is the watchdog's per-horizon rate multiplier: each
// StaleTimeout without fresh feedback halves the effective rate.
const StaleDecay = 0.5

// minDegrade bounds the watchdog multiplier so a long outage cannot
// underflow it; ten halvings is already far below any useful video rate,
// and MinRate floors the effective rate anyway.
const minDegrade = 1.0 / 1024

// Config parameterizes one sender core.
type Config struct {
	// Frame is the FGS packetization.
	Frame fgs.FrameSpec
	// FrameInterval is the video frame period the scaler budgets for.
	FrameInterval time.Duration
	// Gamma parameterizes the red-fraction controller; the zero value
	// selects fgs.DefaultGammaConfig.
	Gamma fgs.GammaConfig
	// RedShare selects the γ denominator; 0 means fgs.RedShareTotal.
	RedShare fgs.RedShare
	// Layers selects the number of priority layers per frame: 0 and 3
	// plan the classic green/yellow/red split (fgs.PlanShare, the paper's
	// model bit for bit); 2 or 4..packet.MaxLayers plan with the default
	// γ ladder (fgs.Ladder).
	Layers int
	// Scaler maps rate to per-frame byte budgets; nil means
	// fgs.ConstantScaler.
	Scaler fgs.Scaler
	// BestEffort plans every frame with γ = 0 and never steps γ: the
	// paper's unmarked baseline (§6.5).
	BestEffort bool
	// StaleTimeout arms the stale-feedback watchdog: once no fresh
	// feedback has been accepted for this long, each Tick past another
	// full horizon multiplies the effective rate by StaleDecay. The first
	// fresh label restores the controller rate in full (the controller
	// state itself is never decayed). 0 disables the watchdog.
	StaleTimeout time.Duration
	// MinRate floors the effective rate, so a long feedback outage
	// degrades the stream to its base layer instead of silencing it.
	// 0 means no floor.
	MinRate units.BitRate
}

// Layered reports whether the configuration plans with the γ ladder
// rather than the classic 3-color split.
func (c Config) Layered() bool { return c.Layers != 0 && c.Layers != 3 }

// Validate reports configuration errors. A zero Gamma is valid (it
// selects the default).
func (c Config) Validate() error {
	if err := c.Frame.Validate(); err != nil {
		return err
	}
	if c.Gamma != (fgs.GammaConfig{}) {
		if err := c.Gamma.Validate(); err != nil {
			return err
		}
	}
	if c.Layers != 0 && (c.Layers < 2 || c.Layers > packet.MaxLayers) {
		return fmt.Errorf("stream: layers must be 0 (classic) or in [2,%d], got %d", packet.MaxLayers, c.Layers)
	}
	if c.StaleTimeout < 0 {
		return fmt.Errorf("stream: negative stale timeout %v", c.StaleTimeout)
	}
	return nil
}

// Stats is a snapshot of the core's feedback counters and control state.
type Stats struct {
	FeedbackAccepted uint64
	Rate             units.BitRate
	Gamma            float64
	LastLoss         float64
	// StaleDecays counts watchdog rate decays, Recoveries the returns to
	// full controller rate, RouterChanges the feedback discontinuities
	// that reset γ. Degrade is the current watchdog multiplier (1 when
	// feedback is fresh).
	StaleDecays   uint64
	Recoveries    uint64
	RouterChanges uint64
	Degrade       float64
}

// Core is one stream's sender state. It is not safe for concurrent use:
// the driver serializes every call.
type Core struct {
	cfg   Config
	ctrl  cc.Controller
	gamma *fgs.Gamma
	pk    *fgs.Packetizer

	// The current frame plan: plan for classic streams, layerPlan (with
	// its γ ladder scratch) for layered ones.
	plan      fgs.PacketPlan
	layerPlan fgs.LayerPlan
	gammas    []float64

	seq [3]uint64 // next sequence number per wire band (Green, Yellow, Red)

	degrade        float64 // watchdog multiplier, 1 when feedback is fresh
	lastFeedbackAt time.Time
	lastDecayAt    time.Time
	lastRouter     int
	haveRouter     bool
	stats          Stats
}

// New builds a core around ctrl, with the watchdog anchored at now.
func New(cfg Config, ctrl cc.Controller, now time.Time) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Gamma == (fgs.GammaConfig{}) {
		cfg.Gamma = fgs.DefaultGammaConfig()
	}
	if cfg.RedShare == 0 {
		cfg.RedShare = fgs.RedShareTotal
	}
	if cfg.Scaler == nil {
		cfg.Scaler = fgs.ConstantScaler{}
	}
	gamma, err := fgs.NewGamma(cfg.Gamma)
	if err != nil {
		return nil, err
	}
	pk, err := fgs.NewPacketizer(cfg.Frame)
	if err != nil {
		return nil, err
	}
	c := &Core{cfg: cfg, ctrl: ctrl, gamma: gamma, pk: pk, degrade: 1, lastFeedbackAt: now}
	if cfg.Layered() {
		c.layerPlan = fgs.LayerPlan{Counts: make([]int, cfg.Layers)}
		c.gammas = make([]float64, cfg.Layers-1)
	}
	return c, nil
}

// EffectiveRate is the rate frames are planned and paced at: the
// controller rate scaled by the watchdog multiplier and floored at
// MinRate. With the watchdog idle and no floor it is exactly the
// controller rate.
func (c *Core) EffectiveRate() units.BitRate {
	r := c.ctrl.Rate()
	if c.degrade < 1 {
		r = units.BitRate(float64(r) * c.degrade)
	}
	if min := c.cfg.MinRate; min > 0 && r < min {
		r = min
	}
	return r
}

// PlanFrame plans frame at the effective rate and current γ and returns
// its packet count. Layer, Color, and Band then describe each packet.
//
//pelsvet:noalloc
func (c *Core) PlanFrame(frame int) int {
	budget := c.cfg.Scaler.Budget(frame, c.EffectiveRate(), c.cfg.FrameInterval)
	g := c.gamma.Value()
	if c.cfg.BestEffort {
		g = 0
	}
	if c.gammas != nil {
		fgs.Ladder(c.gammas, g)
		c.layerPlan.Frame = frame
		c.pk.PlanLayersInto(c.layerPlan.Counts, frame, budget, c.gammas, c.cfg.RedShare)
		return c.layerPlan.Total()
	}
	c.plan = c.pk.PlanShare(frame, budget, g, c.cfg.RedShare)
	return c.plan.Total()
}

// Plan returns the current classic plan (zero for layered streams).
func (c *Core) Plan() fgs.PacketPlan { return c.plan }

// LayerPlan returns the current layered plan (zero for classic streams).
// Its Counts are the core's scratch, overwritten by the next PlanFrame.
func (c *Core) LayerPlan() fgs.LayerPlan { return c.layerPlan }

// Layers returns the number of priority layers per frame.
func (c *Core) Layers() int {
	if c.gammas != nil {
		return c.cfg.Layers
	}
	return 3
}

// Layer returns the priority layer of packet idx of the current plan
// (0 = base).
func (c *Core) Layer(idx int) int {
	if c.gammas != nil {
		return c.layerPlan.Layer(idx)
	}
	l, _ := c.plan.Color(idx).Layer()
	return l
}

// Color returns the simulator color of packet idx: its priority layer's
// color (packet.LayerColor).
func (c *Core) Color(idx int) packet.Color {
	if c.gammas != nil {
		return c.layerPlan.Color(idx)
	}
	return c.plan.Color(idx)
}

// Band returns the on-wire band of packet idx. The wire carries only the
// paper's three colors, so the base layer travels Green, the top (probe)
// layer Red, and every layer between Yellow; classic streams map one to
// one.
func (c *Core) Band(idx int) packet.Color {
	if c.gammas == nil {
		return c.plan.Color(idx)
	}
	switch l := c.layerPlan.Layer(idx); {
	case l == 0:
		return packet.Green
	case l == c.cfg.Layers-1:
		return packet.Red
	default:
		return packet.Yellow
	}
}

// NextSeq returns the next sequence number of a wire band and advances
// it. Each band numbers its packets independently from 0, so receivers
// infer per-band loss from gaps. It panics on a non-band color.
//
//pelsvet:noalloc
func (c *Core) NextSeq(band packet.Color) uint64 {
	if !band.IsWireBand() {
		panic("stream: sequence number for a non-band color")
	}
	n := c.seq[band-packet.Green]
	c.seq[band-packet.Green] = n + 1
	return n
}

// OnFeedback offers one router label at instant now. A fresh label (the
// controller accepted a new epoch) restores a decayed rate, then either
// resets γ — when the label comes from a different router than the last
// one, because the loss history γ integrated belongs to a queue the
// stream no longer crosses — or steps γ with the reported loss.
// Duplicates and invalid labels change nothing. It reports freshness.
//
//pelsvet:noalloc
func (c *Core) OnFeedback(fb packet.Feedback, now time.Time) bool {
	if !fb.Valid || !c.ctrl.OnFeedback(fb) {
		return false
	}
	c.lastFeedbackAt = now
	if c.degrade < 1 {
		c.degrade = 1
		c.stats.Recoveries++
	}
	if !c.cfg.BestEffort {
		if c.haveRouter && fb.RouterID != c.lastRouter {
			c.gamma.Reset()
			c.stats.RouterChanges++
		} else {
			c.gamma.Update(fb.Loss)
		}
	}
	c.lastRouter = fb.RouterID
	c.haveRouter = true
	c.stats.FeedbackAccepted++
	return true
}

// Tick runs the stale-feedback watchdog at instant now and reports
// whether it decayed the effective rate: at most once per StaleTimeout
// horizon, and only after a full horizon without fresh feedback.
func (c *Core) Tick(now time.Time) bool {
	t := c.cfg.StaleTimeout
	if t <= 0 || now.Sub(c.lastFeedbackAt) < t || now.Sub(c.lastDecayAt) < t {
		return false
	}
	c.lastDecayAt = now
	if c.degrade *= StaleDecay; c.degrade < minDegrade {
		c.degrade = minDegrade
	}
	c.stats.StaleDecays++
	return true
}

// FeedbackAt returns the instant of the last fresh label (the
// construction instant before any).
func (c *Core) FeedbackAt() time.Time { return c.lastFeedbackAt }

// Rate returns the controller's current rate.
func (c *Core) Rate() units.BitRate { return c.ctrl.Rate() }

// Gamma returns the γ controller's current red fraction.
func (c *Core) Gamma() float64 { return c.gamma.Value() }

// Controller exposes the congestion controller for inspection.
func (c *Core) Controller() cc.Controller { return c.ctrl }

// Stats returns a snapshot of the counters and control state.
func (c *Core) Stats() Stats {
	st := c.stats
	st.Rate = c.ctrl.Rate()
	st.Gamma = c.gamma.Value()
	st.LastLoss = c.ctrl.LastLoss()
	st.Degrade = c.degrade
	return st
}
