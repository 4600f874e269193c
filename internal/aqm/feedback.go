// Package aqm implements the router-side machinery of the PELS framework:
// interval-based loss feedback computation (paper eq. 11), epoch-numbered
// feedback stamping into passing packets (paper §5.2), and assembly of the
// PELS queue structure (strict-priority color queues + Internet FIFO under
// WRR, paper Fig. 4 left). A best-effort variant used as the paper's
// baseline (§6.5) is also provided.
package aqm

import (
	"time"

	"repro/internal/cc"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// FeedbackConfig parameterizes the per-router feedback computation.
type FeedbackConfig struct {
	// RouterID identifies this router in feedback labels.
	RouterID int
	// Interval is T, the measurement period (paper uses 30 ms).
	Interval time.Duration
	// Capacity is C, the capacity available to PELS traffic — the WRR
	// share of the outgoing link, not the raw link rate.
	Capacity units.BitRate
	// MinLoss clamps the computed loss from below. Negative p is
	// meaningful (it drives MKC's exponential bandwidth claiming), but an
	// idle interval would otherwise produce p → −∞. Zero selects
	// DefaultMinLoss; positive values are invalid (the clamp is a lower
	// bound on a quantity that is negative exactly when there is spare
	// capacity, so a positive bound would fabricate congestion).
	MinLoss float64
	// Obs, if non-nil, receives the router's per-interval series
	// (Prefix+"feedback_loss", Prefix+"feedback_rate_kbps") and epoch
	// counter, timestamped with simulation time. It replaces the former
	// OnCompute callback.
	Obs *obs.Registry
	// Prefix namespaces the metric names, for topologies that register
	// several feedback routers in one registry.
	Prefix string
	// StampBestEffort extends feedback stamping to best-effort-colored
	// packets, used by the baseline streaming scheme.
	StampBestEffort bool
	// GreenOnly restricts stamping to green packets. The paper argues
	// (§5.1) this adds feedback latency; it exists for the ablation bench.
	GreenOnly bool
}

// Feedback measures the aggregate PELS arrival rate R = S/T every interval,
// computes packet loss p = (R−C)/R, increments the epoch number z, and
// stamps (routerID, z, p) into passing packets (paper eq. 11 and §5.2).
// It implements netsim.Processor.
type Feedback struct {
	cfg    FeedbackConfig
	eng    *sim.Engine
	ticker *sim.Ticker

	bytes int64 // S: PELS bytes arrived in the current interval
	epoch uint64
	loss  float64

	lossSeries *obs.Series
	rateSeries *obs.Series
	epochs     *obs.Counter
}

var _ netsim.Processor = (*Feedback)(nil)

// NewFeedback creates the processor and starts its measurement ticker.
func NewFeedback(eng *sim.Engine, cfg FeedbackConfig) *Feedback {
	if cfg.Interval <= 0 {
		panic("aqm: feedback interval must be positive")
	}
	if cfg.Capacity <= 0 {
		panic("aqm: feedback capacity must be positive")
	}
	if cfg.MinLoss > 0 {
		panic("aqm: feedback MinLoss must be negative (it bounds the spare-capacity signal)")
	}
	// Exact zero-value check distinguishing "unset" from a configured
	// clamp: valid MinLoss values are strictly negative, so 0 can only
	// mean the field was left at its zero value.
	//pelsvet:allow floateq
	if cfg.MinLoss == 0 {
		cfg.MinLoss = cc.DefaultMinLoss
	}
	f := &Feedback{cfg: cfg, eng: eng, loss: cfg.MinLoss}
	if cfg.Obs != nil {
		f.lossSeries = cfg.Obs.Series(cfg.Prefix + "feedback_loss")
		f.rateSeries = cfg.Obs.Series(cfg.Prefix + "feedback_rate_kbps")
		f.epochs = cfg.Obs.Counter(cfg.Prefix + "feedback_epochs")
	}
	f.ticker = sim.NewTicker(eng, cfg.Interval, f.compute)
	f.ticker.Start()
	return f
}

// Process implements netsim.Processor: it counts PELS arrivals toward S and
// stamps the current feedback label into the packet header.
func (f *Feedback) Process(p *packet.Packet) {
	if p.Color.IsPELS() || (f.cfg.StampBestEffort && p.Color == packet.BestEffort) {
		f.bytes += int64(p.Size)
	}
	if !f.shouldStamp(p) {
		return
	}
	p.Feedback = p.Feedback.Merge(f.cfg.RouterID, f.epoch, f.loss)
}

func (f *Feedback) shouldStamp(p *packet.Packet) bool {
	if f.cfg.GreenOnly {
		return p.Color == packet.Green
	}
	if p.Color.IsPELS() {
		return true
	}
	return f.cfg.StampBestEffort && p.Color == packet.BestEffort
}

// compute closes one measurement interval: p from eq. (11) over S bytes
// in T, z = z+1, S = 0.
func (f *Feedback) compute() {
	rate, loss := cc.RouterLoss(f.bytes, f.cfg.Interval, f.cfg.Capacity, f.cfg.MinLoss)
	f.loss = loss
	f.epoch++
	f.bytes = 0
	if f.epochs != nil {
		f.epochs.Inc()
		now := f.eng.Now()
		f.lossSeries.Add(now, loss)
		f.rateSeries.Add(now, rate.KbpsValue())
	}
}

// SetCapacity changes the capacity C used in subsequent loss computations.
// Experiments use it to model WRR reconfiguration or a higher-priority
// aggregate claiming part of the PELS share (bottleneck shifts, §5.2).
func (f *Feedback) SetCapacity(c units.BitRate) {
	if c <= 0 {
		panic("aqm: SetCapacity with non-positive capacity")
	}
	f.cfg.Capacity = c
}

// Capacity returns the capacity currently used for loss computation.
func (f *Feedback) Capacity() units.BitRate { return f.cfg.Capacity }

// Epoch returns the router's current epoch number z.
func (f *Feedback) Epoch() uint64 { return f.epoch }

// Loss returns the most recently computed loss p(k).
func (f *Feedback) Loss() float64 { return f.loss }

// Stop halts the measurement ticker.
func (f *Feedback) Stop() { f.ticker.Stop() }
