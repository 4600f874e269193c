// Package pels is the core library of this reproduction: the end-host side
// of Partitioned Enhancement Layer Streaming (paper §4-5). A Source
// packetizes FGS video frames, colors packets green/yellow/red according to
// the γ controller, paces them onto the network at the rate chosen by its
// congestion controller (MKC by default), and reacts to router feedback
// carried back in ACKs. A Sink reassembles frames, computes useful-prefix
// statistics, and echoes feedback to the source.
//
// The same Source can run in best-effort mode (the paper's §6.5 baseline),
// where the enhancement layer is left unmarked and the bottleneck drops it
// uniformly at random.
package pels

import (
	"fmt"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/units"
)

// Mode selects how a source marks its enhancement-layer packets.
type Mode int

const (
	// ModePELS colors the enhancement prefix yellow/red per γ (paper §4.2).
	ModePELS Mode = iota + 1
	// ModeBestEffort leaves the enhancement layer unmarked (best-effort),
	// reproducing the baseline of §6.5. The base layer stays green: the
	// paper's baseline "magically" protects it.
	ModeBestEffort
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModePELS:
		return "pels"
	case ModeBestEffort:
		return "best-effort"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterizes one streaming session (source + sink pair).
type Config struct {
	// Flow is the flow identifier shared by data and ACK packets.
	Flow int
	// Mode selects PELS or best-effort marking; zero means ModePELS.
	Mode Mode
	// Frame describes the packetization; zero value means the paper's
	// CIF Foreman numbers (126×500 B, 21 green).
	Frame fgs.FrameSpec
	// FrameInterval is the inter-frame spacing. The repository default
	// (500 ms) makes the full-rate frame correspond to ~1 mb/s, matching
	// the per-flow fair share of the paper's 2 mb/s PELS capacity.
	FrameInterval time.Duration
	// MKC parameterizes the rate controller; zero value means the paper's
	// parameters (α=20 kb/s, β=0.5, r₀=128 kb/s).
	MKC cc.MKCConfig
	// Gamma parameterizes the red-fraction controller; zero value means
	// the paper's parameters (σ=0.5, p_thr=0.75, γ₀=0.5, γ_low=0.05).
	Gamma fgs.GammaConfig
	// AckSize is the ACK packet size in bytes (default 40).
	AckSize int
	// Controller optionally replaces MKC with another cc.Controller
	// (e.g. cc.AIMD); when set, the MKC field is ignored. PELS is
	// explicitly independent of the congestion controller (paper §5). A
	// controller instance must drive exactly one source; for configs used
	// as templates across several flows use ControllerFactory instead.
	Controller cc.Controller
	// ControllerFactory builds a fresh controller per source, taking
	// precedence over both Controller and MKC. Use it when one Config
	// parameterizes many flows.
	ControllerFactory func() cc.Controller
	// AckEvery makes the sink acknowledge every n-th packet (default 1);
	// feedback freshness is preserved because every data packet carries
	// the latest router label anyway.
	AckEvery int
	// RedShare selects the denominator γ applies to when sizing the red
	// segment (default fgs.RedShareTotal; see that type's documentation).
	RedShare fgs.RedShare
	// Layers selects the number of priority layers the source splits each
	// frame into. 0 and 3 select the classic green/yellow/red path (the
	// paper's model, bit-exact); 2 or 4..packet.MaxLayers split the frame
	// with the default γ ladder (fgs.Ladder): N−1 cumulative split points
	// interpolated from 1 down to the controller's γ, so the single-γ
	// controller keeps steering the whole ladder. The bottleneck must be
	// configured with a matching layer count (queue.NLayerPriorityConfig).
	Layers int
	// Scaler decides each frame's byte budget from the controller rate;
	// nil means fgs.ConstantScaler (the paper's x_i = r·interval).
	// fgs.RDScaler implements the complexity-aware allocation the paper
	// cites as a quality-smoothing extension.
	Scaler fgs.Scaler
	// RateSeries, if non-nil, records every accepted rate update (kb/s)
	// at simulation time. It replaces the former OnRate callback and
	// normally comes from an obs.Registry shared by the experiment.
	RateSeries *obs.Series
	// GammaSeries, if non-nil, records every γ update at simulation time
	// (PELS mode only). It replaces the former OnGamma callback.
	GammaSeries *obs.Series
}

// WithDefaults returns the configuration with every zero field replaced by
// the paper's default value. Experiments use it to read the effective
// parameters of a session built from a partial config.
func (c Config) WithDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModePELS
	}
	if c.Frame == (fgs.FrameSpec{}) {
		c.Frame = fgs.DefaultFrameSpec()
	}
	if c.FrameInterval <= 0 {
		c.FrameInterval = 500 * time.Millisecond
	}
	if c.MKC == (cc.MKCConfig{}) {
		c.MKC = cc.DefaultMKCConfig()
	}
	if c.MKC.MinRate < c.Frame.BaseRate(c.FrameInterval) {
		// Below the base-layer rate no meaningful streaming is possible
		// (paper §4.2: green loss means the session cannot continue), so
		// the controller never requests less.
		c.MKC.MinRate = c.Frame.BaseRate(c.FrameInterval)
	}
	if c.MKC.MaxRate <= 0 {
		// The source can never transmit faster than the full-rate stream
		// R_max; letting the controller ask for more would decouple it
		// from the loss feedback (the excess is never offered to the
		// network, so no congestion signal ever pushes the rate back).
		c.MKC.MaxRate = c.Frame.MaxRate(c.FrameInterval)
	}
	if c.Gamma == (fgs.GammaConfig{}) {
		c.Gamma = fgs.DefaultGammaConfig()
	}
	if c.AckSize <= 0 {
		c.AckSize = 40
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 1
	}
	if c.RedShare == 0 {
		c.RedShare = fgs.RedShareTotal
	}
	if c.Scaler == nil {
		c.Scaler = fgs.ConstantScaler{}
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.Mode != ModePELS && c.Mode != ModeBestEffort {
		return fmt.Errorf("pels: unknown mode %d", int(c.Mode))
	}
	return c.stream().Validate()
}

// Layered reports whether the configuration uses the generalized N-layer
// plan path rather than the classic 3-color PlanShare path.
func (c Config) Layered() bool { return c.stream().Layered() }

// stream returns the sender-core half of the configuration. The
// simulator runs the core without a watchdog or rate floor, so frames are
// planned at exactly the controller's rate.
func (c Config) stream() stream.Config {
	return stream.Config{
		Frame:         c.Frame,
		FrameInterval: c.FrameInterval,
		Gamma:         c.Gamma,
		RedShare:      c.RedShare,
		Layers:        c.Layers,
		Scaler:        c.Scaler,
		BestEffort:    c.Mode == ModeBestEffort,
	}
}

// SentFrame records what the source transmitted for one frame. Classic
// 3-color sessions fill Plan; layered sessions (Config.Layered) fill
// LayerPlan instead.
type SentFrame struct {
	Frame     int
	Plan      fgs.PacketPlan
	LayerPlan fgs.LayerPlan
	Rate      units.BitRate // sending rate when the frame was planned
	SentAt    time.Duration
}

// Session wires a Source on srcHost to a Sink on dstHost and returns both.
// It is the simplest way to set up a streaming pair; experiments that need
// asymmetric setups can construct the two halves directly.
func Session(net *netsim.Network, srcHost, dstHost *netsim.Host, cfg Config) (*Source, *Sink, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	sink, err := NewSink(net, dstHost, cfg)
	if err != nil {
		return nil, nil, err
	}
	src, err := NewSource(net, srcHost, dstHost.ID(), cfg)
	if err != nil {
		return nil, nil, err
	}
	return src, sink, nil
}
