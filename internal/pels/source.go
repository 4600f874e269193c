package pels

import (
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/units"
)

// Source is the sending side of a streaming session: the simulator
// driver of the shared sender core (internal/stream). At each frame
// boundary the core sizes the frame's byte budget x_i = r·interval from
// the congestion controller's rate and partitions it with the γ
// controller (paper Fig. 4 right); the source paces the packets onto the
// network at the controller's rate on the event clock. ACKs from the sink
// deliver router feedback to the core.
type Source struct {
	cfg  Config
	eng  *sim.Engine
	net  *netsim.Network
	host *netsim.Host
	dst  int

	core *stream.Core

	frame   int // next frame number to plan
	cur     int // frame number of the current plan
	total   int // packets in the current plan
	nextIdx int
	layered bool
	sent    []SentFrame
	emitEv  *sim.Event
	started bool
	stopped bool

	pktsSent  int64
	bytesSent int64
}

var _ netsim.App = (*Source)(nil)

// NewSource builds a source on host streaming to the node dst. The source
// registers itself for the flow's ACKs on host.
func NewSource(net *netsim.Network, host *netsim.Host, dst int, cfg Config) (*Source, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var ctrl cc.Controller
	switch {
	case cfg.ControllerFactory != nil:
		ctrl = cfg.ControllerFactory()
	case cfg.Controller != nil:
		ctrl = cfg.Controller
	}
	if ctrl == nil {
		ctrl = cc.NewMKC(cfg.MKC)
	}
	core, err := stream.New(cfg.stream(), ctrl, time.Time{})
	if err != nil {
		return nil, err
	}
	s := &Source{
		cfg:     cfg,
		eng:     net.Engine(),
		net:     net,
		host:    host,
		dst:     dst,
		core:    core,
		layered: cfg.Layered(),
	}
	host.Attach(cfg.Flow, s)
	return s, nil
}

// Start begins streaming at the given simulation time (first frame sent
// immediately at that instant).
func (s *Source) Start(at time.Duration) {
	s.eng.At(at, func() {
		if s.stopped || s.started {
			return
		}
		s.started = true
		s.planFrame()
		s.emitNext()
	})
}

// Stop halts streaming and cancels queued packet transmissions.
func (s *Source) Stop() {
	s.stopped = true
	if s.emitEv != nil {
		s.emitEv.Cancel()
		s.emitEv = nil
	}
}

// planFrame plans the next video frame at the controller's current rate
// and γ (paper §4.2) and records it. The frame is a data unit, not a time
// gate — the source streams packets continuously and starts the next
// frame as soon as the current one is fully transmitted, exactly like a
// streaming server whose rate-scaling module picks x_i at each frame
// boundary. At a steady rate a frame takes exactly one frame interval on
// the wire.
func (s *Source) planFrame() {
	rec := SentFrame{Frame: s.frame, Rate: s.core.EffectiveRate(), SentAt: s.eng.Now()}
	s.total = s.core.PlanFrame(s.frame)
	if s.layered {
		counts := make([]int, s.core.Layers())
		copy(counts, s.core.LayerPlan().Counts)
		rec.LayerPlan = fgs.LayerPlan{Frame: s.frame, Counts: counts}
	} else {
		rec.Plan = s.core.Plan()
	}
	s.cur = s.frame
	s.nextIdx = 0
	s.sent = append(s.sent, rec)
	s.frame++
}

// emitNext sends the next packet of the stream and schedules the following
// one at the spacing implied by the current sending rate, so rate changes
// take effect within one packet time (a slower actuator would turn the
// feedback loop into a limit cycle).
func (s *Source) emitNext() {
	s.emitEv = nil
	if s.stopped {
		return
	}
	if s.nextIdx >= s.total {
		s.planFrame()
		if s.total == 0 {
			// Degenerate spec (no packets to send); try again next frame
			// interval rather than spinning.
			s.emitEv = s.eng.Schedule(s.cfg.FrameInterval, s.emitNext)
			return
		}
	}
	index := s.nextIdx
	s.nextIdx++
	color := s.core.Color(index)
	if s.cfg.Mode == ModeBestEffort && color != packet.Green {
		color = packet.BestEffort
	}
	p := s.net.NewPacket(s.cfg.Flow, s.dst, s.cfg.Frame.PacketSize, color)
	p.Frame = s.cur
	p.Index = index
	s.pktsSent++
	s.bytesSent += int64(p.Size)
	s.host.Send(p)

	spacing := s.core.Rate().TransmissionTime(s.cfg.Frame.PacketSize)
	s.emitEv = s.eng.Schedule(spacing, s.emitNext)
}

// HandlePacket implements netsim.App: ACKs carry router feedback back to
// the source, driving both the rate controller and the γ loop.
func (s *Source) HandlePacket(p *packet.Packet) {
	if p.Color != packet.ACK {
		return
	}
	now := s.eng.Now()
	if !s.core.OnFeedback(p.AckedFeedback, time.Time{}.Add(now)) {
		return // invalid, or a stale epoch: already reacted to this feedback
	}
	if s.cfg.RateSeries != nil {
		s.cfg.RateSeries.Add(now, s.core.Rate().KbpsValue())
	}
	if s.cfg.GammaSeries != nil && s.cfg.Mode == ModePELS {
		s.cfg.GammaSeries.Add(now, s.core.Gamma())
	}
}

// Rate returns the controller's current sending rate.
func (s *Source) Rate() units.BitRate { return s.core.Rate() }

// Gamma returns the current red fraction γ.
func (s *Source) Gamma() float64 { return s.core.Gamma() }

// Controller exposes the congestion controller for inspection.
func (s *Source) Controller() cc.Controller { return s.core.Controller() }

// SentFrames returns the per-frame transmission records. The slice is
// owned by the source; callers must not mutate it.
func (s *Source) SentFrames() []SentFrame { return s.sent }

// PacketsSent returns the number of data packets emitted.
func (s *Source) PacketsSent() int64 { return s.pktsSent }

// BytesSent returns the number of data bytes emitted.
func (s *Source) BytesSent() int64 { return s.bytesSent }

// Flow returns the session's flow ID.
func (s *Source) Flow() int { return s.cfg.Flow }
