package session

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/stream"
	"repro/internal/units"
	"repro/internal/wire"
)

// Config parameterizes one session's control loops; the server owns the
// transport and clock, shared across sessions.
type Config struct {
	// Frame is the FGS packetization; PacketSize is the on-wire datagram
	// size and must exceed the wire header size.
	Frame fgs.FrameSpec
	// FrameInterval is the video frame period.
	FrameInterval time.Duration
	// MKC parameterizes the per-session rate controller. Zero value
	// selects cc.DefaultMKCConfig.
	MKC cc.MKCConfig
	// Gamma parameterizes the red-fraction controller. Zero value selects
	// fgs.DefaultGammaConfig.
	Gamma fgs.GammaConfig
	// RedShare selects the γ denominator; 0 means fgs.RedShareTotal.
	RedShare fgs.RedShare
	// Layers selects the number of priority layers per frame: 0 and 3
	// keep the classic green/yellow/red plan, other counts plan with the
	// default γ ladder. The wire carries three bands, so the base layer
	// travels green, the top layer red, and every layer between yellow.
	Layers int
	// BurstBytes is the token-bucket size; 0 means 8 datagrams.
	BurstBytes int
	// MaxFrames stops the session after that many frames; 0 streams
	// until drained or reaped.
	MaxFrames int
	// StaleTimeout arms the per-session stale-feedback watchdog: each
	// horizon without fresh feedback halves the effective rate, never
	// below the MKC minimum rate, and the first fresh label restores it.
	// 0 disables it.
	StaleTimeout time.Duration
}

// WithDefaults fills zero-valued fields.
func (c Config) WithDefaults() Config {
	if c.Frame == (fgs.FrameSpec{}) {
		c.Frame = fgs.DefaultFrameSpec()
	}
	if c.FrameInterval <= 0 {
		c.FrameInterval = 20 * time.Millisecond
	}
	if c.MKC == (cc.MKCConfig{}) {
		c.MKC = cc.DefaultMKCConfig()
	}
	if c.Gamma == (fgs.GammaConfig{}) {
		c.Gamma = fgs.DefaultGammaConfig()
	}
	if c.RedShare == 0 {
		c.RedShare = fgs.RedShareTotal
	}
	if c.BurstBytes <= 0 {
		c.BurstBytes = 8 * c.Frame.PacketSize
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.stream().Validate(); err != nil {
		return err
	}
	if c.Frame.PacketSize <= wire.HeaderSize {
		return fmt.Errorf("session: packet size %d must exceed header size %d",
			c.Frame.PacketSize, wire.HeaderSize)
	}
	if c.Frame.PacketSize > wire.MaxDatagram {
		return fmt.Errorf("session: packet size %d exceeds max datagram %d",
			c.Frame.PacketSize, wire.MaxDatagram)
	}
	return nil
}

// stream returns the sender-core half of the configuration.
func (c Config) stream() stream.Config {
	return stream.Config{
		Frame:         c.Frame,
		FrameInterval: c.FrameInterval,
		Gamma:         c.Gamma,
		RedShare:      c.RedShare,
		Layers:        c.Layers,
		StaleTimeout:  c.StaleTimeout,
		MinRate:       c.MKC.MinRate,
	}
}

// State is a session's lifecycle position.
type State int32

const (
	// StateStreaming: admitted by a hello, frames flowing.
	StateStreaming State = iota + 1
	// StateDraining: shutdown requested; the session finishes the frame
	// in flight and then closes instead of being cut mid-frame.
	StateDraining
	// StateClosed: done (completed, drained, or reaped). Terminal.
	StateClosed
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case StateStreaming:
		return "streaming"
	case StateDraining:
		return "draining"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Stats is a snapshot of one session's counters and control state.
type Stats struct {
	stream.Stats
	Key       Key
	State     State
	Frames    int
	Datagrams uint64
	Bytes     uint64
	// Shed counts planned datagrams dropped at the source by the
	// server-wide overload controller instead of being sent.
	Shed uint64
	// WriteErrors counts datagrams the output writer refused.
	WriteErrors uint64
	// CloseReason records why a closed session ended (none while live).
	CloseReason wire.Reason
}

// Session is one receiver's PELS stream: the live driver of the shared
// sender core (internal/stream), which owns the MKC and γ controllers,
// the frame plans, and the per-band sequence spaces. The session adds the
// token bucket, the wire encoding, and the lifecycle, sharing the
// server's socket and bottleneck with every other session.
//
// A Session is a pump state machine: the wheel fires it, pump sends
// whatever the token bucket allows at that instant, and returns the next
// deadline to arm. One session is pumped by at most one worker at a time
// (it has exactly one wheel timer), but feedback dispatch and stats run
// concurrently, so all state is guarded by mu.
type Session struct {
	key  Key
	peer net.Addr
	cfg  Config
	out  wire.PacketWriter

	timer *Timer // armed by the server; owned by wheel/worker handoff

	mu      sync.Mutex
	state   State
	core    *stream.Core
	pacer   *wire.Pacer
	stats   Stats
	buf     []byte // encoded datagram scratch; reused across pumps
	payload []byte

	frame     int  //pelsvet:guards mu — next frame number to plan
	planTotal int  //pelsvet:guards mu — packets in the current frame plan
	planIdx   int  //pelsvet:guards mu
	reserved  bool //pelsvet:guards mu — buf holds an encoded, pacer-charged datagram

	// Shared aggregate counters (one set per server, not per session);
	// nil when the server runs without a registry.
	aggDatagrams   *obs.Counter
	aggBytes       *obs.Counter
	aggShed        *obs.Counter
	aggWriteErrors *obs.Counter

	// shedLevel points at the server-wide overload level (write-once
	// before the session is pumped, read atomically per pump); nil means
	// no overload controller.
	shedLevel *atomic.Int32

	lastActivity time.Time   //pelsvet:guards mu
	lastSendAt   time.Time   //pelsvet:guards mu — stuck watchdog: last datagram on the wire
	closeReason  wire.Reason //pelsvet:guards mu — why the session closed
	frameGateAt  time.Time   //pelsvet:guards mu — earliest next frame start, enforced while shedding
}

// NewSession builds a session streaming to peer through out, with its
// clocks anchored at now. cfg must already be defaulted and validated
// (the server does both once per template, not per hello).
func NewSession(key Key, peer net.Addr, out wire.PacketWriter, cfg Config, now time.Time) (*Session, error) {
	core, err := stream.New(cfg.stream(), cc.NewMKC(cfg.MKC), now)
	if err != nil {
		return nil, err
	}
	s := &Session{
		key:          key,
		peer:         peer,
		cfg:          cfg,
		out:          out,
		state:        StateStreaming,
		core:         core,
		pacer:        wire.NewPacer(cfg.MKC.InitialRate, cfg.BurstBytes),
		buf:          make([]byte, 0, cfg.Frame.PacketSize),
		payload:      make([]byte, cfg.Frame.PacketSize-wire.HeaderSize),
		lastActivity: now,
		lastSendAt:   now,
	}
	s.stats.Key = key
	return s, nil
}

// Key returns the session's table key.
func (s *Session) Key() Key { return s.key }

// instrument attaches the server's shared aggregate counters, bumped on
// every datagram sent, shed, or refused by the writer. Must be called
// before the session is pumped.
func (s *Session) instrument(datagrams, bytes, shed, writeErrors *obs.Counter) {
	s.aggDatagrams = datagrams
	s.aggBytes = bytes
	s.aggShed = shed
	s.aggWriteErrors = writeErrors
}

// setShedLevel attaches the server's overload level. Must be called
// before the session is pumped.
func (s *Session) setShedLevel(lvl *atomic.Int32) { s.shedLevel = lvl }

// Peer returns the receiver's address.
func (s *Session) Peer() net.Addr { return s.peer }

// pump advances the session at instant now: it finishes any
// pacer-charged datagram from the previous wake, plans frames as their
// budgets open, and sends until the token bucket pushes back. It returns
// the next deadline to arm and done=true when the session reached its
// terminal state (worker removes it from the table).
func (s *Session) pump(now time.Time) (next time.Time, done bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateClosed {
		return time.Time{}, true
	}
	if s.core.Tick(now) {
		s.pacer.SetRate(s.core.EffectiveRate(), now)
	}
	shed := s.shedLevelNow()
	for {
		if s.reserved {
			// The previous wake charged the bucket for this datagram;
			// its wait has now elapsed — put it on the wire.
			s.sendLocked(now)
			continue
		}
		if s.planIdx >= s.planTotal {
			// Frame boundary.
			if s.cfg.MaxFrames > 0 && s.frame >= s.cfg.MaxFrames {
				s.state = StateClosed
				s.closeReason = wire.ReasonComplete
				return time.Time{}, true
			}
			if s.state == StateDraining {
				s.state = StateClosed
				return time.Time{}, true
			}
			if shed > 0 && !s.frameGateAt.IsZero() && now.Before(s.frameGateAt) {
				// While shedding, frames no longer fill the token bucket,
				// so bucket self-clocking alone would run the frame
				// counter fast; hold the boundary to the frame cadence.
				return s.frameGateAt, false
			}
			s.planTotal = s.core.PlanFrame(s.frame)
			s.planIdx = 0
			s.frame++
			s.stats.Frames = s.frame
			s.frameGateAt = now.Add(s.cfg.FrameInterval)
			if s.planTotal == 0 {
				// Degenerate budget: idle one frame interval instead of
				// spinning.
				return now.Add(s.cfg.FrameInterval), false
			}
		}
		if shed > 0 && s.core.Layer(s.planIdx) >= max(s.core.Layers()-shed, 1) {
			// Overload: level n drops the top n layers (the base layer
			// always survives) at the source — uncharged against the
			// bucket, invisible to the receiver's per-band loss (its
			// sequence number is never consumed).
			s.planIdx++
			s.stats.Shed++
			if s.aggShed != nil {
				s.aggShed.Inc()
			}
			continue
		}
		band := s.core.Band(s.planIdx)
		h := wire.Header{
			Type:      wire.TypeData,
			Color:     band,
			Flow:      s.key.Flow,
			Frame:     uint32(s.frame - 1),
			Index:     uint16(s.planIdx),
			Seq:       s.core.NextSeq(band),
			Timestamp: now.UnixNano(),
		}
		var err error
		s.buf, err = wire.AppendDatagram(s.buf[:0], h, s.payload)
		if err != nil {
			// Unreachable with a validated config; close rather than spin.
			s.state = StateClosed
			s.closeReason = wire.ReasonBadConfig
			return time.Time{}, true
		}
		if wait := s.pacer.Reserve(len(s.buf), now); wait > 0 {
			s.reserved = true
			return now.Add(wait), false
		}
		s.sendLocked(now)
	}
}

// shedLevelNow reads the server-wide overload level (0 when the server
// runs without an overload controller).
func (s *Session) shedLevelNow() int {
	if s.shedLevel == nil {
		return 0
	}
	if lvl := s.shedLevel.Load(); lvl > 0 {
		return int(lvl)
	}
	return 0
}

// sendLocked writes the encoded datagram in buf and advances the plan. A
// refused write is counted, not retried: the shaping link models loss,
// and a vanished receiver is collected by the idle reaper.
func (s *Session) sendLocked(now time.Time) {
	if _, err := s.out.WriteTo(s.buf, s.peer); err != nil {
		s.stats.WriteErrors++
		if s.aggWriteErrors != nil {
			s.aggWriteErrors.Inc()
		}
	}
	s.reserved = false
	s.planIdx++
	s.lastSendAt = now
	s.stats.Datagrams++
	s.stats.Bytes += uint64(len(s.buf))
	if s.aggDatagrams != nil {
		s.aggDatagrams.Inc()
		s.aggBytes.Add(int64(len(s.buf)))
	}
}

// HandleFeedback offers one feedback label to the session's core at
// instant now and retargets the pacer when it was fresh. It reports
// whether the label was fresh.
func (s *Session) HandleFeedback(fb packet.Feedback, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.handleFeedbackLocked(fb, now)
}

// HandleFeedbackBatch applies a batch of labels under one lock
// acquisition — the dispatch path for Batcher flushes — returning how
// many were fresh. Any feedback, fresh or duplicate, counts as receiver
// activity for the idle reaper.
func (s *Session) HandleFeedbackBatch(fbs []packet.Feedback, now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	accepted := 0
	for _, fb := range fbs {
		if s.handleFeedbackLocked(fb, now) {
			accepted++
		}
	}
	return accepted
}

func (s *Session) handleFeedbackLocked(fb packet.Feedback, now time.Time) bool {
	if !fb.Valid || s.state == StateClosed {
		return false
	}
	s.lastActivity = now
	if !s.core.OnFeedback(fb, now) {
		return false
	}
	s.pacer.SetRate(s.core.EffectiveRate(), now)
	return true
}

// Touch records receiver activity (a duplicate hello) for the reaper.
func (s *Session) Touch(now time.Time) {
	s.mu.Lock()
	s.lastActivity = now
	s.mu.Unlock()
}

// Drain asks the session to finish the frame in flight and then close.
func (s *Session) Drain() {
	s.mu.Lock()
	if s.state == StateStreaming {
		s.state = StateDraining
		s.closeReason = wire.ReasonDraining
	}
	s.mu.Unlock()
}

// expireIdle closes the session if its receiver has been silent for at
// least idle, reporting whether it did. Already-closed sessions report
// false (their removal is the worker's job).
func (s *Session) expireIdle(now time.Time, idle time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateClosed || now.Sub(s.lastActivity) < idle {
		return false
	}
	s.state = StateClosed
	s.closeReason = wire.ReasonIdle
	return true
}

// expireStuck closes a session the stuck watchdog caught: neither an
// accepted feedback label nor a datagram on the wire for the whole
// window. Such a session holds a table slot while making no progress —
// distinct from idle (expireIdle fires on receiver silence even while
// the pump still sends). Reports whether it closed the session here.
func (s *Session) expireStuck(now time.Time, window time.Duration) bool {
	if window <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateClosed {
		return false
	}
	if now.Sub(s.core.FeedbackAt()) < window || now.Sub(s.lastSendAt) < window {
		return false
	}
	s.state = StateClosed
	s.closeReason = wire.ReasonStuck
	return true
}

// CloseReason reports why the session closed (ReasonNone while live).
func (s *Session) CloseReason() wire.Reason {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeReason
}

// State returns the lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Rate returns the controller's current rate.
func (s *Session) Rate() units.BitRate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Rate()
}

// Gamma returns the γ controller's current red fraction.
func (s *Session) Gamma() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Gamma()
}

// Stats returns a snapshot of the session's counters and control state.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Stats = s.core.Stats()
	st.State = s.state
	st.CloseReason = s.closeReason
	return st
}
