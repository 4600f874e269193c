package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/wire"
)

// ServerConfig parameterizes the multi-session server.
type ServerConfig struct {
	// Conn is the server socket: hellos and feedback are read from it.
	// Required.
	Conn net.PacketConn
	// Out is where sessions write data datagrams — normally the
	// wire.ShapedConn wrapping Conn, so every session shares one
	// software bottleneck. Nil means Conn itself (no shaping).
	Out wire.PacketWriter
	// Clock supplies every instant and every blocking wait. Required
	// (wire.SystemClock in production).
	Clock Clock
	// Session is the per-session template; it is defaulted and validated
	// once at server construction.
	Session Config
	// Tune, if non-nil, adjusts the template per admitted session (e.g.
	// per-flow MKC weights). The tuned config is re-validated; a config
	// Tune breaks rejects the hello instead of panicking the server.
	Tune func(key Key, cfg *Config)
	// Shards is the session-table shard count; 0 selects 8.
	Shards int
	// MaxSessions bounds concurrent sessions; hellos beyond it are
	// rejected. 0 selects 8192.
	MaxSessions int
	// IdleTimeout reaps sessions whose receiver has been silent (no
	// feedback, no hello) for this long; 0 selects 10s, negative
	// disables reaping.
	IdleTimeout time.Duration
	// StuckTimeout arms the per-session stuck watchdog: a session with
	// neither accepted feedback nor a datagram sent for this long is
	// reaped with Close(stuck). 0 disables.
	StuckTimeout time.Duration
	// RejectRetryAfter is the retry-after hint carried by Reject
	// datagrams; 0 selects 500ms, negative sends no hint.
	RejectRetryAfter time.Duration
	// Overload parameterizes server-wide graceful layer shedding; the
	// zero value (Capacity 0) disables it.
	Overload OverloadConfig
	// WheelTick is the pacing wheel granularity; 0 selects 1ms. Sends
	// quantize to it: a coarser tick means burstier pacing, never a
	// lower rate (the token bucket repays elapsed time).
	WheelTick time.Duration
	// WheelSlots is the wheel size; 0 selects 512 (a .5s horizon at the
	// default tick, beyond every per-session deadline).
	WheelSlots int
	// Workers is the pump goroutine pool size; 0 selects 4. Together
	// with the wheel driver and the demux loop this is the server's
	// entire goroutine budget — independent of the session count.
	Workers int
	// BatchCount flushes the feedback batcher at this many items; 0
	// selects 64.
	BatchCount int
	// BatchWait bounds how long a partial feedback batch may wait; 0
	// selects 2ms.
	BatchWait time.Duration
	// ExitWhenIdle makes Run return once at least one session has been
	// admitted and the table drains to empty — the single-shot pelsd and
	// load-test mode. Off, the server serves until its context ends.
	ExitWhenIdle bool
	// Obs, if non-nil, registers the server's aggregate counters and
	// gauges under the "session." prefix. Per-shard registries live on
	// the table regardless (Server.Table().Registries()).
	Obs *obs.Registry
}

// withDefaults fills zero-valued fields.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.Out == nil {
		c.Out = c.Conn
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8192
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 10 * time.Second
	}
	if c.WheelTick <= 0 {
		c.WheelTick = time.Millisecond
	}
	if c.WheelSlots <= 0 {
		c.WheelSlots = 512
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.BatchCount <= 0 {
		c.BatchCount = 64
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	switch {
	case c.RejectRetryAfter == 0:
		c.RejectRetryAfter = 500 * time.Millisecond
	case c.RejectRetryAfter < 0:
		c.RejectRetryAfter = 0
	}
	c.Session = c.Session.WithDefaults()
	return c
}

// ServerStats is a snapshot of the server's aggregate counters.
type ServerStats struct {
	Active          int
	Datagrams       uint64
	Bytes           uint64
	Admitted        uint64
	Completed       uint64
	Reaped          uint64
	ReapedStuck     uint64
	Rejected        uint64
	RejectedFull    uint64
	RejectedDrain   uint64
	RejectedConfig  uint64
	AdmitRaces      uint64
	Hellos          uint64
	FeedbackItems   uint64
	FeedbackBatches uint64
	WheelTimers     int
	// Overload controller view: current shed level, last load score, and
	// how many shed/restore transitions have happened.
	ShedLevel int
	Load      float64
	Sheds     uint64
	Restores  uint64
	// WriteErrors counts datagrams — data, Reject, and Close — that the
	// socket or shaped writer refused.
	WriteErrors uint64
}

// demuxPoll bounds the demux read timeout so context cancellation and
// batch deadlines are observed promptly even on a silent socket.
const demuxPoll = 20 * time.Millisecond

// Server runs the multi-session PELS gateway: one socket, one demux
// goroutine, one wheel driver, and a fixed worker pool pump every
// admitted session. See the package comment for the lifecycle.
type Server struct {
	cfg     ServerConfig
	table   *Table
	wheel   *Wheel
	batcher *Batcher
	jobs    chan *Session
	kick    chan struct{}

	draining atomic.Bool
	started  atomic.Bool

	admitted    atomic.Uint64
	completed   atomic.Uint64
	reaped      atomic.Uint64
	reapedStuck atomic.Uint64
	rejected    atomic.Uint64
	rejFull     atomic.Uint64
	rejDraining atomic.Uint64
	rejConfig   atomic.Uint64
	admitRaces  atomic.Uint64
	hellos      atomic.Uint64
	fbItems     atomic.Uint64
	fbBatches   atomic.Uint64

	// Overload controller state: the controller itself is owned by the
	// driver goroutine; the published level and load are read everywhere.
	overload *Overload // nil when disabled
	shedLvl  atomic.Int32
	loadBits atomic.Uint64 // math.Float64bits of the last load score
	sheds    atomic.Uint64
	restores atomic.Uint64

	// Control datagram scratch: rejects and closes are encoded under
	// ctlMu (demux, driver, and workers all send them) and written
	// straight to Conn, bypassing the shaped data path — a rejection
	// must get out precisely when the bottleneck is saturated.
	ctlMu  sync.Mutex
	ctlBuf []byte

	idleOnce sync.Once
	idleCh   chan struct{}

	// Dispatch scratch, owned by the demux goroutine.
	fbScratch []packet.Feedback

	obsDatagrams   *obs.Counter
	obsBytes       *obs.Counter
	obsAdmitted    *obs.Counter
	obsCompleted   *obs.Counter
	obsReaped      *obs.Counter
	obsReapedStuck *obs.Counter
	obsRejected    *obs.Counter
	obsRejFull     *obs.Counter
	obsRejDraining *obs.Counter
	obsRejConfig   *obs.Counter
	obsAdmitRaces  *obs.Counter
	obsHellos      *obs.Counter
	obsFbItems     *obs.Counter
	obsFbBatches   *obs.Counter
	obsShed        *obs.Counter
	obsSheds       *obs.Counter
	obsRestores    *obs.Counter
	obsCtlSent     *obs.Counter
	// writeErrors is never nil: session.write_errors when the server
	// has a registry, a standalone counter otherwise.
	writeErrors *obs.Counter
}

// NewServer validates cfg and builds a server (nothing runs until Run).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Conn == nil {
		return nil, errors.New("session: ServerConfig.Conn is required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("session: ServerConfig.Clock is required (wire.SystemClock in production)")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Session.Validate(); err != nil {
		return nil, err
	}
	now := cfg.Clock.Now()
	s := &Server{
		cfg:     cfg,
		table:   NewTable(cfg.Shards),
		wheel:   NewWheel(cfg.WheelTick, cfg.WheelSlots, now),
		batcher: NewBatcher(cfg.BatchCount, cfg.BatchWait),
		// Every live session has at most one queued job (its single
		// wheel timer), so this capacity makes job enqueue non-blocking.
		jobs:        make(chan *Session, cfg.MaxSessions+cfg.Workers+1),
		kick:        make(chan struct{}, 1),
		idleCh:      make(chan struct{}),
		ctlBuf:      make([]byte, 0, wire.HeaderSize),
		writeErrors: &obs.Counter{},
	}
	if cfg.Overload.Enabled() {
		layers := cfg.Session.Layers
		if layers == 0 {
			layers = 3
		}
		s.overload = NewOverload(cfg.Overload, layers)
	}
	if cfg.Obs != nil {
		s.obsDatagrams = cfg.Obs.Counter("session.datagrams")
		s.obsBytes = cfg.Obs.Counter("session.bytes")
		s.obsAdmitted = cfg.Obs.Counter("session.admitted")
		s.obsCompleted = cfg.Obs.Counter("session.completed")
		s.obsReaped = cfg.Obs.Counter("session.reaped")
		s.obsReapedStuck = cfg.Obs.Counter("session.reaped_stuck")
		s.obsRejected = cfg.Obs.Counter("session.rejected")
		s.obsRejFull = cfg.Obs.Counter("session.rejected_full")
		s.obsRejDraining = cfg.Obs.Counter("session.rejected_draining")
		s.obsRejConfig = cfg.Obs.Counter("session.rejected_config")
		s.obsAdmitRaces = cfg.Obs.Counter("session.admit_races")
		s.obsHellos = cfg.Obs.Counter("session.hellos")
		s.obsFbItems = cfg.Obs.Counter("session.feedback_items")
		s.obsFbBatches = cfg.Obs.Counter("session.feedback_batches")
		s.obsShed = cfg.Obs.Counter("session.shed_datagrams")
		s.obsSheds = cfg.Obs.Counter("session.sheds")
		s.obsRestores = cfg.Obs.Counter("session.restores")
		s.obsCtlSent = cfg.Obs.Counter("session.control_sent")
		s.writeErrors = cfg.Obs.Counter("session.write_errors")
		cfg.Obs.GaugeFunc("session.active", func() float64 { return float64(s.table.Len()) })
		cfg.Obs.GaugeFunc("session.wheel_timers", func() float64 { return float64(s.wheel.Len()) })
		cfg.Obs.GaugeFunc("session.jobs_depth", func() float64 { return float64(len(s.jobs)) })
		cfg.Obs.GaugeFunc("session.shed_level", func() float64 { return float64(s.shedLvl.Load()) })
		cfg.Obs.GaugeFunc("session.load", func() float64 { return math.Float64frombits(s.loadBits.Load()) })
	}
	return s, nil
}

// Table exposes the session table (read-mostly: stats, shard registries).
func (s *Server) Table() *Table { return s.table }

// Wheel exposes the pacing wheel (diagnostics).
func (s *Server) Wheel() *Wheel { return s.wheel }

// Stats returns a snapshot of the aggregate counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Active:          s.table.Len(),
		Admitted:        s.admitted.Load(),
		Completed:       s.completed.Load(),
		Reaped:          s.reaped.Load(),
		ReapedStuck:     s.reapedStuck.Load(),
		Rejected:        s.rejected.Load(),
		RejectedFull:    s.rejFull.Load(),
		RejectedDrain:   s.rejDraining.Load(),
		RejectedConfig:  s.rejConfig.Load(),
		AdmitRaces:      s.admitRaces.Load(),
		Hellos:          s.hellos.Load(),
		FeedbackItems:   s.fbItems.Load(),
		FeedbackBatches: s.fbBatches.Load(),
		WheelTimers:     s.wheel.Len(),
		ShedLevel:       int(s.shedLvl.Load()),
		Load:            math.Float64frombits(s.loadBits.Load()),
		Sheds:           s.sheds.Load(),
		Restores:        s.restores.Load(),
		WriteErrors:     uint64(s.writeErrors.Value()),
	}
	if s.obsDatagrams != nil {
		st.Datagrams = uint64(s.obsDatagrams.Value())
		st.Bytes = uint64(s.obsBytes.Value())
	}
	return st
}

// SessionStats snapshots every live session, sorted by key.
func (s *Server) SessionStats() []Stats {
	var out []Stats
	s.table.Range(func(_ Key, sess *Session) bool {
		out = append(out, sess.Stats())
		return true
	})
	slices.SortFunc(out, func(a, b Stats) int {
		if a.Key.Addr != b.Key.Addr {
			if a.Key.Addr < b.Key.Addr {
				return -1
			}
			return 1
		}
		return int(a.Key.Flow) - int(b.Key.Flow)
	})
	return out
}

// Run serves until ctx is canceled, the socket fails, or — with
// ExitWhenIdle — the last session completes. It may be called once.
func (s *Server) Run(ctx context.Context) error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("session: Server.Run called twice")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(2 + s.cfg.Workers)
	go func() {
		defer wg.Done()
		if err := s.demux(ctx); err != nil {
			select {
			case errCh <- err:
			default:
			}
			cancel()
		}
	}()
	go func() {
		defer wg.Done()
		s.driver(ctx)
	}()
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			defer wg.Done()
			s.worker(ctx)
		}()
	}

	select {
	case <-ctx.Done():
	case <-s.idleCh:
	}
	cancel()
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// Shutdown drains the server gracefully: new hellos are refused, every
// live session finishes its frame in flight and closes, and Shutdown
// returns once the table is empty — or with ctx's error if the deadline
// passes first. Run keeps pumping throughout; cancel its context after
// Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.table.Range(func(_ Key, sess *Session) bool {
		sess.Drain()
		return true
	})
	for s.table.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("session: %d sessions still draining: %w", s.table.Len(), err)
		}
		_ = s.cfg.Clock.Sleep(ctx, 10*time.Millisecond)
	}
	return nil
}

// demux is the socket read loop: hellos admit sessions, feedback is
// batched and dispatched, everything else is dropped as noise.
func (s *Server) demux(ctx context.Context) error {
	buf := make([]byte, wire.MaxDatagram+1)
	for {
		if ctx.Err() != nil {
			return nil
		}
		now := s.cfg.Clock.Now()
		if batch := s.batcher.Due(now); batch != nil {
			s.dispatch(batch, now)
		}
		deadline := now.Add(demuxPoll)
		if dl, ok := s.batcher.Deadline(); ok && dl.Before(deadline) {
			deadline = dl
		}
		_ = s.cfg.Conn.SetReadDeadline(deadline)
		n, from, err := s.cfg.Conn.ReadFrom(buf)
		now = s.cfg.Clock.Now()
		switch {
		case err == nil:
			s.handleDatagram(buf[:n], from, now)
		case errors.Is(err, os.ErrDeadlineExceeded):
		case errors.Is(err, net.ErrClosed):
			// Expected only during shutdown; under a live context the
			// closed socket is a failure the caller must see.
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("session: demux: %w", err)
		default:
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("session: demux: %w", err)
		}
	}
}

// handleDatagram classifies one datagram from the socket.
func (s *Server) handleDatagram(b []byte, from net.Addr, now time.Time) {
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		return // corrupted or foreign noise
	}
	switch h.Type {
	case wire.TypeHello:
		s.hellos.Add(1)
		if s.obsHellos != nil {
			s.obsHellos.Inc()
		}
		s.admit(from, h.Flow, now)
	case wire.TypeFeedback:
		if !h.Feedback.Valid {
			return
		}
		key := Key{Addr: from.String(), Flow: h.Flow}
		if batch := s.batcher.Add(FeedbackItem{Key: key, FB: h.Feedback}, now); batch != nil {
			s.dispatch(batch, now)
		}
	}
}

// admit creates (or refreshes) the session for a hello. Refusals are
// spoken, not silent: each one sends a Reject datagram with the reason
// and a retry-after hint so the receiver can back off and re-hello
// instead of staring at a black hole.
func (s *Server) admit(from net.Addr, flow uint32, now time.Time) {
	key := Key{Addr: from.String(), Flow: flow}
	if sess := s.table.Get(key); sess != nil {
		sess.Touch(now) // duplicate hello: receiver is alive
		return
	}
	if s.draining.Load() {
		s.reject(key, from, wire.ReasonDraining, now)
		return
	}
	if s.table.Len() >= s.cfg.MaxSessions {
		s.reject(key, from, wire.ReasonServerFull, now)
		return
	}
	cfg := s.cfg.Session
	if s.cfg.Tune != nil {
		s.cfg.Tune(key, &cfg)
		cfg = cfg.WithDefaults()
		if err := cfg.Validate(); err != nil {
			s.reject(key, from, wire.ReasonBadConfig, now)
			return
		}
	}
	sess, err := NewSession(key, from, s.cfg.Out, cfg, now)
	if err != nil {
		s.reject(key, from, wire.ReasonBadConfig, now)
		return
	}
	sess.instrument(s.obsDatagrams, s.obsBytes, s.obsShed, s.writeErrors)
	sess.setShedLevel(&s.shedLvl)
	if !s.table.Put(key, sess) {
		// A concurrent hello for the same key won the race and its
		// session is live — this duplicate counts as a race, not a
		// rejection, and no Reject goes on the wire.
		s.admitRaces.Add(1)
		if s.obsAdmitRaces != nil {
			s.obsAdmitRaces.Inc()
		}
		return
	}
	s.admitted.Add(1)
	if s.obsAdmitted != nil {
		s.obsAdmitted.Inc()
	}
	if s.draining.Load() {
		// Shutdown may have set the flag between the drain check above and
		// the Put: its drain sweep either saw this session (Put ordered
		// before the sweep's lock) or will be covered by this re-check —
		// either way no admitted session escapes the drain.
		sess.Drain()
	}
	// Arm the session's single wheel timer; the closure is allocated
	// once per session and reused by every Reschedule.
	sess.timer = s.wheel.Schedule(now, func(time.Time) { s.jobs <- sess })
	s.kickDriver()
}

// reject counts one refused hello — aggregate, per-reason, and on the
// shard the key targeted — and answers it with a Reject datagram.
func (s *Server) reject(key Key, to net.Addr, reason wire.Reason, now time.Time) {
	s.rejected.Add(1)
	if s.obsRejected != nil {
		s.obsRejected.Inc()
	}
	var ctr *atomic.Uint64
	var obsCtr *obs.Counter
	switch reason {
	case wire.ReasonServerFull:
		ctr, obsCtr = &s.rejFull, s.obsRejFull
	case wire.ReasonDraining:
		ctr, obsCtr = &s.rejDraining, s.obsRejDraining
	default:
		ctr, obsCtr = &s.rejConfig, s.obsRejConfig
	}
	ctr.Add(1)
	if obsCtr != nil {
		obsCtr.Inc()
	}
	s.table.RecordReject(key, reason)
	retry := s.cfg.RejectRetryAfter
	if reason == wire.ReasonBadConfig {
		retry = 0 // retrying an invalid config cannot succeed
	}
	s.sendControl(wire.TypeReject, key.Flow, reason, retry, to, now)
}

// sendControl encodes and writes one Reject or Close datagram straight
// to the server socket (not the shaped data path). The scratch buffer is
// shared by every caller, so a mutex serializes encode+write; control
// traffic is rare enough that contention here is irrelevant.
func (s *Server) sendControl(t wire.Type, flow uint32, reason wire.Reason, retry time.Duration, to net.Addr, now time.Time) {
	h := wire.ControlHeader(t, flow, reason, retry, now.UnixNano())
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	b, err := wire.AppendDatagram(s.ctlBuf[:0], h, nil)
	if err != nil {
		return // unreachable: ControlHeader is valid by construction
	}
	s.ctlBuf = b
	if _, err := s.cfg.Conn.WriteTo(b, to); err != nil {
		s.writeErrors.Inc()
		return
	}
	if s.obsCtlSent != nil {
		s.obsCtlSent.Inc()
	}
}

// dispatch applies one flushed feedback batch: items are stably sorted by
// key so each session takes its lock once per batch, and the scratch
// slice is reused across batches.
func (s *Server) dispatch(batch []FeedbackItem, now time.Time) {
	s.fbBatches.Add(1)
	s.fbItems.Add(uint64(len(batch)))
	if s.obsFbBatches != nil {
		s.obsFbBatches.Inc()
		s.obsFbItems.Add(int64(len(batch)))
	}
	slices.SortStableFunc(batch, func(a, b FeedbackItem) int {
		if a.Key.Addr != b.Key.Addr {
			if a.Key.Addr < b.Key.Addr {
				return -1
			}
			return 1
		}
		return int(a.Key.Flow) - int(b.Key.Flow)
	})
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && batch[j].Key == batch[i].Key {
			j++
		}
		if sess := s.table.Get(batch[i].Key); sess != nil {
			s.fbScratch = s.fbScratch[:0]
			for _, it := range batch[i:j] {
				s.fbScratch = append(s.fbScratch, it.FB)
			}
			sess.HandleFeedbackBatch(s.fbScratch, now)
		}
		i = j
	}
}

// worker pumps sessions handed over by the driver.
func (s *Server) worker(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case sess := <-s.jobs:
			next, done := sess.pump(s.cfg.Clock.Now())
			if done {
				s.finish(sess)
				continue
			}
			s.wheel.Reschedule(sess.timer, next)
			s.kickDriver()
		}
	}
}

// finish removes a completed session from the table and tells the
// receiver why it ended (completed its frames, drained, or died on an
// internal error) so it can finish or reconnect instead of timing out.
func (s *Server) finish(sess *Session) {
	if s.table.Delete(sess.Key(), false) {
		s.completed.Add(1)
		if s.obsCompleted != nil {
			s.obsCompleted.Inc()
		}
		reason := sess.CloseReason()
		if reason == wire.ReasonNone {
			reason = wire.ReasonComplete
		}
		s.sendControl(wire.TypeClose, sess.Key().Flow, reason, 0, sess.Peer(), s.cfg.Clock.Now())
	}
	s.checkIdleExit()
}

// driver advances the wheel on the configured tick and hands fired
// sessions to the worker pool; with an empty wheel it parks until a
// schedule kicks it. It also runs the idle reaper, the stuck watchdog,
// and the overload controller on coarse cadences.
func (s *Server) driver(ctx context.Context) {
	var fired []*Timer
	reapEvery := s.cfg.IdleTimeout / 2
	stuckEvery := s.cfg.StuckTimeout / 2
	now := s.cfg.Clock.Now()
	lastReap, lastStuck, lastOver := now, now, now
	var lateEWMA float64 // smoothed driver lag behind the tick, seconds
	for ctx.Err() == nil {
		loopStart := s.cfg.Clock.Now()
		now = loopStart
		if s.cfg.IdleTimeout > 0 && now.Sub(lastReap) >= reapEvery {
			lastReap = now
			reapNow := now
			if n := s.table.Reap(now, s.cfg.IdleTimeout, func(k Key, sess *Session) {
				s.sendControl(wire.TypeClose, k.Flow, wire.ReasonIdle, 0, sess.Peer(), reapNow)
			}); n > 0 {
				s.reaped.Add(uint64(n))
				if s.obsReaped != nil {
					s.obsReaped.Add(int64(n))
				}
				s.checkIdleExit()
			}
		}
		if s.cfg.StuckTimeout > 0 && now.Sub(lastStuck) >= stuckEvery {
			lastStuck = now
			s.reapStuck(now)
		}
		if s.overload != nil && now.Sub(lastOver) >= s.overload.cfg.Every {
			lastOver = now
			s.evalOverload(now, lateEWMA)
		}
		fired = s.wheel.Advance(now, fired[:0])
		for i, t := range fired {
			t.Call(now)
			fired[i] = nil
		}
		if s.wheel.Len() == 0 {
			if s.overload != nil && s.shedLvl.Load() > 0 {
				// An empty wheel must not park the driver mid-shed: the
				// overload controller has to keep observing the (now
				// receding) load so the shed unwinds. Tick until level 0,
				// then block as usual.
				_ = s.cfg.Clock.Sleep(ctx, s.cfg.WheelTick)
				continue
			}
			select {
			case <-ctx.Done():
				return
			case <-s.kick:
			}
			continue
		}
		_ = s.cfg.Clock.Sleep(ctx, s.cfg.WheelTick)
		// One loop should cost about a tick; the smoothed excess is the
		// wheel-lateness overload signal.
		late := (s.cfg.Clock.Now().Sub(loopStart) - s.cfg.WheelTick).Seconds()
		if late < 0 {
			late = 0
		}
		lateEWMA += 0.2 * (late - lateEWMA)
	}
}

// reapStuck sweeps the stuck watchdog: sessions with neither accepted
// feedback nor a sent datagram for StuckTimeout are closed, removed, and
// told why.
func (s *Server) reapStuck(now time.Time) {
	n := 0
	s.table.Range(func(k Key, sess *Session) bool {
		if sess.expireStuck(now, s.cfg.StuckTimeout) {
			if s.table.Delete(k, true) {
				n++
				s.sendControl(wire.TypeClose, k.Flow, wire.ReasonStuck, 0, sess.Peer(), now)
			}
		}
		return true
	})
	if n > 0 {
		s.reapedStuck.Add(uint64(n))
		if s.obsReapedStuck != nil {
			s.obsReapedStuck.Add(int64(n))
		}
		s.checkIdleExit()
	}
}

// evalOverload feeds the controller one observation and publishes any
// level change to the sessions (and counters).
func (s *Server) evalOverload(now time.Time, lateEWMA float64) {
	tick := s.cfg.WheelTick.Seconds()
	var demand float64
	s.table.Range(func(_ Key, sess *Session) bool {
		demand += sess.Rate().Bps()
		return true
	})
	sig := loadSignals{
		Occupancy: float64(s.table.Len()) / float64(s.cfg.MaxSessions),
		Backlog:   float64(len(s.jobs)) / float64(cap(s.jobs)),
		Lateness:  lateEWMA / (lateHorizon * tick),
		Demand:    demand / s.overload.cfg.Capacity.Bps(),
	}
	s.loadBits.Store(math.Float64bits(sig.Score()))
	prev := int(s.shedLvl.Load())
	lvl, changed := s.overload.Update(now, sig)
	if !changed {
		return
	}
	s.shedLvl.Store(int32(lvl))
	if lvl > prev {
		s.sheds.Add(1)
		if s.obsSheds != nil {
			s.obsSheds.Inc()
		}
	} else {
		s.restores.Add(1)
		if s.obsRestores != nil {
			s.obsRestores.Inc()
		}
	}
}

func (s *Server) kickDriver() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// checkIdleExit fires the ExitWhenIdle signal when the last session is
// gone.
func (s *Server) checkIdleExit() {
	if !s.cfg.ExitWhenIdle || s.admitted.Load() == 0 || s.table.Len() != 0 {
		return
	}
	s.idleOnce.Do(func() { close(s.idleCh) })
}
