package session

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/units"
	"repro/internal/wire"
)

// captureWriter records every datagram written, decoded.
type captureWriter struct {
	headers []wire.Header
}

func (w *captureWriter) WriteTo(b []byte, _ net.Addr) (int, error) {
	h, _, err := wire.DecodeDatagram(b)
	if err != nil {
		panic(err)
	}
	w.headers = append(w.headers, h)
	return len(b), nil
}

// drive pumps the session on a virtual clock until done, jumping straight
// to each returned deadline. maxSteps bounds runaway loops.
func drive(t *testing.T, s *Session, now time.Time, maxSteps int) time.Time {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		next, done := s.pump(now)
		if done {
			return now
		}
		if !next.After(now) {
			t.Fatalf("pump returned non-advancing deadline %v at %v", next, now)
		}
		now = next
	}
	t.Fatalf("session did not finish within %d pumps", maxSteps)
	return now
}

func newTestSession(t *testing.T, cfg Config, out wire.PacketWriter, now time.Time) *Session {
	t.Helper()
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	key := Key{Addr: "127.0.0.1:7777", Flow: 3}
	s, err := NewSession(key, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7777}, out, cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionStreamsMaxFramesAndCloses(t *testing.T) {
	t0 := time.Unix(1000, 0)
	out := &captureWriter{}
	s := newTestSession(t, Config{MaxFrames: 5}, out, t0)
	end := drive(t, s, t0, 100000)

	st := s.Stats()
	if st.Frames != 5 {
		t.Fatalf("streamed %d frames, want 5", st.Frames)
	}
	if s.State() != StateClosed {
		t.Fatalf("state %v after MaxFrames, want closed", s.State())
	}
	if st.Datagrams == 0 || uint64(len(out.headers)) != st.Datagrams {
		t.Fatalf("stats datagrams %d vs written %d", st.Datagrams, len(out.headers))
	}
	// Pacing must spread the frames over wall time: 5 frames at the
	// default interval cannot complete instantaneously.
	if end.Sub(t0) <= 0 {
		t.Fatal("session completed without consuming virtual time")
	}

	// Per-color sequence spaces must each be gapless from 0.
	next := map[packet.Color]uint64{}
	for _, h := range out.headers {
		if h.Flow != 3 {
			t.Fatalf("datagram carries flow %d, want 3", h.Flow)
		}
		if h.Seq != next[h.Color] {
			t.Fatalf("color %v sequence %d, want %d", h.Color, h.Seq, next[h.Color])
		}
		next[h.Color]++
	}
}

// TestSessionFeedbackDedupAndRate: labels reach the sender core through
// both dispatch paths, and the batch path counts only fresh epochs. The
// control law itself is tested once, on the core (internal/stream).
func TestSessionFeedbackDedupAndRate(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newTestSession(t, Config{}, &captureWriter{}, t0)
	r0 := s.Rate()

	fb := packet.Feedback{RouterID: 1, Epoch: 1, Loss: 0, Valid: true}
	if !s.HandleFeedback(fb, t0) {
		t.Fatal("first label of epoch 1 not accepted")
	}
	if s.HandleFeedback(fb, t0.Add(time.Millisecond)) {
		t.Fatal("duplicate epoch accepted; dedup failed")
	}
	if s.Rate() <= r0 {
		t.Fatalf("rate %v did not grow on loss-free feedback from %v", s.Rate(), r0)
	}
	// A batch with duplicates accepts only the fresh epochs.
	batch := []packet.Feedback{
		{RouterID: 1, Epoch: 2, Loss: 0, Valid: true},
		{RouterID: 1, Epoch: 2, Loss: 0, Valid: true},
		{RouterID: 1, Epoch: 3, Loss: 0, Valid: true},
	}
	if got := s.HandleFeedbackBatch(batch, t0.Add(time.Second)); got != 2 {
		t.Fatalf("batch accepted %d labels, want 2", got)
	}
}

// TestSessionGammaResetOnRouterChange: the session surfaces the core's
// router-change handling in its Stats.
func TestSessionGammaResetOnRouterChange(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newTestSession(t, Config{}, &captureWriter{}, t0)
	s.HandleFeedback(packet.Feedback{RouterID: 1, Epoch: 1, Loss: 0.7, Valid: true}, t0)
	s.HandleFeedback(packet.Feedback{RouterID: 9, Epoch: 1, Loss: 0.7, Valid: true}, t0)
	if st := s.Stats(); st.RouterChanges != 1 || st.Gamma != fgs.DefaultGammaConfig().Initial {
		t.Fatalf("router changes %d, γ %v: want 1 and the initial γ", st.RouterChanges, st.Gamma)
	}
}

// TestSessionStaleDecayAndRecovery: pump runs the core's watchdog, and
// feedback recovers it.
func TestSessionStaleDecayAndRecovery(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cfg := Config{StaleTimeout: 100 * time.Millisecond}
	s := newTestSession(t, cfg, &captureWriter{}, t0)

	// Silence past the horizon: the next pump decays the rate.
	s.pump(t0.Add(150 * time.Millisecond))
	if st := s.Stats(); st.StaleDecays != 1 || st.Degrade >= 1 {
		t.Fatalf("stale decay not applied: decays=%d degrade=%v", st.StaleDecays, st.Degrade)
	}
	// Fresh feedback restores full rate.
	s.HandleFeedback(packet.Feedback{RouterID: 1, Epoch: 1, Valid: true}, t0.Add(200*time.Millisecond))
	if st := s.Stats(); st.Recoveries != 1 || st.Degrade != 1 {
		t.Fatalf("watchdog did not recover: recoveries=%d degrade=%v", st.Recoveries, st.Degrade)
	}
}

func TestSessionDrainClosesAtFrameBoundary(t *testing.T) {
	t0 := time.Unix(1000, 0)
	out := &captureWriter{}
	s := newTestSession(t, Config{}, out, t0) // MaxFrames 0: would stream forever
	// Pump a little, then drain mid-stream.
	now := t0
	for i := 0; i < 10; i++ {
		next, done := s.pump(now)
		if done {
			t.Fatal("session closed before Drain")
		}
		now = next
	}
	s.Drain()
	end := drive(t, s, now, 1000)
	if s.State() != StateClosed {
		t.Fatalf("state %v after drain, want closed", s.State())
	}
	// The frame in flight must complete: the last frame's datagram count
	// equals its plan, i.e. no frame ends mid-sequence with a dangling
	// index. Verify indices within the final frame are contiguous from 0.
	last := out.headers[len(out.headers)-1].Frame
	var idxs []uint16
	for _, h := range out.headers {
		if h.Frame == last {
			idxs = append(idxs, h.Index)
		}
	}
	for i, idx := range idxs {
		if int(idx) != i {
			t.Fatalf("final frame %d has gap at packet %d (index %d)", last, i, idx)
		}
	}
	_ = end
}

// TestSessionMinRateFloor: the session's MKC config reaches its
// controller — heavy loss drives the rate to the configured floor, not
// below.
func TestSessionMinRateFloor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	cfg := Config{}
	cfg.MKC.InitialRate = 128 * units.Kbps
	cfg.MKC.MinRate = 64 * units.Kbps
	cfg.MKC.Alpha = 10 * units.Kbps
	cfg.MKC.Beta = 0.5
	cfg.MKC.DedupEpochs = true
	s := newTestSession(t, cfg, &captureWriter{}, t0)
	for e := uint64(1); e <= 200; e++ {
		s.HandleFeedback(packet.Feedback{RouterID: 1, Epoch: e, Loss: 0.9, Valid: true}, t0)
	}
	if r := s.Rate(); r != cfg.MKC.MinRate {
		t.Fatalf("rate %v after sustained heavy loss, want the MKC floor %v", r, cfg.MKC.MinRate)
	}
}

// failWriter refuses every datagram.
type failWriter struct{}

func (failWriter) WriteTo([]byte, net.Addr) (int, error) { return 0, errors.New("refused") }

// TestSessionCountsWriteErrors: a refused write is counted on the session
// and on the server's shared counter, and the stream carries on.
func TestSessionCountsWriteErrors(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := newTestSession(t, Config{MaxFrames: 2}, failWriter{}, t0)
	var shared obs.Counter
	s.instrument(nil, nil, nil, &shared)
	drive(t, s, t0, 100000)
	st := s.Stats()
	if st.Datagrams == 0 || st.WriteErrors != st.Datagrams {
		t.Fatalf("write errors %d for %d datagrams, want every one counted", st.WriteErrors, st.Datagrams)
	}
	if got := uint64(shared.Value()); got != st.WriteErrors {
		t.Fatalf("server counter %d, session counter %d", got, st.WriteErrors)
	}
}
