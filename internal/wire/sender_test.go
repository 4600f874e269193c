package wire_test

// Feedback handling of the live sender: a session.Session streaming over
// wire, whose control law is the shared sender core (internal/stream).
// They live in the external test package because session builds on wire.

import (
	"net"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/stream"
)

// discardWriter accepts every datagram and keeps none.
type discardWriter struct{}

func (discardWriter) WriteTo(b []byte, _ net.Addr) (int, error) { return len(b), nil }

func newLiveSender(t *testing.T, cfg session.Config, now time.Time) *session.Session {
	t.Helper()
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	peer := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 7777}
	s, err := session.NewSession(session.Key{Addr: peer.String(), Flow: 1}, peer, discardWriter{}, cfg, now)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSenderStaleWatchdogDecaysAndRecovers(t *testing.T) {
	now := time.Unix(1000, 0)
	// The live session's core, built as session.NewSession builds it; its
	// watchdog runs from the session pump, so the test ticks the core
	// directly.
	cfg := session.Config{StaleTimeout: 100 * time.Millisecond}.WithDefaults()
	s, err := stream.New(stream.Config{
		Frame:         cfg.Frame,
		FrameInterval: cfg.FrameInterval,
		Gamma:         cfg.Gamma,
		RedShare:      cfg.RedShare,
		StaleTimeout:  cfg.StaleTimeout,
		MinRate:       cfg.MKC.MinRate,
	}, cc.NewMKC(cfg.MKC), now)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh label arms the watchdog.
	if !s.OnFeedback(packet.Feedback{RouterID: 1, Epoch: 1, Loss: 0, Valid: true}, now) {
		t.Fatal("first feedback rejected")
	}
	full := s.Stats().Rate

	// Within the horizon: nothing decays.
	now = now.Add(50 * time.Millisecond)
	s.Tick(now)
	if st := s.Stats(); st.Degrade != 1 || st.StaleDecays != 0 {
		t.Fatalf("decayed inside the horizon: %+v", st)
	}

	// Past the horizon: one decay, and at most one per elapsed horizon.
	now = now.Add(100 * time.Millisecond)
	s.Tick(now)
	s.Tick(now)
	if st := s.Stats(); st.Degrade != 0.5 || st.StaleDecays != 1 {
		t.Fatalf("want a single 0.5 decay: %+v", st)
	}
	now = now.Add(100 * time.Millisecond)
	s.Tick(now)
	if st := s.Stats(); st.Degrade != 0.25 || st.StaleDecays != 2 {
		t.Fatalf("want second decay to 0.25: %+v", st)
	}

	// However long the outage, the effective rate keeps a floor: the MKC
	// minimum rate (the degraded stream falls back to the base layer, it
	// does not go silent).
	for i := 0; i < 40; i++ {
		now = now.Add(100 * time.Millisecond)
		s.Tick(now)
	}
	if eff, min := s.EffectiveRate(), cc.DefaultMKCConfig().MinRate; eff < min {
		t.Fatalf("effective rate %v fell below MKC floor %v", eff, min)
	}

	// One fresh label restores the controller rate in a single step.
	if !s.OnFeedback(packet.Feedback{RouterID: 1, Epoch: 2, Loss: 0, Valid: true}, now) {
		t.Fatal("recovery feedback rejected")
	}
	st := s.Stats()
	if st.Degrade != 1 || st.Recoveries != 1 {
		t.Fatalf("recovery did not restore degrade: %+v", st)
	}
	if st.Rate < full {
		t.Fatalf("controller rate regressed across the outage: %v < %v", st.Rate, full)
	}
}

func TestSenderRouterChangeResetsGamma(t *testing.T) {
	now := time.Unix(1000, 0)
	s := newLiveSender(t, session.Config{}, now)
	initial := s.Stats().Gamma

	// Adapt γ upward against heavy loss from router 1.
	for e := uint64(1); e <= 10; e++ {
		s.HandleFeedback(packet.Feedback{RouterID: 1, Epoch: e, Loss: 0.7, Valid: true}, now)
	}
	if s.Stats().Gamma <= initial {
		t.Fatal("precondition: gamma did not adapt upward")
	}

	// The bottleneck moves: router 2, epoch counter restarted. γ restarts
	// from Initial instead of stepping with a cross-router delta.
	if !s.HandleFeedback(packet.Feedback{RouterID: 2, Epoch: 1, Loss: 0.7, Valid: true}, now) {
		t.Fatal("post-change feedback rejected")
	}
	st := s.Stats()
	if st.Gamma != initial {
		t.Fatalf("gamma = %v after router change, want Initial %v", st.Gamma, initial)
	}
	if st.RouterChanges != 1 {
		t.Fatalf("RouterChanges = %d, want 1", st.RouterChanges)
	}

	// Subsequent labels from the new router adapt normally again.
	s.HandleFeedback(packet.Feedback{RouterID: 2, Epoch: 2, Loss: 0.7, Valid: true}, now)
	if s.Stats().Gamma <= initial {
		t.Fatal("gamma frozen after reset")
	}
}
