package wire_test

// End-to-end tests of the live stack: a one-session session.Server
// streams through the emulator to a hello-subscribed Receiver. They live
// in the external test package because session builds on wire.

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/units"
	"repro/internal/wire"
)

// newLoopback builds a one-session server on the emulator's A side and a
// hello-subscribed receiver on its B side. The server defaults suit
// thousands of sessions; one stream is paced on a tick finer than its
// 100 B packet time and applies each label as it arrives, so the 10 ms
// control loop sees neither 1 ms send bursts nor 2 ms batching delay.
func newLoopback(t *testing.T, emu *wire.Emulator, cfg session.Config) (*session.Server, *wire.Receiver) {
	t.Helper()
	srv, err := session.NewServer(session.ServerConfig{
		Conn:         emu.A(),
		Clock:        wire.SystemClock{},
		Session:      cfg,
		MaxSessions:  1,
		Workers:      1,
		WheelTick:    250 * time.Microsecond,
		BatchCount:   1,
		ExitWhenIdle: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	recv := wire.NewReceiver(emu.B(), wire.ReceiverConfig{
		Flow:  1,
		Peer:  emu.A().LocalAddr(),
		Hello: true,
	})
	return srv, recv
}

// admitted waits for the receiver's hello to be admitted and returns the
// session, which stays readable after the server drops it on completion.
func admitted(t *testing.T, srv *session.Server, emu *wire.Emulator) *session.Session {
	t.Helper()
	key := session.Key{Addr: emu.B().LocalAddr().String(), Flow: 1}
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if sess := srv.Table().Get(key); sess != nil {
			return sess
		}
	}
	t.Fatal("receiver never admitted")
	return nil
}

// TestLiveLoopbackConvergence is the end-to-end acceptance test of the
// live stack: a session streams >= 300 FGS frames through the emulated
// bottleneck (capacity 3 Mbit/s, marking gateway, priority-drop queue)
// while the Receiver echoes feedback on the reverse path. Over the
// converged second half of the stream it asserts the three PELS
// invariants the paper proves:
//
//   - green loss is exactly zero (priority drops spare the base layer),
//   - red loss converges near p_thr (the γ loop, Lemma 4),
//   - goodput is within 10% of the bottleneck capacity (MKC holds the
//     link at C, eq. 10).
//
// The only random process (emulated loss) is seeded and set to zero —
// congestion is injected by the bandwidth bottleneck itself — so the
// assertions are deterministic across runs; wall-clock jitter moves
// individual packet timings but not the converged averages, which is the
// point of the absolute-deadline link and the self-correcting pacer.
func TestLiveLoopbackConvergence(t *testing.T) {
	const (
		capacity  = 3 * units.Mbps
		interval  = 10 * time.Millisecond
		maxFrames = 320
		pThr      = 0.75
	)
	gw := wire.NewGateway(wire.GatewayConfig{
		RouterID: 1,
		Interval: interval,
		Capacity: capacity,
	})
	emu := wire.NewEmulator(wire.EmulatorConfig{
		AtoB: wire.LinkConfig{
			Bandwidth:  capacity,
			Delay:      2 * time.Millisecond,
			QueueBytes: 3000,
			Seed:       1,
			Marker:     gw,
		},
		BtoA: wire.LinkConfig{Delay: 2 * time.Millisecond},
	})
	defer emu.Close()

	// Small wire packets (100 B) keep the γ quantization fine: at the
	// stationary point r* = C + α/β = 3.3 Mbit/s a frame carries ~41
	// packets, of which γ*·41 ≈ 5 are red — enough granularity for red
	// loss to settle at p*/γ* = p_thr.
	srv, recv := newLoopback(t, emu, session.Config{
		Frame: fgs.FrameSpec{
			PacketSize:   100,
			TotalPackets: 80, // R_max = 6.4 Mbit/s, headroom above r*
			GreenPackets: 8,  // base layer 640 kbit/s << C
		},
		FrameInterval: interval,
		MKC: cc.MKCConfig{
			Alpha:       150 * units.Kbps,
			Beta:        0.5,
			InitialRate: 500 * units.Kbps,
			MinRate:     64 * units.Kbps,
			DedupEpochs: true,
		},
		Gamma:      fgs.DefaultGammaConfig(),
		BurstBytes: 1600,
		MaxFrames:  maxFrames,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = recv.Run(ctx) }()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Run(ctx) }()
	sess := admitted(t, srv, emu)

	// Snapshot once the first half has streamed, so the assertions below
	// cover only the converged regime.
	midCh := make(chan wire.ReceiverStats, 1)
	go func() {
		for {
			st := recv.Stats()
			if st.Frames >= maxFrames/2 {
				midCh <- st
				return
			}
			select {
			case <-ctx.Done():
				midCh <- st
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()

	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	time.Sleep(150 * time.Millisecond) // drain the queue and the delay line
	mid := <-midCh
	end := recv.Stats()
	cancel()
	wg.Wait()

	if end.Frames < 300 {
		t.Fatalf("receiver saw %d frames, want >= 300", end.Frames)
	}
	if mid.Frames >= end.Frames {
		t.Fatalf("mid snapshot (%d frames) not before end (%d)", mid.Frames, end.Frames)
	}

	// Invariant 1: the base layer survives congestion untouched.
	if green := end.Colors[packet.Green]; green.Lost != 0 || green.Received == 0 {
		t.Errorf("green: %+v, want zero loss and nonzero traffic", green)
	}

	// Invariant 2: red loss over the converged half sits near p_thr.
	redLoss := windowLoss(mid.Colors[packet.Red], end.Colors[packet.Red])
	if math.Abs(redLoss-pThr) > 0.25 {
		t.Errorf("converged red loss %.3f, want near p_thr = %.2f", redLoss, pThr)
	}
	// And red did lose packets — the probes probed.
	if end.Colors[packet.Red].Lost == 0 {
		t.Error("no red loss at all: the bottleneck never engaged")
	}

	// Invariant 3: goodput over the converged half is within 10% of the
	// bottleneck capacity.
	elapsed := end.LastAt.Sub(mid.LastAt)
	goodput := units.RateFromBytes(int64(end.Bytes-mid.Bytes), elapsed)
	if goodput < 0.9*capacity || goodput > 1.1*capacity {
		t.Errorf("converged goodput %v over %v, want within 10%% of %v",
			goodput, elapsed.Round(time.Millisecond), units.BitRate(capacity))
	}

	// The feedback loop actually ran: epochs advanced and the sender
	// accepted them.
	ss := sess.Stats()
	if ss.FeedbackAccepted < 50 {
		t.Errorf("sender accepted only %d feedback labels", ss.FeedbackAccepted)
	}
	if end.Epochs < 50 {
		t.Errorf("receiver observed only %d epochs", end.Epochs)
	}
	// γ converged below its 0.5 start toward γ* = p*/p_thr ≈ 0.12.
	if ss.Gamma > 0.4 || ss.Gamma < 0.02 {
		t.Errorf("gamma %.3f did not converge toward γ* ≈ 0.12", ss.Gamma)
	}
}

// windowLoss returns the loss rate of the traffic between two cumulative
// snapshots.
func windowLoss(from, to wire.ColorCount) float64 {
	lost := to.Lost - from.Lost
	recv := to.Received - from.Received
	if lost+recv == 0 {
		return 0
	}
	return float64(lost) / float64(lost+recv)
}

// TestLiveSenderStopsOnContext: cancellation stops a streaming server
// promptly even while its session is mid-pacing-wait.
func TestLiveSenderStopsOnContext(t *testing.T) {
	emu := wire.NewEmulator(wire.EmulatorConfig{})
	defer emu.Close()
	srv, recv := newLoopback(t, emu, session.Config{
		Frame: fgs.FrameSpec{PacketSize: 100, TotalPackets: 80, GreenPackets: 8},
		MKC: cc.MKCConfig{
			Alpha: 20 * units.Kbps, Beta: 0.5,
			// Glacial rate: the pacer wait per packet is ~12 ms, so the
			// session is almost certainly inside a wait when canceled.
			InitialRate: 64 * units.Kbps, MinRate: 64 * units.Kbps,
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = recv.Run(ctx) }()
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	sess := admitted(t, srv, emu)
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v on cancellation, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not stop on cancellation")
	}
	if sess.Stats().Datagrams == 0 {
		t.Fatal("session sent nothing before cancellation")
	}
}
