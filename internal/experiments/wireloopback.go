package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/units"
	"repro/internal/wire"
)

// WireLoopbackConfig parameterizes the live-stack loopback experiment:
// a one-session session.Server streaming through the in-process emulator
// (marking gateway + priority-drop bottleneck) to a wire.Receiver that
// subscribes with a hello and echoes feedback. Unlike every other
// experiment this one runs on the wall clock — it exercises the real
// codec, pacer, and sockets-shaped I/O path rather than the event-driven
// simulator.
type WireLoopbackConfig struct {
	// Capacity is the bottleneck bandwidth.
	Capacity units.BitRate
	// Delay is the one-way propagation delay of each direction.
	Delay time.Duration
	// QueueBytes bounds the bottleneck buffer.
	QueueBytes int
	// Interval is the gateway's feedback epoch (the MKC control period).
	Interval time.Duration
	// Frame is the FGS packetization of the source.
	Frame fgs.FrameSpec
	// FrameInterval is the video frame period.
	FrameInterval time.Duration
	// MKC parameterizes the rate controller.
	MKC cc.MKCConfig
	// Frames is how many frames to stream.
	Frames int
	// Seed seeds the emulated-loss process (the link here injects
	// congestion through bandwidth, so it only matters if Loss is set).
	Seed int64
}

// DefaultWireLoopbackConfig is the regime of the wire package's own
// convergence test: small packets so γ quantization is fine, and a high
// α so the equilibrium loss p* ≈ 9% makes the red probes visible.
func DefaultWireLoopbackConfig() WireLoopbackConfig {
	return WireLoopbackConfig{
		Capacity:      3 * units.Mbps,
		Delay:         2 * time.Millisecond,
		QueueBytes:    3000,
		Interval:      10 * time.Millisecond,
		Frame:         fgs.FrameSpec{PacketSize: 100, TotalPackets: 80, GreenPackets: 8},
		FrameInterval: 10 * time.Millisecond,
		MKC: cc.MKCConfig{
			Alpha:       150 * units.Kbps,
			Beta:        0.5,
			InitialRate: 500 * units.Kbps,
			MinRate:     64 * units.Kbps,
			DedupEpochs: true,
		},
		Frames: 200,
	}
}

// WireLoopbackResult is the outcome of one loopback stream.
type WireLoopbackResult struct {
	// Config echoes the inputs.
	Config WireLoopbackConfig
	// Elapsed is the wall-clock duration of the stream.
	Elapsed time.Duration
	// Sender and Receiver are the endpoint counters at the end.
	Sender   session.Stats
	Receiver wire.ReceiverStats
	// Link is the bottleneck's view.
	Link wire.LinkStats
	// Goodput is the delivered wire bitrate over the arrival interval.
	Goodput units.BitRate
	// Obs is the run's metric registry: gateway, server, and receiver
	// counters.
	Obs *obs.Registry
}

// WireLoopback streams cfg.Frames FGS frames through the emulator and
// returns the converged statistics.
func WireLoopback(cfg WireLoopbackConfig) (WireLoopbackResult, error) {
	reg := obs.NewRegistry()
	gw := wire.NewGateway(wire.GatewayConfig{
		RouterID: 1,
		Interval: cfg.Interval,
		Capacity: cfg.Capacity,
		Obs:      reg,
	})
	emu := wire.NewEmulator(wire.EmulatorConfig{
		AtoB: wire.LinkConfig{
			Bandwidth:  cfg.Capacity,
			Delay:      cfg.Delay,
			QueueBytes: cfg.QueueBytes,
			Seed:       cfg.Seed,
			Marker:     gw,
		},
		BtoA: wire.LinkConfig{Delay: cfg.Delay},
	})
	defer emu.Close()

	start := time.Now()
	sender, recv, err := streamOne(emu, session.Config{
		Frame:         cfg.Frame,
		FrameInterval: cfg.FrameInterval,
		MKC:           cfg.MKC,
		BurstBytes:    16 * cfg.Frame.PacketSize,
		MaxFrames:     cfg.Frames,
	}, wire.ReceiverConfig{Flow: 1, Obs: reg}, cfg.Delay, reg)
	if err != nil {
		return WireLoopbackResult{}, fmt.Errorf("wire loopback: %w", err)
	}
	return WireLoopbackResult{
		Config:   cfg,
		Elapsed:  time.Since(start),
		Sender:   sender,
		Receiver: recv,
		Link:     emu.StatsAtoB(),
		Goodput:  recv.Goodput(),
		Obs:      reg,
	}, nil
}

// streamOne streams one session from a session.Server on the emulator's
// A side to a hello-subscribed wire.Receiver on its B side. It returns
// once the session has sent its MaxFrames frames and the link (one-way
// delay delay) has drained, with both endpoints' final counters. The
// server defaults suit thousands of sessions; one stream is paced on a
// tick finer than a small packet's transmission time and applies each
// feedback label as it arrives, so the 10 ms control loop sees neither
// 1 ms send bursts nor batching delay.
func streamOne(emu *wire.Emulator, sess session.Config, rcfg wire.ReceiverConfig, delay time.Duration, reg *obs.Registry) (session.Stats, wire.ReceiverStats, error) {
	srv, err := session.NewServer(session.ServerConfig{
		Conn:         emu.A(),
		Clock:        wire.SystemClock{},
		Session:      sess,
		Shards:       1,
		MaxSessions:  1,
		Workers:      1,
		WheelTick:    250 * time.Microsecond,
		BatchCount:   1,
		ExitWhenIdle: true,
		Obs:          reg,
	})
	if err != nil {
		return session.Stats{}, wire.ReceiverStats{}, err
	}
	rcfg.Peer = emu.A().LocalAddr()
	rcfg.Hello = true
	recv := wire.NewReceiver(emu.B(), rcfg)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	var wg sync.WaitGroup
	defer func() { cancel(); wg.Wait() }()
	wg.Add(1)
	go func() { defer wg.Done(); _ = recv.Run(ctx) }()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Run(ctx) }()

	// The server drops the session from its table when it completes, so
	// hold on to it from admission on for the final counters.
	key := session.Key{Addr: emu.B().LocalAddr().String(), Flow: rcfg.Flow}
	var st *session.Session
	for st == nil {
		select {
		case err := <-srvErr:
			return session.Stats{}, wire.ReceiverStats{}, fmt.Errorf("server exited before admitting the receiver: %v", err)
		case <-time.After(time.Millisecond):
			st = srv.Table().Get(key)
		}
	}
	if err := <-srvErr; err != nil {
		return session.Stats{}, wire.ReceiverStats{}, fmt.Errorf("server: %w", err)
	}
	// Let the queue and delay line drain before the final snapshot.
	time.Sleep(delay + 100*time.Millisecond)
	return st.Stats(), recv.Stats(), nil
}

// Metrics flattens the result into the named scalars surfaced through
// pelsbench -json: goodput, per-color delivery and loss, and the final
// controller state.
func (r WireLoopbackResult) Metrics() map[string]float64 {
	m := map[string]float64{
		"goodput_bps":    float64(r.Goodput),
		"capacity_bps":   float64(r.Config.Capacity),
		"rate_bps":       float64(r.Sender.Rate),
		"gamma":          r.Sender.Gamma,
		"frames":         float64(r.Receiver.Frames),
		"datagrams_sent": float64(r.Sender.Datagrams),
		"datagrams_rcvd": float64(r.Receiver.Datagrams),
		"overflow_drops": float64(r.Link.OverflowDrops),
	}
	for color, name := range map[packet.Color]string{
		packet.Green:  "green",
		packet.Yellow: "yellow",
		packet.Red:    "red",
	} {
		c := r.Receiver.Colors[color]
		m[name+"_rcvd"] = float64(c.Received)
		m[name+"_lost"] = float64(c.Lost)
		m[name+"_loss"] = c.LossRate()
	}
	return m
}

// Datagrams is the event count surfaced through the runner: every
// datagram the two endpoints put on or took off the wire.
func (r WireLoopbackResult) Datagrams() uint64 {
	return r.Sender.Datagrams + r.Receiver.Datagrams + r.Receiver.FeedbackSent
}

// FormatWireLoopback renders the result as the per-color table the
// bench prints.
func FormatWireLoopback(r WireLoopbackResult) string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "bottleneck %v, epoch %v, %d frames of %d B packets in %v\n",
		cfg.Capacity, cfg.Interval, cfg.Frames, cfg.Frame.PacketSize, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "sender: rate %v  gamma %.3f  last loss %+.3f  feedback accepted %d\n",
		r.Sender.Rate, r.Sender.Gamma, r.Sender.LastLoss, r.Sender.FeedbackAccepted)
	fmt.Fprintf(&b, "goodput %v (%.1f%% of capacity), %d epochs observed\n",
		r.Goodput, 100*float64(r.Goodput)/float64(cfg.Capacity), r.Receiver.Epochs)
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "color", "received", "lost", "loss")
	for _, color := range []packet.Color{packet.Green, packet.Yellow, packet.Red} {
		c := r.Receiver.Colors[color]
		fmt.Fprintf(&b, "%-8s %10d %10d %9.1f%%\n",
			strings.ToLower(color.String()), c.Received, c.Lost, 100*c.LossRate())
	}
	return b.String()
}
