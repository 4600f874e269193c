package stream

import (
	"math"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/fgs"
	"repro/internal/packet"
	"repro/internal/units"
)

func testMKC() cc.MKCConfig {
	return cc.MKCConfig{
		Alpha:       20 * units.Kbps,
		Beta:        0.5,
		InitialRate: 128 * units.Kbps,
		MinRate:     64 * units.Kbps,
		DedupEpochs: true,
	}
}

func newCore(t *testing.T, cfg Config, ctrl cc.Controller) *Core {
	t.Helper()
	c, err := New(cfg, ctrl, time.Unix(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestCoreFeedbackTrace drives one core through a single feedback trace
// — fresh labels, a duplicate epoch, a router change, a stale gap with
// the watchdog ticking, and recovery — and checks the exact rate, γ, and
// watchdog trajectory after every step. It is the one test of the sender
// control law that the simulator and live drivers share.
func TestCoreFeedbackTrace(t *testing.T) {
	const kbps = float64(units.Kbps)
	fb := func(router int, epoch uint64, loss float64) packet.Feedback {
		return packet.Feedback{RouterID: router, Epoch: epoch, Loss: loss, Valid: true}
	}
	steps := []struct {
		name  string
		at    time.Duration
		fb    *packet.Feedback // nil: a watchdog Tick
		fresh bool             // feedback accepted, or Tick decayed
		rate  float64          // controller rate, b/s
		gamma float64
		eff   float64 // effective (planning) rate, b/s
		// counters after the step
		accepted, decays, recoveries, changes uint64
	}{
		{name: "first label", at: 0, fb: ptr(fb(1, 1, 0.3)),
			fresh: true, rate: 128.8 * kbps, gamma: 0.45, eff: 128.8 * kbps, accepted: 1},
		{name: "duplicate epoch", at: 10 * time.Millisecond, fb: ptr(fb(1, 1, 0.3)),
			rate: 128.8 * kbps, gamma: 0.45, eff: 128.8 * kbps, accepted: 1},
		{name: "loss-free epoch", at: 20 * time.Millisecond, fb: ptr(fb(1, 2, 0)),
			fresh: true, rate: 148.8 * kbps, gamma: 0.225, eff: 148.8 * kbps, accepted: 2},
		{name: "router change resets gamma", at: 30 * time.Millisecond, fb: ptr(fb(2, 1, 0.6)),
			fresh: true, rate: 124.16 * kbps, gamma: 0.5, eff: 124.16 * kbps, accepted: 3, changes: 1},
		{name: "invalid label", at: 40 * time.Millisecond, fb: &packet.Feedback{RouterID: 2, Epoch: 9},
			rate: 124.16 * kbps, gamma: 0.5, eff: 124.16 * kbps, accepted: 3, changes: 1},
		{name: "tick inside the horizon", at: 100 * time.Millisecond,
			rate: 124.16 * kbps, gamma: 0.5, eff: 124.16 * kbps, accepted: 3, changes: 1},
		{name: "stale: first decay, floored", at: 130 * time.Millisecond, fresh: true,
			rate: 124.16 * kbps, gamma: 0.5, eff: 64 * kbps, accepted: 3, decays: 1, changes: 1},
		{name: "one decay per horizon", at: 180 * time.Millisecond,
			rate: 124.16 * kbps, gamma: 0.5, eff: 64 * kbps, accepted: 3, decays: 1, changes: 1},
		{name: "stale: second decay", at: 230 * time.Millisecond, fresh: true,
			rate: 124.16 * kbps, gamma: 0.5, eff: 64 * kbps, accepted: 3, decays: 2, changes: 1},
		{name: "duplicate does not recover", at: 240 * time.Millisecond, fb: ptr(fb(2, 1, 0.6)),
			rate: 124.16 * kbps, gamma: 0.5, eff: 64 * kbps, accepted: 3, decays: 2, changes: 1},
		{name: "fresh label recovers", at: 250 * time.Millisecond, fb: ptr(fb(2, 2, 0.15)),
			fresh: true, rate: 134.848 * kbps, gamma: 0.35, eff: 134.848 * kbps,
			accepted: 4, decays: 2, recoveries: 1, changes: 1},
	}
	t0 := time.Unix(1000, 0)
	c := newCore(t, Config{
		Frame:        fgs.DefaultFrameSpec(),
		StaleTimeout: 100 * time.Millisecond,
		MinRate:      64 * units.Kbps,
	}, cc.NewMKC(testMKC()))
	wantDegrade := 1.0
	for _, st := range steps {
		now := t0.Add(st.at)
		var got bool
		if st.fb != nil {
			got = c.OnFeedback(*st.fb, now)
		} else {
			got = c.Tick(now)
		}
		switch {
		case st.fb == nil && got:
			wantDegrade *= StaleDecay
		case st.fb != nil && got:
			wantDegrade = 1
		}
		s := c.Stats()
		if got != st.fresh {
			t.Fatalf("%s: reported %v, want %v", st.name, got, st.fresh)
		}
		if !near(float64(s.Rate), st.rate) || !near(s.Gamma, st.gamma) || !near(float64(c.EffectiveRate()), st.eff) {
			t.Fatalf("%s: rate %v γ %v effective %v, want %v γ %v effective %v",
				st.name, float64(s.Rate), s.Gamma, float64(c.EffectiveRate()), st.rate, st.gamma, st.eff)
		}
		if s.Degrade != wantDegrade {
			t.Fatalf("%s: degrade %v, want %v", st.name, s.Degrade, wantDegrade)
		}
		if s.FeedbackAccepted != st.accepted || s.StaleDecays != st.decays ||
			s.Recoveries != st.recoveries || s.RouterChanges != st.changes {
			t.Fatalf("%s: counters %+v, want accepted %d decays %d recoveries %d changes %d",
				st.name, s, st.accepted, st.decays, st.recoveries, st.changes)
		}
	}
	if !c.FeedbackAt().Equal(t0.Add(250 * time.Millisecond)) {
		t.Fatalf("last fresh feedback at %v", c.FeedbackAt())
	}
}

func ptr(fb packet.Feedback) *packet.Feedback { return &fb }

// TestCoreDegradeFloor: however long the outage, the multiplier stops at
// minDegrade, and the effective rate stops at MinRate.
func TestCoreDegradeFloor(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := newCore(t, Config{Frame: fgs.DefaultFrameSpec(), StaleTimeout: time.Second, MinRate: units.Kbps}, cc.NewMKC(testMKC()))
	for i := 1; i <= 40; i++ {
		c.Tick(t0.Add(time.Duration(i) * time.Second))
	}
	if s := c.Stats(); s.Degrade != minDegrade || s.StaleDecays != 40 {
		t.Fatalf("degrade %v after 40 decays, want floor %v", s.Degrade, minDegrade)
	}
	if r := c.EffectiveRate(); r != units.Kbps {
		t.Fatalf("effective rate %v, want the MinRate floor", r)
	}
}

// TestCoreBestEffort: the baseline plans with γ = 0 and never steps or
// resets γ, whatever the feedback says.
func TestCoreBestEffort(t *testing.T) {
	c := newCore(t, Config{Frame: fgs.DefaultFrameSpec(), FrameInterval: 500 * time.Millisecond, BestEffort: true},
		cc.NewMKC(testMKC()))
	g0 := c.Gamma()
	for e := uint64(1); e <= 5; e++ {
		c.OnFeedback(packet.Feedback{RouterID: int(e), Epoch: e, Loss: 0.5, Valid: true}, time.Time{})
	}
	if c.Gamma() != g0 || c.Stats().RouterChanges != 0 {
		t.Fatalf("best-effort γ moved: %v → %v, %d resets", g0, c.Gamma(), c.Stats().RouterChanges)
	}
	c.PlanFrame(0)
	if p := c.Plan(); p.Red != 0 || p.Gamma != 0 {
		t.Fatalf("best-effort plan %+v, want γ = 0 and no red", p)
	}
}

// TestCoreUnarmedRateIsControllerRate: without a watchdog or floor the
// core plans at exactly the controller's rate, whatever controller it
// drives.
func TestCoreUnarmedRateIsControllerRate(t *testing.T) {
	ctrl := cc.NewAIMD(cc.DefaultAIMDConfig())
	c := newCore(t, Config{Frame: fgs.DefaultFrameSpec(), FrameInterval: 500 * time.Millisecond}, ctrl)
	for e := uint64(1); e <= 50; e++ {
		c.OnFeedback(packet.Feedback{RouterID: 1, Epoch: e, Loss: float64(e%3) * 0.1, Valid: true}, time.Time{})
		if c.EffectiveRate() != ctrl.Rate() {
			t.Fatalf("epoch %d: effective %v, controller %v", e, c.EffectiveRate(), ctrl.Rate())
		}
	}
}

// TestCorePlansMatchPacketizer: classic plans are PlanShare's, layered
// ones the γ ladder's, and each packet's layer, color, and band follow
// from the plan.
func TestCorePlansMatchPacketizer(t *testing.T) {
	spec := fgs.DefaultFrameSpec()
	pk := fgs.MustNewPacketizer(spec)
	interval := 500 * time.Millisecond
	for _, layers := range []int{0, 3, 2, 5, 8} {
		c := newCore(t, Config{Frame: spec, FrameInterval: interval, Layers: layers}, cc.NewMKC(testMKC()))
		total := c.PlanFrame(7)
		budget := fgs.ConstantScaler{}.Budget(7, c.Rate(), interval)
		n := c.Layers()
		if layers == 0 || layers == 3 {
			if want := pk.PlanShare(7, budget, c.Gamma(), fgs.RedShareTotal); c.Plan() != want {
				t.Fatalf("layers %d: plan %+v, want %+v", layers, c.Plan(), want)
			}
		} else {
			want := pk.PlanLayers(7, budget, fgs.GammaLadder(layers, c.Gamma()), fgs.RedShareTotal)
			for i, got := range c.LayerPlan().Counts {
				if got != want.Counts[i] {
					t.Fatalf("layers %d: counts %v, want %v", layers, c.LayerPlan().Counts, want.Counts)
				}
			}
		}
		for idx := 0; idx < total; idx++ {
			l := c.Layer(idx)
			if c.Color(idx) != packet.LayerColor(l) {
				t.Fatalf("layers %d packet %d: color %v for layer %d", layers, idx, c.Color(idx), l)
			}
			want := packet.Yellow
			switch l {
			case 0:
				want = packet.Green
			case n - 1:
				want = packet.Red
			}
			if c.Band(idx) != want {
				t.Fatalf("layers %d packet %d (layer %d of %d): band %v, want %v", layers, idx, l, n, c.Band(idx), want)
			}
		}
	}
}

// TestCoreSequenceSpaces: each wire band numbers its packets from 0
// independently.
func TestCoreSequenceSpaces(t *testing.T) {
	c := newCore(t, Config{Frame: fgs.DefaultFrameSpec()}, cc.NewMKC(testMKC()))
	for i := uint64(0); i < 3; i++ {
		for _, band := range []packet.Color{packet.Green, packet.Yellow, packet.Red} {
			if got := c.NextSeq(band); got != i {
				t.Fatalf("%v seq %d, want %d", band, got, i)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Frame: fgs.FrameSpec{}},
		{Frame: fgs.DefaultFrameSpec(), Layers: 1},
		{Frame: fgs.DefaultFrameSpec(), Layers: packet.MaxLayers + 1},
		{Frame: fgs.DefaultFrameSpec(), StaleTimeout: -time.Second},
		{Frame: fgs.DefaultFrameSpec(), Gamma: fgs.GammaConfig{Sigma: 3, PThr: 0.75}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
}

// TestCoreHotPathAllocs: planning a frame and applying feedback allocate
// nothing, for classic and layered streams.
func TestCoreHotPathAllocs(t *testing.T) {
	for _, layers := range []int{0, 8} {
		c := newCore(t, Config{Frame: fgs.DefaultFrameSpec(), FrameInterval: 20 * time.Millisecond,
			Layers: layers, StaleTimeout: time.Second}, cc.NewMKC(testMKC()))
		now := time.Unix(1000, 0)
		epoch := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			epoch++
			c.OnFeedback(packet.Feedback{RouterID: 1, Epoch: epoch, Loss: 0.1, Valid: true}, now)
			for idx, n := 0, c.PlanFrame(int(epoch)); idx < n; idx++ {
				c.NextSeq(c.Band(idx))
			}
		})
		if allocs != 0 {
			t.Errorf("layers %d: %v allocs per frame, want 0", layers, allocs)
		}
	}
}
