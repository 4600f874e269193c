package wire

import (
	"math"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/packet"
	"repro/internal/units"
)

// fakeClock drives a Gateway deterministically.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: t0} }
func gwConfig(clk *fakeClock, c units.BitRate) GatewayConfig {
	return GatewayConfig{RouterID: 1, Interval: 10 * time.Millisecond, Capacity: c, Now: clk.Now}
}

func dataDatagram(t *testing.T, color packet.Color, size int) []byte {
	t.Helper()
	b, err := EncodeDatagram(Header{Type: TypeData, Color: color}, make([]byte, size-HeaderSize))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGatewayComputesEq11: after a window at arrival rate R, the stamped
// loss is p = (R−C)/R and the epoch has advanced.
func TestGatewayComputesEq11(t *testing.T) {
	clk := newFakeClock()
	// Capacity 1 Mbit/s; offer 2 Mbit/s → p = 0.5.
	g := NewGateway(gwConfig(clk, units.Mbps))

	// Window 1: 2500 bytes in 10 ms = 2 Mbit/s.
	pkt := dataDatagram(t, packet.Green, 125)
	for i := 0; i < 20; i++ {
		if drop := g.Mark(pkt); drop {
			t.Fatal("gateway dropped a datagram")
		}
	}
	if g.Epoch() != 0 {
		t.Fatalf("epoch advanced mid-window: %d", g.Epoch())
	}
	// First packet of the next window closes the previous one.
	clk.advance(10 * time.Millisecond)
	g.Mark(pkt)
	if g.Epoch() != 1 {
		t.Fatalf("epoch %d after window, want 1", g.Epoch())
	}
	if got := g.Loss(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("loss %v, want 0.5", got)
	}
	// The label lands in subsequent datagrams.
	g.Mark(pkt)
	h, _, err := DecodeDatagram(pkt)
	if err != nil {
		t.Fatal(err)
	}
	want := packet.Feedback{RouterID: 1, Epoch: 1, Loss: 0.5, Valid: true}
	if h.Feedback != want {
		t.Fatalf("stamped %+v, want %+v", h.Feedback, want)
	}
}

// TestGatewayNegativeLossClamped: an underloaded window produces
// negative p (spare capacity) clamped at MinLoss.
func TestGatewayNegativeLossClamped(t *testing.T) {
	clk := newFakeClock()
	g := NewGateway(gwConfig(clk, units.Mbps))
	pkt := dataDatagram(t, packet.Red, 125)
	g.Mark(pkt) // 125 bytes in 10 ms = 100 kbit/s → raw p = −9, clamped −2
	clk.advance(10 * time.Millisecond)
	g.Mark(pkt)
	if got := g.Loss(); got != cc.DefaultMinLoss {
		t.Fatalf("loss %v, want clamp at %v", got, cc.DefaultMinLoss)
	}
}

// TestGatewayUsesActualElapsed: a late window (scheduler stall) divides
// by the real elapsed time, so R is not inflated.
func TestGatewayUsesActualElapsed(t *testing.T) {
	clk := newFakeClock()
	g := NewGateway(gwConfig(clk, units.Mbps))
	pkt := dataDatagram(t, packet.Yellow, 125)
	// 2500 bytes, but over 20 ms (the window ran long) = 1 Mbit/s = C.
	for i := 0; i < 20; i++ {
		g.Mark(pkt)
	}
	clk.advance(20 * time.Millisecond)
	g.Mark(pkt)
	if got := g.Loss(); math.Abs(got) > 1e-9 {
		t.Fatalf("loss %v, want 0 (rate == capacity over actual elapsed)", got)
	}
}

// TestGatewayIgnoresNonPELS: feedback, hello, and garbage pass through
// unstamped and uncounted.
func TestGatewayIgnoresNonPELS(t *testing.T) {
	clk := newFakeClock()
	g := NewGateway(gwConfig(clk, units.Mbps))
	fb, _ := EncodeDatagram(Header{Type: TypeFeedback, Color: packet.ACK}, nil)
	orig := append([]byte(nil), fb...)
	if drop := g.Mark(fb); drop {
		t.Fatal("gateway dropped a feedback datagram")
	}
	if string(fb) != string(orig) {
		t.Fatal("gateway mutated a feedback datagram")
	}
	if drop := g.Mark([]byte("not a pels datagram")); drop {
		t.Fatal("gateway dropped unparseable noise")
	}
	if g.Stamped() != 0 {
		t.Fatalf("stamped %d non-PELS datagrams", g.Stamped())
	}
}

// TestGatewayPriorityOrder: control > green > yellow > red > best-effort,
// so congestion eviction consumes probes first.
func TestGatewayPriorityOrder(t *testing.T) {
	g := NewGateway(gwConfig(newFakeClock(), units.Mbps))
	fb, _ := EncodeDatagram(Header{Type: TypeFeedback, Color: packet.ACK}, nil)
	prios := []int{
		g.Priority(fb),
		g.Priority(dataDatagram(t, packet.Green, HeaderSize+1)),
		g.Priority(dataDatagram(t, packet.Yellow, HeaderSize+1)),
		g.Priority(dataDatagram(t, packet.Red, HeaderSize+1)),
		g.Priority(dataDatagram(t, packet.BestEffort, HeaderSize+1)),
	}
	for i := 1; i < len(prios); i++ {
		if prios[i] <= prios[i-1] {
			t.Fatalf("priority order violated: %v", prios)
		}
	}
}

// TestGatewayMaxLossOverride: a label from a more congested upstream
// router survives; a less congested one is overridden (paper eq. 8).
func TestGatewayMaxLossOverride(t *testing.T) {
	clk := newFakeClock()
	g := NewGateway(gwConfig(clk, units.Mbps))
	pkt := dataDatagram(t, packet.Green, 125)
	// Give the gateway a computed loss of 0.5.
	for i := 0; i < 20; i++ {
		g.Mark(pkt)
	}
	clk.advance(10 * time.Millisecond)
	g.Mark(pkt)

	// Upstream router 9 saw loss 0.9 → it must win.
	worse := dataDatagram(t, packet.Green, 125)
	if err := StampFeedback(worse, packet.Feedback{RouterID: 9, Epoch: 4, Loss: 0.9, Valid: true}); err != nil {
		t.Fatal(err)
	}
	g.Mark(worse)
	h, _, _ := DecodeDatagram(worse)
	if h.Feedback.RouterID != 9 || h.Feedback.Loss != 0.9 {
		t.Fatalf("max-loss override failed: %+v", h.Feedback)
	}

	// Upstream router 9 saw loss 0.1 → this gateway's 0.5 wins.
	better := dataDatagram(t, packet.Green, 125)
	if err := StampFeedback(better, packet.Feedback{RouterID: 9, Epoch: 4, Loss: 0.1, Valid: true}); err != nil {
		t.Fatal(err)
	}
	g.Mark(better)
	h, _, _ = DecodeDatagram(better)
	if h.Feedback.RouterID != 1 {
		t.Fatalf("gateway should override smaller loss: %+v", h.Feedback)
	}
}
