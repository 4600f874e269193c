package perf

import (
	"net"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/units"
	"repro/internal/wire"
)

// discardConn is a net.PacketConn that accepts and drops every write.
type discardConn struct{}

func (discardConn) ReadFrom([]byte) (int, net.Addr, error)    { return 0, nil, net.ErrClosed }
func (discardConn) WriteTo(p []byte, _ net.Addr) (int, error) { return len(p), nil }
func (discardConn) Close() error                              { return nil }
func (discardConn) LocalAddr() net.Addr                       { return &net.UDPAddr{} }
func (discardConn) SetDeadline(time.Time) error               { return nil }
func (discardConn) SetReadDeadline(time.Time) error           { return nil }
func (discardConn) SetWriteDeadline(time.Time) error          { return nil }

// BenchmarkWireLinkSend is the link send+serialize hop: 1460-byte
// datagrams through a Gateway marker into a full, evicting 100 Mbit/s
// shaping link whose goroutine drains it concurrently. Mostly red
// traffic keeps the queue full; the occasional yellow and green arrival
// evicts the newest red. Each op copies, marks, ranks and admits or
// drops one datagram; the steady state allocates nothing.
func BenchmarkWireLinkSend(b *testing.B) {
	gw := wire.NewGateway(wire.GatewayConfig{RouterID: 1, Interval: 10 * time.Millisecond, Capacity: 100 * units.Mbps})
	s := wire.NewShapedConn(discardConn{}, wire.LinkConfig{
		Bandwidth:  100 * units.Mbps,
		QueueBytes: 64 * wire.MaxDatagram,
		Marker:     gw,
	})
	defer s.Close()
	var dgs [3][]byte
	for i, c := range []packet.Color{packet.Red, packet.Yellow, packet.Green} {
		h := benchHeader()
		h.Color = c
		dg, err := wire.EncodeDatagram(h, make([]byte, wire.MaxPayload))
		if err != nil {
			b.Fatal(err)
		}
		dgs[i] = dg
	}
	to := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	send := func(i int) {
		dg := dgs[0]
		switch i % 256 {
		case 85:
			dg = dgs[1]
		case 170:
			dg = dgs[2]
		}
		if _, err := s.WriteTo(dg, to); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ { // fill the queue and the buffer pools
		send(i)
	}
	b.ReportAllocs()
	b.SetBytes(int64(wire.MaxDatagram))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(i)
	}
	b.StopTimer()
	if st := s.Stats(); st.OverflowDrops == 0 {
		b.Fatalf("queue never overflowed: %+v", st)
	}
}
