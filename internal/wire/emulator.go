package wire

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// EmuAddr is the net.Addr of an emulator endpoint.
type EmuAddr string

// Network implements net.Addr.
func (EmuAddr) Network() string { return "pels-emu" }

// String implements net.Addr.
func (a EmuAddr) String() string { return string(a) }

// EmulatorConfig shapes the two directions of an emulated point-to-point
// link independently: AtoB carries the video stream, BtoA the feedback
// reverse path.
type EmulatorConfig struct {
	AtoB LinkConfig
	BtoA LinkConfig
}

// Emulator is a deterministic in-process link implementing the same
// net.PacketConn surface a UDP socket provides, so the live server and
// Receiver run unmodified over it in CI — no sockets, no privileges.
// Given a fixed seed, the random-loss pattern is a deterministic function
// of the datagram sequence.
type Emulator struct {
	a, b *endpoint
	ab   *link
	ba   *link
}

// NewEmulator builds the link and both endpoints.
func NewEmulator(cfg EmulatorConfig) *Emulator {
	e := &Emulator{
		a: newEndpoint("emu-a"),
		b: newEndpoint("emu-b"),
	}
	// Each endpoint stores its peer's address once, so a delivery does
	// not box it again.
	e.a.peer, e.b.peer = e.b.addr, e.a.addr
	e.ab = newLink(cfg.AtoB, e.b.deliver)
	e.ba = newLink(cfg.BtoA, e.a.deliver)
	e.a.link = e.ab
	e.b.link = e.ba
	return e
}

// A returns the sender-side endpoint; datagrams written to it traverse
// the AtoB link.
func (e *Emulator) A() net.PacketConn { return e.a }

// B returns the receiver-side endpoint.
func (e *Emulator) B() net.PacketConn { return e.b }

// StatsAtoB returns the forward link's counters.
func (e *Emulator) StatsAtoB() LinkStats { return e.ab.Stats() }

// StatsBtoA returns the reverse link's counters.
func (e *Emulator) StatsBtoA() LinkStats { return e.ba.Stats() }

// Close shuts both endpoints and drains the links.
func (e *Emulator) Close() error {
	e.a.close()
	e.b.close()
	e.ab.close()
	e.ba.close()
	e.ab.wait()
	e.ba.wait()
	return nil
}

// inboxCap bounds buffered datagrams per endpoint; beyond it the endpoint
// behaves like a full socket buffer and drops.
const inboxCap = 4096

// endpoint is one side of the emulated link.
type endpoint struct {
	addr EmuAddr
	peer net.Addr // source address of every delivery; set by NewEmulator
	link *link    // outbound direction; set by NewEmulator

	inbox chan *dgram
	done  chan struct{}

	mu       sync.Mutex
	closed   bool
	deadline time.Time
	blocked  int           // ReadFrom calls waiting on the inbox
	moved    chan struct{} // closed when the deadline moves under a blocked read
	overruns uint64
}

var _ net.PacketConn = (*endpoint)(nil)

func newEndpoint(name string) *endpoint {
	return &endpoint{
		addr:  EmuAddr(name),
		inbox: make(chan *dgram, inboxCap),
		done:  make(chan struct{}),
	}
}

// deliver is the inbound link's delivery callback. The datagram's buffer
// passes to the inbox and is released by the ReadFrom that copies it out,
// or here if the endpoint cannot take it.
func (ep *endpoint) deliver(d *dgram, _ net.Addr) {
	select {
	case ep.inbox <- d:
	case <-ep.done:
		d.release()
	default:
		ep.mu.Lock()
		ep.overruns++
		ep.mu.Unlock()
		d.release()
	}
}

// ReadFrom implements net.PacketConn with UDP socket semantics: a
// datagram already waiting is returned at once (even past the deadline),
// a blocked read wakes when another goroutine moves the deadline, and
// Close unblocks pending reads with net.ErrClosed.
func (ep *endpoint) ReadFrom(p []byte) (int, net.Addr, error) {
	for {
		select {
		case <-ep.done:
			return 0, nil, net.ErrClosed
		default:
		}
		select {
		case d := <-ep.inbox:
			return ep.copyOut(p, d)
		default:
		}

		ep.mu.Lock()
		deadline := ep.deadline
		var wait time.Duration
		if !deadline.IsZero() {
			if wait = time.Until(deadline); wait <= 0 {
				ep.mu.Unlock()
				return 0, nil, os.ErrDeadlineExceeded
			}
		}
		if ep.moved == nil {
			ep.moved = make(chan struct{})
		}
		moved := ep.moved
		ep.blocked++
		ep.mu.Unlock()

		var (
			timer   *time.Timer
			expired <-chan time.Time
		)
		if wait > 0 {
			timer = time.NewTimer(wait)
			expired = timer.C
		}
		var d *dgram
		select {
		case d = <-ep.inbox:
		case <-expired:
		case <-moved:
		case <-ep.done:
		}
		if timer != nil {
			timer.Stop()
		}
		ep.mu.Lock()
		ep.blocked--
		ep.mu.Unlock()
		if d != nil {
			return ep.copyOut(p, d)
		}
		// Deadline expiry, a moved deadline and Close are all re-checked
		// at the top of the loop.
	}
}

// copyOut copies d into p and releases its buffer.
func (ep *endpoint) copyOut(p []byte, d *dgram) (int, net.Addr, error) {
	n := copy(p, d.b)
	var err error
	if n < len(d.b) {
		err = fmt.Errorf("wire: %d-byte datagram truncated into %d-byte buffer", len(d.b), len(p))
	}
	d.release()
	return n, ep.peer, err
}

// WriteTo implements net.PacketConn. The destination address is ignored:
// the emulator is point-to-point and everything written here traverses
// the endpoint's outbound link.
func (ep *endpoint) WriteTo(p []byte, _ net.Addr) (int, error) {
	ep.mu.Lock()
	closed := ep.closed
	ep.mu.Unlock()
	if closed {
		return 0, net.ErrClosed
	}
	ep.link.send(p, nil)
	return len(p), nil
}

// Close implements net.PacketConn.
func (ep *endpoint) close() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return
	}
	ep.closed = true
	close(ep.done)
}

// Close implements net.PacketConn.
func (ep *endpoint) Close() error {
	ep.close()
	return nil
}

// LocalAddr implements net.PacketConn.
func (ep *endpoint) LocalAddr() net.Addr { return ep.addr }

// SetDeadline implements net.PacketConn (write deadlines are moot —
// writes never block).
func (ep *endpoint) SetDeadline(t time.Time) error { return ep.SetReadDeadline(t) }

// SetReadDeadline implements net.PacketConn. Like a socket's, it also
// applies to a ReadFrom already blocked in another goroutine.
func (ep *endpoint) SetReadDeadline(t time.Time) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.deadline = t
	if ep.blocked > 0 && ep.moved != nil {
		close(ep.moved)
		ep.moved = nil
	}
	return nil
}

// SetWriteDeadline implements net.PacketConn.
func (ep *endpoint) SetWriteDeadline(time.Time) error { return nil }

// Overruns reports datagrams dropped because the endpoint's inbox was
// full (a reader that stopped draining).
func (ep *endpoint) Overruns() uint64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.overruns
}

// ShapedConn wraps a real net.PacketConn with an outbound shaping link:
// writes pass through loss → marking → bounded priority queue →
// serialization → delay before reaching the inner socket, while reads are
// untouched. cmd/pelsd uses it as a software bottleneck so a localhost
// stream still exercises the whole PELS control loop.
type ShapedConn struct {
	net.PacketConn
	link      *link
	closeOnce sync.Once
	closeErr  error
}

// NewShapedConn shapes writes to inner with cfg.
func NewShapedConn(inner net.PacketConn, cfg LinkConfig) *ShapedConn {
	s := &ShapedConn{PacketConn: inner}
	s.link = newLink(cfg, s.write)
	return s
}

// write is the link's delivery callback: the buffer goes back to the
// pool once the inner socket has taken the bytes. A failed write is
// counted in LinkStats.WriteErrors.
func (s *ShapedConn) write(d *dgram, to net.Addr) {
	_, err := s.PacketConn.WriteTo(d.b, to)
	d.release()
	if err != nil {
		s.link.countWriteError()
	}
}

// WriteTo implements net.PacketConn by enqueueing into the shaping link.
func (s *ShapedConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	s.link.send(p, addr)
	return len(p), nil
}

// Stats returns the shaping link's counters.
func (s *ShapedConn) Stats() LinkStats { return s.link.Stats() }

// Close drains the shaping link, then closes the inner conn. Later calls
// return the first call's result.
func (s *ShapedConn) Close() error {
	s.closeOnce.Do(func() {
		s.link.close()
		s.link.wait()
		s.closeErr = s.PacketConn.Close()
	})
	return s.closeErr
}
