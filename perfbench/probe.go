package main

import (
	"context"
	"encoding/binary"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/packet"
	"repro/internal/session"
	"repro/internal/wire"
)

// Probes wrap the interfaces the live stack already accepts
// (ServerConfig.Conn/Out/Clock, LinkConfig.Marker, the inner socket of
// wire.ShapedConn, SwarmConfig.Listen). They measure each layer from
// outside; none of them changes what the program does, except
// outWriter.dropGreen, which exists only so the benchmark's tests can
// prove the live check catches a lost base-layer datagram.

// Header field offsets of the v1 wire format (internal/wire/codec.go).
// TestPeekMatchesCodec pins them against the codec.
const (
	offType      = 5
	offColor     = 6
	offFlow      = 8
	offSeq       = 20
	offTimestamp = 28
)

// dgInfo is the identity of one datagram, read from its header without
// a checksum pass so probes add no decode work of their own.
type dgInfo struct {
	typ   wire.Type
	band  packet.Color
	flow  uint32
	seq   uint64
	stamp int64 // sender Timestamp, unix nanoseconds
}

func peek(b []byte) (dgInfo, bool) {
	if _, ok := wire.PeekType(b); !ok {
		return dgInfo{}, false
	}
	return dgInfo{
		typ:   wire.Type(b[offType]),
		band:  packet.Color(b[offColor]),
		flow:  binary.BigEndian.Uint32(b[offFlow:]),
		seq:   binary.BigEndian.Uint64(b[offSeq:]),
		stamp: int64(binary.BigEndian.Uint64(b[offTimestamp:])),
	}, true
}

// arrivals tracks, per receiver flow, the first hello the swarm sent and
// the first data datagram it read. done closes once every flow has data.
type arrivals struct {
	mu        sync.Mutex
	want      int
	firstHi   map[uint32]time.Time
	firstData map[uint32]time.Time
	complete  atomic.Bool
	done      chan struct{}
}

func newArrivals(want int) *arrivals {
	return &arrivals{
		want:      want,
		firstHi:   make(map[uint32]time.Time, want),
		firstData: make(map[uint32]time.Time, want),
		done:      make(chan struct{}),
	}
}

func (a *arrivals) hello(flow uint32, now time.Time) {
	a.mu.Lock()
	if _, ok := a.firstHi[flow]; !ok {
		a.firstHi[flow] = now
	}
	a.mu.Unlock()
}

func (a *arrivals) data(flow uint32, now time.Time) {
	if a.complete.Load() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.firstData[flow]; ok {
		return
	}
	a.firstData[flow] = now
	if len(a.firstData) == a.want && a.complete.CompareAndSwap(false, true) {
		close(a.done)
	}
}

// admitMs returns each flow's hello → first data latency in milliseconds.
func (a *arrivals) admitMs() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []float64
	for flow, d := range a.firstData {
		if h, ok := a.firstHi[flow]; ok {
			out = append(out, float64(d.Sub(h))/1e6)
		}
	}
	return out
}

func (a *arrivals) streamed() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.firstData)
}

// rxConn wraps one swarm socket. It is always installed: the one-way
// delay and set-up time are end-to-end metrics. Every swarm socket is
// read by exactly one goroutine, but the window is switched and read from
// the pass goroutine, hence the mutex.
type rxConn struct {
	net.PacketConn
	arr *arrivals
	tr  *tracer // nil in untraced passes

	mu        sync.Mutex
	measuring bool
	green     []int64 // base-layer one-way delays in the window, ns
	all       []int64 // every band's one-way delays in the window, ns
	dataReads uint64  // data datagrams read over the whole pass
	ctlReads  uint64  // non-data datagrams read over the whole pass
	// On loopback UDP a session's Close bypasses the shaped link and can
	// overtake its last data, which the swarm then discards uncounted.
	closed   map[uint32]bool
	lateData uint64 // data datagrams read after their flow's Close
	winData  uint64 // data datagrams read in the window
	winBytes uint64 // their payload bytes (headers excluded)
}

func (c *rxConn) ReadFrom(p []byte) (int, net.Addr, error) {
	t0 := c.tr.now()
	n, addr, err := c.PacketConn.ReadFrom(p)
	now := time.Now()
	if err != nil {
		c.tr.count(spanSwarmRead)
		return n, addr, err
	}
	info, ok := peek(p[:n])
	if !ok {
		return n, addr, err
	}
	c.tr.add(spanSwarmRead, info, t0, c.tr.now())
	if info.typ != wire.TypeData {
		c.mu.Lock()
		c.ctlReads++
		if info.typ == wire.TypeClose {
			if c.closed == nil {
				c.closed = map[uint32]bool{}
			}
			c.closed[info.flow] = true
		}
		c.mu.Unlock()
		return n, addr, err
	}
	c.arr.data(info.flow, now)
	d := now.UnixNano() - info.stamp
	c.mu.Lock()
	c.dataReads++
	if c.closed[info.flow] {
		c.lateData++
	}
	if c.measuring {
		c.winData++
		c.winBytes += uint64(n - wire.HeaderSize)
		c.all = append(c.all, d)
		if info.band == packet.Green {
			c.green = append(c.green, d)
		}
	}
	c.mu.Unlock()
	return n, addr, err
}

func (c *rxConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	t0 := c.tr.now()
	n, err := c.PacketConn.WriteTo(p, addr)
	if info, ok := peek(p); ok {
		if info.typ == wire.TypeHello {
			c.arr.hello(info.flow, time.Now())
		}
		c.tr.add(spanSwarmWrite, info, t0, c.tr.now())
	}
	return n, err
}

func (c *rxConn) setMeasuring(on bool) {
	c.mu.Lock()
	c.measuring = on
	c.mu.Unlock()
}

// rxTotals sums the swarm sockets' window and pass counters.
type rxTotals struct {
	green, all               []int64
	dataReads, ctlReads      uint64
	lateData                 uint64
	winData, winPayloadBytes uint64
}

func sumRx(conns []*rxConn) rxTotals {
	var t rxTotals
	for _, c := range conns {
		c.mu.Lock()
		t.green = append(t.green, c.green...)
		t.all = append(t.all, c.all...)
		t.dataReads += c.dataReads
		t.ctlReads += c.ctlReads
		t.lateData += c.lateData
		t.winData += c.winData
		t.winPayloadBytes += c.winBytes
		c.mu.Unlock()
	}
	sort.Slice(t.green, func(i, j int) bool { return t.green[i] < t.green[j] })
	sort.Slice(t.all, func(i, j int) bool { return t.all[i] < t.all[j] })
	return t
}

// demuxConn wraps the server socket: demux reads and control writes.
type demuxConn struct {
	net.PacketConn
	tr *tracer
}

func (c *demuxConn) ReadFrom(p []byte) (int, net.Addr, error) {
	t0 := c.tr.now()
	n, addr, err := c.PacketConn.ReadFrom(p)
	if err != nil {
		c.tr.count(spanDemuxRead)
		return n, addr, err
	}
	info, _ := peek(p[:n])
	c.tr.add(spanDemuxRead, info, t0, c.tr.now())
	return n, addr, err
}

// outWriter wraps ServerConfig.Out: the pump → link handoff, i.e. copy,
// mark and evict inside the link's send.
type outWriter struct {
	inner wire.PacketWriter
	tr    *tracer
	// dropGreen discards the first dropGreen base-layer datagrams — a
	// fault the live check must report. Zero in every benchmark run.
	dropGreen atomic.Int64
}

func (w *outWriter) WriteTo(p []byte, addr net.Addr) (int, error) {
	info, ok := peek(p)
	if ok && info.band == packet.Green && w.dropGreen.Load() > 0 && w.dropGreen.Add(-1) >= 0 {
		return len(p), nil
	}
	t0 := w.tr.now()
	n, err := w.inner.WriteTo(p, addr)
	if ok {
		w.tr.add(spanLinkWrite, info, t0, w.tr.now())
	}
	return n, err
}

// markProbe wraps the gateway installed as LinkConfig.Marker.
type markProbe struct {
	inner wire.Marker
	tr    *tracer
}

func (m *markProbe) Mark(b []byte) bool {
	info, _ := peek(b)
	t0 := m.tr.now()
	drop := m.inner.Mark(b)
	m.tr.add(spanMark, info, t0, m.tr.now())
	return drop
}

func (m *markProbe) Priority(b []byte) int {
	info, _ := peek(b)
	t0 := m.tr.now()
	p := m.inner.Priority(b)
	m.tr.add(spanPriority, info, t0, m.tr.now())
	return p
}

// sockConn wraps the kernel socket under wire.ShapedConn, so its writes
// are the link's socket sends.
type sockConn struct {
	net.PacketConn
	tr        *tracer
	writeErrs atomic.Uint64
}

func (c *sockConn) WriteTo(p []byte, addr net.Addr) (int, error) {
	t0 := c.tr.now()
	n, err := c.PacketConn.WriteTo(p, addr)
	if err != nil {
		c.writeErrs.Add(1)
	}
	info, _ := peek(p)
	c.tr.add(spanSocketSend, info, t0, c.tr.now())
	return n, err
}

// clockProbe wraps the server clock; the requested sleep rides in the
// span's seq field so oversleep is span length minus request.
type clockProbe struct {
	inner session.Clock
	tr    *tracer
}

func (c clockProbe) Now() time.Time { return c.inner.Now() }

func (c clockProbe) Sleep(ctx context.Context, d time.Duration) error {
	t0 := c.tr.now()
	err := c.inner.Sleep(ctx, d)
	if err == nil {
		c.tr.add(spanDriverSleep, dgInfo{seq: uint64(d)}, t0, c.tr.now())
	}
	return err
}
