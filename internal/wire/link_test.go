package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/units"
)

// refLink is the link queue as it was before the per-priority rings: one
// slice in arrival order, eviction by scanning from the tail for the
// worst priority strictly worse than the arrival and splicing it out,
// service from the head, and a delivery list kept sorted by instant. It
// is the reference the rings must match datagram by datagram.
type refLink struct {
	cfg       LinkConfig
	start     time.Time
	faults    *fault.Injector
	queue     []refQueued
	bytes     int
	busyUntil time.Time
	out       []refOut
	enqueued  uint64
	overflow  uint64
}

type refQueued struct {
	id, size, prio int
	at             time.Time
	extra          time.Duration
}

type refOut struct {
	id int
	at time.Time
}

// send mirrors link.send for datagrams no Marker drops.
func (r *refLink) send(id, size, prio int, at time.Time, b []byte) {
	q := refQueued{id: id, size: size, prio: prio, at: at}
	if r.faults != nil {
		d := r.faults.Filter(at.Sub(r.start), fault.Packet{Size: size, Class: classify(b)})
		q.extra = d.ExtraDelay
		if d.Duplicate {
			r.enqueue(q)
		}
	}
	r.enqueue(q)
}

func (r *refLink) enqueue(q refQueued) {
	for r.bytes+q.size > r.cfg.QueueBytes && len(r.queue) > 0 {
		worst, worstIdx := q.prio, -1
		for i := len(r.queue) - 1; i >= 0; i-- {
			if r.queue[i].prio > worst {
				worst, worstIdx = r.queue[i].prio, i
			}
		}
		if worstIdx < 0 {
			r.overflow++
			return
		}
		r.bytes -= r.queue[worstIdx].size
		r.queue = append(r.queue[:worstIdx], r.queue[worstIdx+1:]...)
		r.overflow++
	}
	r.queue = append(r.queue, q)
	r.bytes += q.size
	r.enqueued++
}

// headStart is when the head datagram starts transmitting.
func (r *refLink) headStart() time.Time {
	q := r.queue[0]
	if r.cfg.Bandwidth > 0 && r.busyUntil.After(q.at) {
		return r.busyUntil
	}
	return q.at
}

// serve runs the serializer and the propagator up to now and returns the
// ids delivered, in order.
func (r *refLink) serve(now time.Time) []int {
	for len(r.queue) > 0 && !r.headStart().After(now) {
		start := r.headStart()
		q := r.queue[0]
		r.queue = r.queue[1:]
		r.bytes -= q.size
		r.busyUntil = start
		if r.cfg.Bandwidth > 0 {
			r.busyUntil = start.Add(r.cfg.Bandwidth.TransmissionTime(q.size))
		}
		o := refOut{id: q.id, at: r.busyUntil.Add(r.cfg.Delay + q.extra)}
		i := sort.Search(len(r.out), func(i int) bool { return r.out[i].at.After(o.at) })
		r.out = append(r.out, refOut{})
		copy(r.out[i+1:], r.out[i:])
		r.out[i] = o
	}
	var ids []int
	for len(r.out) > 0 && !r.out[0].at.After(now) {
		ids = append(ids, r.out[0].id)
		r.out = r.out[1:]
	}
	return ids
}

// next is the earliest instant the reference has work.
func (r *refLink) next() (time.Time, bool) {
	var next time.Time
	ok := false
	if len(r.out) > 0 {
		next, ok = r.out[0].at, true
	}
	if len(r.queue) > 0 {
		if s := r.headStart(); !ok || s.Before(next) {
			next, ok = s, true
		}
	}
	return next, ok
}

// byteMarker ranks a datagram by its first byte and never drops.
type byteMarker struct{}

func (byteMarker) Mark([]byte) bool        { return false }
func (byteMarker) Priority(b []byte) int   { return int(int8(b[0])) }
func idOf(b []byte) int                    { return int(binary.BigEndian.Uint32(b[1:5])) }
func putID(b []byte, prio int8, id uint32) { b[0] = byte(prio); binary.BigEndian.PutUint32(b[1:5], id) }

// waitingIDs lists the queued datagrams in arrival order.
func (l *link) waitingIDs() []int {
	var all []queued
	for p := range l.bands {
		for i := 0; i < l.bands[p].n; i++ {
			all = append(all, *l.bands[p].at(i))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	ids := make([]int, len(all))
	for i, q := range all {
		ids[i] = idOf(q.d.b)
	}
	return ids
}

// TestLinkMatchesReferenceQueue feeds the per-priority link and the
// scan-and-splice reference the same seeded arrivals — sizes up to
// MaxDatagram, priorities 0–4, an injected clock, a queue a few datagrams
// deep, reordering and duplication faults — and checks after every step
// that both admitted, evicted, served and delivered the same datagrams.
func TestLinkMatchesReferenceQueue(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  LinkConfig
	}{
		{"bandwidth", LinkConfig{Bandwidth: 10 * units.Mbps, QueueBytes: 6000}},
		{"bandwidth+delay", LinkConfig{Bandwidth: 4 * units.Mbps, Delay: 3 * time.Millisecond, QueueBytes: 9000}},
		{"infinite bandwidth", LinkConfig{QueueBytes: 3000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, withFaults := range []bool{false, true} {
				testLinkMatchesReference(t, tc.cfg, withFaults)
			}
		})
	}
}

func testLinkMatchesReference(t *testing.T, cfg LinkConfig, withFaults bool) {
	now := time.Unix(1000, 0)
	cfg.Now = func() time.Time { return now }
	cfg.Marker = byteMarker{}
	plan := fault.Plan{Seed: 9, Events: []fault.Event{
		{Kind: fault.KindReorder, From: 0, To: time.Hour, Prob: 0.2, MaxDelay: 4 * time.Millisecond},
		{Kind: fault.KindDuplicate, From: 0, To: time.Hour, Prob: 0.05},
	}}
	ref := &refLink{cfg: cfg, start: now}
	if withFaults {
		cfg.Faults = fault.NewInjector(plan)
		ref.faults = fault.NewInjector(plan)
	}
	var got []int
	l := initLink(cfg, func(d *dgram, _ net.Addr) {
		got = append(got, idOf(d.b))
		d.release()
	})
	var batch []outgoing
	serve := func() {
		l.mu.Lock()
		l.startDueLocked(now)
		batch = l.takeDueLocked(now, batch[:0])
		l.mu.Unlock()
		for _, o := range batch {
			l.deliver(o.d, o.to)
		}
	}

	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, MaxDatagram)
	for step := 0; step < 20000; step++ {
		if rng.Float64() < 0.7 {
			now = now.Add(time.Duration(rng.Intn(600)) * time.Microsecond)
			size := 5 + rng.Intn(MaxDatagram-4)
			prio := rng.Intn(maxPriority + 1)
			b := buf[:size]
			putID(b, int8(prio), uint32(step))
			l.send(b, nil)
			ref.send(step, size, prio, now, b)
		} else {
			now = now.Add(time.Duration(rng.Intn(2000)) * time.Microsecond)
			got = got[:0]
			serve()
			if want := ref.serve(now); !equalIDs(got, want) {
				t.Fatalf("step %d: delivered %v, reference %v", step, got, want)
			}
		}
		l.mu.Lock()
		waiting := l.waitingIDs()
		st := l.stats
		next, ok := l.nextLocked()
		bytes := l.bytes
		l.mu.Unlock()
		want := make([]int, len(ref.queue))
		for i, q := range ref.queue {
			want[i] = q.id
		}
		if !equalIDs(waiting, want) {
			t.Fatalf("step %d: queue %v, reference %v", step, waiting, want)
		}
		if st.Enqueued != ref.enqueued || st.OverflowDrops != ref.overflow || bytes != ref.bytes {
			t.Fatalf("step %d: enqueued/overflow/bytes %d/%d/%d, reference %d/%d/%d",
				step, st.Enqueued, st.OverflowDrops, bytes, ref.enqueued, ref.overflow, ref.bytes)
		}
		if rn, rok := ref.next(); ok != rok || !next.Equal(rn) {
			t.Fatalf("step %d: next instant %v/%v, reference %v/%v", step, next, ok, rn, rok)
		}
	}
	// Drain both.
	now = now.Add(time.Hour)
	got = got[:0]
	serve()
	if want := ref.serve(now); !equalIDs(got, want) {
		t.Fatalf("drain: delivered %v, reference %v", got, want)
	}
	st := l.Stats()
	if st.OverflowDrops == 0 || st.Delivered == 0 {
		t.Fatalf("run exercised too little: %+v", st)
	}
	if withFaults && ref.faults.Stats().Reordered == 0 {
		t.Fatalf("fault plan never reordered: %+v", ref.faults.Stats())
	}
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLinkClampsPriority: ranks outside [0, maxPriority] join the end
// bands, so a below-range rank is never evicted for an in-range one and
// an above-range rank goes first.
func TestLinkClampsPriority(t *testing.T) {
	now := time.Unix(1000, 0)
	l := initLink(LinkConfig{QueueBytes: 20, Marker: byteMarker{}, Now: func() time.Time { return now }}, nil)
	b := make([]byte, 10)
	putID(b, -7, 1)
	l.send(b, nil)
	putID(b, 9, 2)
	l.send(b, nil)
	putID(b, maxPriority, 3) // evicts the rank-9 datagram, not the rank -7 one
	l.send(b, nil)
	putID(b, 0, 4) // evicts the maxPriority datagram
	l.send(b, nil)
	if got := l.waitingIDs(); !equalIDs(got, []int{1, 4}) {
		t.Fatalf("queue %v, want [1 4]", got)
	}
}

// TestLinkSendZeroAllocs: in steady state a datagram crosses send, the
// marker, the enqueue and an eviction without touching the heap.
func TestLinkSendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	now := time.Unix(1000, 0)
	gw := NewGateway(GatewayConfig{RouterID: 1, Interval: 10 * time.Millisecond, Capacity: 10 * units.Mbps,
		Now: func() time.Time { return now }})
	l := initLink(LinkConfig{
		Bandwidth:  10 * units.Mbps,
		QueueBytes: 8 * MaxDatagram,
		Marker:     gw,
		Now:        func() time.Time { return now },
	}, func(d *dgram, _ net.Addr) { d.release() })
	red := dataDatagram(t, packet.Red, MaxDatagram)
	green := dataDatagram(t, packet.Green, MaxDatagram)
	var batch []outgoing
	// Two reds and a green arrive per transmission time: once the queue
	// is full, one red is dropped on arrival and the green evicts a red.
	step := func() {
		l.send(red, nil)
		l.send(red, nil)
		l.send(green, nil)
		now = now.Add(1200 * time.Microsecond)
		l.mu.Lock()
		l.startDueLocked(now)
		batch = l.takeDueLocked(now, batch[:0])
		l.mu.Unlock()
		for _, o := range batch {
			l.deliver(o.d, o.to)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	before := l.Stats()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("send+enqueue+evict allocates %.2f/step, want 0", allocs)
	}
	if after := l.Stats(); after.OverflowDrops-before.OverflowDrops < 200 {
		t.Fatalf("steady state did not evict: %+v → %+v", before, after)
	}
}

// TestLinkInsertSortedKeepsArrivalOrder: delivery instants sort, and
// equal instants stay in the order they started.
func TestLinkInsertSortedKeepsArrivalOrder(t *testing.T) {
	base := time.Unix(1000, 0)
	var r ring[outgoing]
	for i, ms := range []int{5, 1, 5, 3, 1, 9} {
		insertSorted(&r, outgoing{to: fakeAddr(string(rune('a' + i))), at: base.Add(time.Duration(ms) * time.Millisecond)})
	}
	var got string
	for r.n > 0 {
		got += r.popFront().to.String()
	}
	if got != "bedacf" {
		t.Fatalf("order %q, want bedacf", got)
	}
}

// TestEmulatorPooledBuffersNotReused: every datagram a reader copies out
// is intact, although the link recycles buffers as fast as it can. A
// buffer released while a reader still held it would be rewritten by a
// later datagram: the pattern check fails, and -race reports the
// overlapping accesses.
func TestEmulatorPooledBuffersNotReused(t *testing.T) {
	e := NewEmulator(EmulatorConfig{AtoB: LinkConfig{QueueBytes: 1 << 20}})
	defer e.Close()
	const n = 2000
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, MaxDatagram)
		for i := 0; i < n; i++ {
			k, _, err := e.B().ReadFrom(buf)
			if err != nil {
				done <- err
				return
			}
			if err := checkPattern(buf[:k]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		_, _ = e.A().WriteTo(pattern(i), nil)
		if i%64 == 0 {
			time.Sleep(time.Millisecond) // stay inside the inbox
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader stalled")
	}
}

// TestShapedConnPooledBuffersNotReused: the buffer handed to the inner
// WriteTo stays untouched until that call returns, even while later
// datagrams flow through the link.
func TestShapedConnPooledBuffersNotReused(t *testing.T) {
	inner := &checkConn{}
	s := NewShapedConn(inner, LinkConfig{QueueBytes: 1 << 20})
	const n = 1000
	for i := 0; i < n; i++ {
		_, _ = s.WriteTo(pattern(i), fakeAddr("peer"))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	inner.mu.Lock()
	defer inner.mu.Unlock()
	if inner.err != nil {
		t.Fatal(inner.err)
	}
	if inner.n != n {
		t.Fatalf("inner conn saw %d writes, want %d", inner.n, n)
	}
}

// pattern builds datagram i: a length byte pair and a fill derived from
// i, alternating between the small and the large buffer class.
func pattern(i int) []byte {
	size := 16 + (i*37)%200
	if i%2 == 1 {
		size = smallDgram + 1 + (i*53)%(MaxDatagram-smallDgram-1)
	}
	b := make([]byte, size)
	binary.BigEndian.PutUint32(b, uint32(i))
	for j := 4; j < size; j++ {
		b[j] = byte(i + j)
	}
	return b
}

func checkPattern(b []byte) error {
	if len(b) < 4 {
		return errors.New("short datagram")
	}
	i := int(binary.BigEndian.Uint32(b))
	if want := pattern(i); !bytes.Equal(b, want) {
		return errors.New("datagram damaged after it was queued")
	}
	return nil
}

// checkConn verifies each written datagram twice, before and after a
// pause, so a buffer recycled mid-write is caught.
type checkConn struct {
	captureConn
	mu  sync.Mutex
	n   int
	err error
}

func (c *checkConn) WriteTo(p []byte, _ net.Addr) (int, error) {
	err := checkPattern(p)
	time.Sleep(10 * time.Microsecond)
	if err == nil {
		err = checkPattern(p)
	}
	c.mu.Lock()
	c.n++
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	return len(p), nil
}

// failConn refuses every write.
type failConn struct{ captureConn }

func (*failConn) WriteTo([]byte, net.Addr) (int, error) { return 0, errors.New("no route") }

// TestShapedConnCountsWriteErrors: a write the inner conn refuses is
// counted, not discarded.
func TestShapedConnCountsWriteErrors(t *testing.T) {
	s := NewShapedConn(&failConn{}, LinkConfig{})
	for i := 0; i < 3; i++ {
		if _, err := s.WriteTo([]byte("lost"), fakeAddr("peer")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Delivered != 3 || st.WriteErrors != 3 {
		t.Fatalf("stats %+v, want 3 delivered and 3 write errors", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
