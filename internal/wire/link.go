package wire

import (
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/units"
)

// Marker is installed on a link to act as the router of the live stack:
// it sees every datagram entering the link, may rewrite it (feedback
// stamping), and ranks datagrams so congestion drops follow the PELS
// priority order. Gateway is the canonical implementation.
type Marker interface {
	// Mark processes a datagram about to enter the link queue. It may
	// mutate b in place; returning drop=true discards the datagram.
	Mark(b []byte) (drop bool)
	// Priority ranks a datagram for congestion drops: lower values are
	// more important and are evicted last.
	Priority(b []byte) int
}

// LinkConfig shapes one direction of an emulated link (or the outbound
// software bottleneck of cmd/pelsd).
type LinkConfig struct {
	// Bandwidth is the serialization rate; 0 means infinitely fast.
	Bandwidth units.BitRate
	// Delay is the one-way propagation delay added after serialization.
	Delay time.Duration
	// QueueBytes bounds the buffer ahead of the serializer; 0 selects
	// DefaultQueueBytes. When the buffer is full the lowest-priority
	// datagram (per Marker.Priority; the arrival, if no Marker) is
	// dropped — the live analogue of the strict-priority PELS queue.
	QueueBytes int
	// Loss is an i.i.d. random loss probability in [0,1], applied on
	// entry. Given a fixed Seed the loss pattern is a deterministic
	// function of the datagram arrival sequence.
	Loss float64
	// Seed seeds the loss process.
	Seed int64
	// Marker, if non-nil, stamps and classifies datagrams (the router).
	Marker Marker
	// Faults, if non-nil, applies a scheduled fault plan to every
	// datagram entering the link. Effects run after marking (a router
	// stamps before the wire damages), with time measured as the offset
	// from link creation on the link's clock. Do not share one injector
	// between links: its random stream would entangle their decisions.
	Faults *fault.Injector
	// Now overrides the clock used for arrival stamps and the fault
	// schedule; nil means time.Now. Tests inject a synthetic clock here.
	Now func() time.Time
}

// DefaultQueueBytes is the buffer used when LinkConfig.QueueBytes is 0.
const DefaultQueueBytes = 64 << 10

// LinkStats counts what a link did to the datagrams offered to it.
type LinkStats struct {
	// Enqueued datagrams entered the queue.
	Enqueued uint64
	// Delivered datagrams reached the far end.
	Delivered uint64
	// RandomDrops were lost to the i.i.d. loss process.
	RandomDrops uint64
	// OverflowDrops were evicted by the full queue (congestion loss).
	OverflowDrops uint64
	// MarkerDrops were discarded by the Marker.
	MarkerDrops uint64
	// FaultDrops were discarded by the fault injector (burst loss, link
	// flaps, feedback starvation). Other fault effects are counted by the
	// injector itself (fault.Injector.Stats).
	FaultDrops uint64
}

// queued is one datagram waiting for the serializer.
type queued struct {
	b     []byte
	to    net.Addr
	prio  int
	at    time.Time     // arrival instant, anchors the serialization deadline
	extra time.Duration // fault-injected extra propagation delay (reordering)
}

// link shapes datagrams through loss → marking → bounded priority queue →
// serialization at Bandwidth → propagation Delay → deliver. Serialization
// and delivery run on two goroutines with absolute-time deadlines, so
// sleep overshoot never reduces throughput below the configured rate and
// delivery order always matches queue order.
type link struct {
	cfg     LinkConfig
	deliver func(b []byte, to net.Addr)

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []queued
	bytes  int
	rng    *rand.Rand
	stats  LinkStats
	closed bool
	start  time.Time // link creation; anchors the fault schedule

	outMu   sync.Mutex
	outCond *sync.Cond
	out     []outgoing
	outDone bool

	wg sync.WaitGroup
}

// outgoing is a serialized datagram waiting out its propagation delay.
type outgoing struct {
	b  []byte
	to net.Addr
	at time.Time // delivery instant
}

func newLink(cfg LinkConfig, deliver func(b []byte, to net.Addr)) *link {
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	l := &link{
		cfg:     cfg,
		deliver: deliver,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		start:   cfg.Now(),
	}
	l.cond = sync.NewCond(&l.mu)
	l.outCond = sync.NewCond(&l.outMu)
	l.wg.Add(2)
	go l.serialize()
	go l.propagate()
	return l
}

// send offers one datagram to the link. The buffer is copied, so callers
// may reuse b immediately. to is carried through to the deliver callback.
func (l *link) send(b []byte, to net.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	if l.cfg.Loss > 0 && l.rng.Float64() < l.cfg.Loss {
		l.stats.RandomDrops++
		return
	}
	c := make([]byte, len(b))
	copy(c, b)
	if l.cfg.Marker != nil {
		if drop := l.cfg.Marker.Mark(c); drop {
			l.stats.MarkerDrops++
			return
		}
	}
	q := queued{b: c, to: to, at: l.cfg.Now()}
	if l.cfg.Marker != nil {
		q.prio = l.cfg.Marker.Priority(c)
	}
	if l.cfg.Faults != nil {
		// After marking: the router stamps before the wire damages, so
		// corruption cannot be healed by a later stamp and a stripped
		// label stays stripped.
		d := l.cfg.Faults.Filter(q.at.Sub(l.start), fault.Packet{Size: len(c), Class: classify(c)})
		if d.Drop {
			l.stats.FaultDrops++
			return
		}
		if d.StripFeedback {
			_ = ClearFeedback(c) // non-PELS datagrams have nothing to strip
		}
		if d.Corrupt {
			fault.Scramble(c, d.Bits)
		}
		q.extra = d.ExtraDelay
		if d.Duplicate {
			dup := q
			dup.b = append([]byte(nil), c...)
			l.enqueueLocked(dup)
		}
	}
	l.enqueueLocked(q)
}

// enqueueLocked admits q to the bounded queue, evicting to make room.
// Callers hold l.mu.
func (l *link) enqueueLocked(q queued) {
	// Make room: evict from the least important end first. Scanning from
	// the tail prefers dropping the newest datagram among equals, the
	// closest live analogue of tail drop within a priority class. If the
	// arrival itself is least important, it is the one dropped.
	for l.bytes+len(q.b) > l.cfg.QueueBytes && len(l.queue) > 0 {
		worst, worstIdx := q.prio, -1
		for i := len(l.queue) - 1; i >= 0; i-- {
			if l.queue[i].prio > worst {
				worst, worstIdx = l.queue[i].prio, i
			}
		}
		if worstIdx < 0 {
			l.stats.OverflowDrops++
			return // arrival is the least important datagram present
		}
		l.bytes -= len(l.queue[worstIdx].b)
		l.queue = append(l.queue[:worstIdx], l.queue[worstIdx+1:]...)
		l.stats.OverflowDrops++
	}
	// If the queue is empty and the datagram alone exceeds it, admit it
	// anyway so a tiny queue cannot starve the link forever.
	l.queue = append(l.queue, q)
	l.bytes += len(q.b)
	l.stats.Enqueued++
	l.cond.Signal()
}

// classify maps a datagram onto the traffic classes the fault injector
// distinguishes. No CRC check here — a datagram corrupted by an earlier
// event is classified by its (possibly damaged) type byte, exactly as a
// confused middlebox would.
func classify(b []byte) fault.Class {
	t, ok := PeekType(b)
	switch {
	case !ok:
		return fault.ClassOther
	case t == TypeData:
		return fault.ClassData
	case t == TypeFeedback:
		return fault.ClassFeedback
	default:
		return fault.ClassOther
	}
}

// serialize drains the queue at Bandwidth. Transmission deadlines are
// anchored to datagram arrival times, never to the goroutine's wake-up
// time: the wire is idle only while no datagram is queued, so sleep
// overshoot delays individual deliveries but can never reduce long-run
// throughput below the configured rate (oversleeping one datagram makes
// the next deadlines already due, and they are sent back to back).
func (l *link) serialize() {
	defer l.wg.Done()
	var busyUntil time.Time
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			l.outMu.Lock()
			l.outDone = true
			l.outCond.Signal()
			l.outMu.Unlock()
			return
		}
		q := l.queue[0]
		l.queue = l.queue[1:]
		l.bytes -= len(q.b)
		l.mu.Unlock()

		if l.cfg.Bandwidth > 0 {
			if busyUntil.Before(q.at) {
				busyUntil = q.at // wire sat idle until this datagram arrived
			}
			busyUntil = busyUntil.Add(l.cfg.Bandwidth.TransmissionTime(len(q.b)))
			sleepUntil(busyUntil)
		} else {
			busyUntil = q.at
		}
		o := outgoing{b: q.b, to: q.to, at: busyUntil.Add(l.cfg.Delay + q.extra)}
		l.outMu.Lock()
		// Insert sorted by delivery instant: a fault-delayed datagram slots
		// behind later traffic, which is what makes the delay a reordering.
		i := sort.Search(len(l.out), func(i int) bool { return l.out[i].at.After(o.at) })
		l.out = append(l.out, outgoing{})
		copy(l.out[i+1:], l.out[i:])
		l.out[i] = o
		l.outCond.Signal()
		l.outMu.Unlock()
	}
}

// propagate delivers serialized datagrams at their absolute delivery
// instants. Without faults the delivery instants are monotone (busyUntil
// is); a fault-injected extra delay breaks monotonicity deliberately, and
// the sorted insert in serialize turns it into real reordering.
func (l *link) propagate() {
	defer l.wg.Done()
	for {
		l.outMu.Lock()
		for len(l.out) == 0 && !l.outDone {
			l.outCond.Wait()
		}
		if len(l.out) == 0 && l.outDone {
			l.outMu.Unlock()
			return
		}
		o := l.out[0]
		l.out = l.out[1:]
		l.outMu.Unlock()

		sleepUntil(o.at)
		// Count before delivering: once a reader holds the datagram, the
		// counter must already include it.
		l.mu.Lock()
		l.stats.Delivered++
		l.mu.Unlock()
		l.deliver(o.b, o.to)
	}
}

// Stats returns a snapshot of the link counters.
func (l *link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// close stops accepting datagrams; queued ones still drain. wait blocks
// until both pipeline goroutines exit.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *link) wait() { l.wg.Wait() }

// sleepUntil sleeps until the absolute instant t (no-op if past).
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
