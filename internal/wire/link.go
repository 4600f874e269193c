package wire

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/units"
)

// Marker is installed on a link to act as the router of the live stack:
// it sees every datagram entering the link, may rewrite it (feedback
// stamping), and ranks datagrams so congestion drops follow the PELS
// priority order. Gateway is the canonical implementation.
//
// Both methods get the link's own copy of the datagram, which returns to
// a buffer pool once delivered or dropped: an implementation must not
// retain b (or any slice of it) after the call returns.
type Marker interface {
	// Mark processes a datagram about to enter the link queue. It may
	// mutate b in place; returning drop=true discards the datagram.
	Mark(b []byte) (drop bool)
	// Priority ranks a datagram for congestion drops: lower values are
	// more important and are evicted last. The link keeps one queue per
	// rank in [0, 4] (Gateway uses all five: control, green, yellow,
	// red, best effort); values outside the range are clamped into it.
	Priority(b []byte) int
}

// maxPriority is the least important rank a link distinguishes.
const maxPriority = 4

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
	// Now overrides the link's clock (arrival stamps, the fault schedule
	// and the release instants); nil means time.Now. The link sleeps real
	// time until its next release, so an injected clock must advance at
	// wall-clock pace.
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
	// WriteErrors are delivered datagrams the socket under a ShapedConn
	// refused to write (they are also counted in Delivered). Always 0
	// for an Emulator.
	WriteErrors uint64
}

// dgram is a link-owned copy of one datagram. Buffers come from two
// size-classed pools: a small class for control datagrams and short
// payloads, and a MaxDatagram class for full video datagrams. One class
// alone would either waste memory on small traffic or miss large ones.
type dgram struct {
	b []byte
}

// smallDgram is the capacity of the small buffer class.
const smallDgram = 256

var (
	smallDgrams = sync.Pool{New: func() any { return &dgram{b: make([]byte, 0, smallDgram)} }}
	largeDgrams = sync.Pool{New: func() any { return &dgram{b: make([]byte, 0, MaxDatagram)} }}
)

// newDgram returns a buffer holding a copy of b. Oversized datagrams get
// a buffer of their own that release does not recycle.
func newDgram(b []byte) *dgram {
	var d *dgram
	switch {
	case len(b) <= smallDgram:
		d = smallDgrams.Get().(*dgram)
	case len(b) <= MaxDatagram:
		d = largeDgrams.Get().(*dgram)
	default:
		d = &dgram{b: make([]byte, 0, len(b))}
	}
	d.b = append(d.b[:0], b...)
	return d
}

// release returns d to its pool. The caller must not touch d afterwards.
func (d *dgram) release() {
	switch cap(d.b) {
	case smallDgram:
		smallDgrams.Put(d)
	case MaxDatagram:
		largeDgrams.Put(d)
	}
}

// queued is one datagram waiting for the serializer.
type queued struct {
	d     *dgram
	to    net.Addr
	prio  int
	seq   uint64        // arrival order across all priority bands
	at    time.Time     // arrival instant, anchors the serialization deadline
	extra time.Duration // fault-injected extra propagation delay (reordering)
}

// outgoing is a serialized datagram waiting out its propagation delay.
type outgoing struct {
	d  *dgram
	to net.Addr
	at time.Time // delivery instant
}

// link shapes datagrams through loss → marking → bounded priority queue →
// serialization at Bandwidth → propagation Delay → deliver.
//
// The queue keeps one FIFO per priority rank; every entry carries its
// arrival sequence number. The serializer takes the band head with the
// lowest sequence number (FIFO service across priorities), and a full
// queue evicts the tail of the worst non-empty band, so both are O(1).
//
// One goroutine (run) does all timed work. Each wake takes the lock
// once: it starts every datagram whose start instant max(busyUntil,
// arrival) has passed, stamps its delivery instant busyUntil + Delay +
// extra, and takes every datagram whose delivery instant has passed,
// then hands that batch to deliver outside the lock and sleeps until the
// next instant. Deadlines are absolute and anchored at arrival, so a late
// wake delays individual deliveries but never lowers the long-run rate.
//
// deliver owns each buffer it is handed and must release it.
type link struct {
	cfg     LinkConfig
	deliver func(d *dgram, to net.Addr)
	start   time.Time     // link creation; anchors the fault schedule
	wake    chan struct{} // one slot: send and close cut run's sleep short
	done    chan struct{} // closed when run returns

	mu        sync.Mutex
	bands     [maxPriority + 1]ring[queued] //pelsvet:guards mu
	waiting   int                           //pelsvet:guards mu — datagrams across bands
	bytes     int                           //pelsvet:guards mu — their total size
	seq       uint64                        //pelsvet:guards mu — last arrival sequence number
	busyUntil time.Time                     //pelsvet:guards mu — end of the last started transmission
	flight    ring[outgoing]                //pelsvet:guards mu — started, sorted by delivery instant
	rng       *rand.Rand                    //pelsvet:guards mu
	stats     LinkStats                     //pelsvet:guards mu
	closed    bool                          //pelsvet:guards mu
}

func newLink(cfg LinkConfig, deliver func(d *dgram, to net.Addr)) *link {
	l := initLink(cfg, deliver)
	go l.run()
	return l
}

// initLink builds a link without starting its goroutine, so tests can
// step the queue on an injected clock.
func initLink(cfg LinkConfig, deliver func(d *dgram, to net.Addr)) *link {
	if cfg.QueueBytes <= 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &link{
		cfg:     cfg,
		deliver: deliver,
		start:   cfg.Now(),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// send offers one datagram to the link. The buffer is copied, so callers
// may reuse b immediately. to is carried through to the deliver callback.
//
//pelsvet:noalloc
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
	d := newDgram(b)
	q := queued{d: d, to: to, at: l.cfg.Now()}
	if m := l.cfg.Marker; m != nil {
		if drop := m.Mark(d.b); drop {
			l.stats.MarkerDrops++
			d.release()
			return
		}
		q.prio = clampPriority(m.Priority(d.b))
	}
	if l.cfg.Faults != nil {
		// After marking: the router stamps before the wire damages, so
		// corruption cannot be healed by a later stamp and a stripped
		// label stays stripped.
		fd := l.cfg.Faults.Filter(q.at.Sub(l.start), fault.Packet{Size: len(d.b), Class: classify(d.b)})
		if fd.Drop {
			l.stats.FaultDrops++
			d.release()
			return
		}
		if fd.StripFeedback {
			_ = ClearFeedback(d.b) // non-PELS datagrams have nothing to strip
		}
		if fd.Corrupt {
			fault.Scramble(d.b, fd.Bits)
		}
		q.extra = fd.ExtraDelay
		if fd.Duplicate {
			dup := q
			dup.d = newDgram(d.b)
			l.enqueueLocked(dup)
		}
	}
	l.enqueueLocked(q)
}

// clampPriority folds a Marker rank into the bands a link keeps.
func clampPriority(p int) int {
	if p < 0 {
		return 0
	}
	if p > maxPriority {
		return maxPriority
	}
	return p
}

// enqueueLocked admits q to the bounded queue, evicting to make room.
// Callers hold l.mu.
//
//pelsvet:noalloc
func (l *link) enqueueLocked(q queued) {
	// Make room: evict the newest datagram of the worst band strictly
	// worse than the arrival — tail drop within a priority class. If no
	// queued datagram ranks below the arrival, the arrival is dropped.
	size := len(q.d.b)
	for l.bytes+size > l.cfg.QueueBytes && l.waiting > 0 {
		w := maxPriority
		for l.bands[w].n == 0 {
			w--
		}
		if w <= q.prio {
			l.stats.OverflowDrops++
			q.d.release()
			return
		}
		ev := l.bands[w].popBack()
		l.waiting--
		l.bytes -= len(ev.d.b)
		ev.d.release()
		l.stats.OverflowDrops++
	}
	// If the queue is empty and the datagram alone exceeds it, admit it
	// anyway so a tiny queue cannot starve the link forever.
	wasEmpty := l.waiting == 0
	l.seq++
	q.seq = l.seq
	l.bands[q.prio].push(q)
	l.waiting++
	l.bytes += size
	l.stats.Enqueued++
	// A non-empty queue already has run awake by its head's start
	// instant, which no later arrival precedes; only a new head can move
	// run's next instant earlier.
	if wasEmpty {
		l.kick()
	}
}

// kick wakes run if it sleeps; a wake already pending is enough.
func (l *link) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// headBandLocked returns the band holding the oldest queued datagram.
// Callers hold l.mu and have checked l.waiting > 0.
func (l *link) headBandLocked() int {
	best := -1
	for p := range l.bands {
		if l.bands[p].n > 0 && (best < 0 || l.bands[p].front().seq < l.bands[best].front().seq) {
			best = p
		}
	}
	return best
}

// startAtLocked is the instant the oldest queued datagram starts
// transmitting: when it arrived, or when the wire frees up.
func (l *link) startAtLocked(q *queued) time.Time {
	if l.cfg.Bandwidth > 0 && l.busyUntil.After(q.at) {
		return l.busyUntil
	}
	return q.at
}

// startDueLocked moves every queued datagram whose start instant is not
// after now from the evictable queue onto the wire, stamping its
// delivery instant. Callers hold l.mu.
func (l *link) startDueLocked(now time.Time) {
	for l.waiting > 0 {
		band := &l.bands[l.headBandLocked()]
		start := l.startAtLocked(band.front())
		if start.After(now) {
			return
		}
		q := band.popFront()
		l.waiting--
		l.bytes -= len(q.d.b)
		l.busyUntil = start
		if l.cfg.Bandwidth > 0 {
			l.busyUntil = start.Add(l.cfg.Bandwidth.TransmissionTime(len(q.d.b)))
		}
		// Insert sorted by delivery instant (after equal instants): a
		// fault-delayed datagram slots behind later traffic, which is
		// what makes the delay a reordering.
		insertSorted(&l.flight, outgoing{d: q.d, to: q.to, at: l.busyUntil.Add(l.cfg.Delay + q.extra)})
	}
}

// takeDueLocked appends every datagram whose delivery instant is not
// after now to batch and counts it delivered: once a reader holds the
// datagram, the counter must already include it. Callers hold l.mu.
func (l *link) takeDueLocked(now time.Time, batch []outgoing) []outgoing {
	for l.flight.n > 0 && !l.flight.front().at.After(now) {
		batch = append(batch, l.flight.popFront())
	}
	l.stats.Delivered += uint64(len(batch))
	return batch
}

// nextLocked returns the earliest instant at which run has work: the
// next delivery or the next transmission start. ok is false when the
// link holds no datagram at all.
func (l *link) nextLocked() (next time.Time, ok bool) {
	if l.flight.n > 0 {
		next, ok = l.flight.front().at, true
	}
	if l.waiting > 0 {
		s := l.startAtLocked(l.bands[l.headBandLocked()].front())
		if !ok || s.Before(next) {
			next, ok = s, true
		}
	}
	return next, ok
}

// run is the link's one goroutine: it releases due datagrams in batches
// and sleeps on a single reusable timer until the next due instant, or
// until send or close kicks it. It returns once the link is closed and
// empty.
func (l *link) run() {
	defer close(l.done)
	timer := time.NewTimer(time.Hour)
	stopTimer(timer)
	var batch []outgoing
	for {
		l.mu.Lock()
		now := l.cfg.Now()
		l.startDueLocked(now)
		batch = l.takeDueLocked(now, batch[:0])
		next, pending := l.nextLocked()
		exit := l.closed && !pending
		l.mu.Unlock()

		for i := range batch {
			l.deliver(batch[i].d, batch[i].to)
			batch[i] = outgoing{} // drop references for the collector
		}
		if exit {
			return
		}
		if !pending {
			<-l.wake
			continue
		}
		d := next.Sub(l.cfg.Now())
		if d <= 0 {
			continue
		}
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-l.wake:
			stopTimer(timer)
		}
	}
}

// stopTimer stops t and empties its channel, so a Reset starts clean.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
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

// countWriteError records a delivered datagram the far end failed to
// write.
func (l *link) countWriteError() {
	l.mu.Lock()
	l.stats.WriteErrors++
	l.mu.Unlock()
}

// Stats returns a snapshot of the link counters.
func (l *link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// close stops accepting datagrams; queued ones still drain. wait blocks
// until the link's goroutine exits.
func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.kick()
}

func (l *link) wait() { <-l.done }

// ring is a FIFO with O(1) push and pop at both ends. Its backing array
// only grows (to the next power of two), so a link in steady state never
// allocates.
type ring[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int
	n    int
}

func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) front() *T { return r.at(0) }

//pelsvet:noalloc
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	*r.at(r.n) = v
	r.n++
}

//pelsvet:noalloc
func (r *ring[T]) popFront() T {
	var zero T
	p := r.at(0)
	v := *p
	*p = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

//pelsvet:noalloc
func (r *ring[T]) popBack() T {
	var zero T
	p := r.at(r.n - 1)
	v := *p
	*p = zero
	r.n--
	return v
}

func (r *ring[T]) grow() {
	buf := make([]T, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}

// insertSorted pushes o onto r and moves it ahead of every later
// delivery instant; equal instants keep arrival order. Without fault
// delays the instants are monotone and the insert is a plain push.
//
//pelsvet:noalloc
func insertSorted(r *ring[outgoing], o outgoing) {
	r.push(o)
	for i := r.n - 1; i > 0 && r.at(i-1).at.After(o.at); i-- {
		*r.at(i) = *r.at(i - 1)
		*r.at(i - 1) = o
	}
}
