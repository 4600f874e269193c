package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
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

// liveSpec is one live workload's geometry. The stack is wired the way
// cmd/pelsd and cmd/pelsload wire it: Gateway → ShapedConn (or the
// emulator's A→B link) → session.Server ← wire.Swarm.
type liveSpec struct {
	emulated  bool // in-memory wire.Emulator instead of loopback UDP
	receivers int
	sockets   int
	session   session.Config
	capacity  units.BitRate
	queue     int
	epoch     time.Duration
	// Phases: receivers arrive uniformly over ramp (seeded), MKC settles
	// for converge after the last receiver streams, then the window is
	// measured.
	ramp, converge, window time.Duration
}

var liveUDPSmall = liveSpec{
	receivers: 200,
	sockets:   2,
	session: session.Config{
		Frame:         fgs.FrameSpec{PacketSize: 100, TotalPackets: 80, GreenPackets: 1},
		FrameInterval: 60 * time.Millisecond,
		MKC: cc.MKCConfig{
			Alpha:       2 * units.Kbps,
			Beta:        0.5,
			InitialRate: 100 * units.Kbps,
			MinRate:     64 * units.Kbps,
			DedupEpochs: true,
		},
	},
	capacity: 20 * units.Mbps,
	queue:    60000,
	epoch:    50 * time.Millisecond,
	ramp:     time.Second,
	converge: 1500 * time.Millisecond,
	window:   3 * time.Second,
}

var liveEmuLayers8 = liveSpec{
	emulated:  true,
	receivers: 32,
	sockets:   1,
	session: session.Config{
		Frame:         fgs.FrameSpec{PacketSize: wire.MaxDatagram, TotalPackets: 40, GreenPackets: 1},
		FrameInterval: 20 * time.Millisecond,
		Layers:        8,
		MKC: cc.MKCConfig{
			Alpha:       50 * units.Kbps,
			Beta:        0.5,
			InitialRate: 3 * units.Mbps,
			MinRate:     64 * units.Kbps,
			DedupEpochs: true,
		},
	},
	capacity: 100 * units.Mbps,
	queue:    240000,
	epoch:    50 * time.Millisecond,
	ramp:     time.Second,
	converge: 1500 * time.Millisecond,
	window:   3 * time.Second,
}

// rxBufferBytes is the receive buffer each loopback receiver socket
// asks for (the kernel caps it at net.core.rmem_max).
const rxBufferBytes = 4 << 20

// quickened shortens the phases for the benchmark's own smoke tests.
func (s liveSpec) quickened() liveSpec {
	s.ramp, s.converge, s.window = 200*time.Millisecond, 300*time.Millisecond, 700*time.Millisecond
	return s
}

// liveSnap is the state read at each edge of the measured window.
type liveSnap struct {
	at     time.Time
	cpu    time.Duration
	mem    runtime.MemStats
	link   wire.LinkStats
	server session.ServerStats
	bands  map[packet.Color]wire.ColorCount
	fbSent uint64
}

// sampler polls gauges that have no boundary to wrap while the traced
// window runs.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	goroutines, jobs, wheel float64
	lossSum                 float64
	n                       int
}

func startSampler(reg *obs.Registry, srv *session.Server, gw *wire.Gateway) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			s.goroutines = max(s.goroutines, float64(runtime.NumGoroutine()))
			s.jobs = max(s.jobs, reg.Snapshot()["session.jobs_depth"])
			s.wheel = max(s.wheel, float64(srv.Stats().WheelTimers))
			s.lossSum += gw.Loss()
			s.n++
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// runLive is one pass of a live workload: build the stack, let every
// receiver arrive and MKC settle, measure the window, drain, then check
// that every datagram the link delivered is accounted for.
func runLive(spec liveSpec, o options, spawn time.Time, po passOpts) passResult {
	res := newPassResult()
	var tr *tracer
	if po.traced {
		tr = newTracer(1 << 20)
	}
	srvReg := obs.NewRegistry()
	gw := wire.NewGateway(wire.GatewayConfig{RouterID: 1, Interval: spec.epoch, Capacity: spec.capacity})
	var marker wire.Marker = gw
	if tr != nil {
		marker = &markProbe{inner: gw, tr: tr}
	}
	link := wire.LinkConfig{Bandwidth: spec.capacity, QueueBytes: spec.queue, Marker: marker, Seed: o.seed}
	arr := newArrivals(spec.receivers)
	var rx []*rxConn
	wrapRx := func(c net.PacketConn) net.PacketConn {
		// Sized past a window's samples per socket, so recording them
		// allocates nothing inside the window.
		r := &rxConn{PacketConn: c, arr: arr, tr: tr,
			green: make([]int64, 0, 1<<15), all: make([]int64, 0, 1<<17)}
		rx = append(rx, r)
		return r
	}

	var (
		srvConn    net.PacketConn
		out        wire.PacketWriter
		linkStats  func() wire.LinkStats
		closeLink  func()
		listen     func() (net.PacketConn, error)
		overruns   func() uint64
		sock       *sockConn
		snmpBefore udpCounters
	)
	if spec.emulated {
		emu := wire.NewEmulator(wire.EmulatorConfig{AtoB: link})
		srvConn, out = emu.A(), emu.A()
		linkStats = emu.StatsAtoB
		closeLink = func() { _ = emu.Close() }
		listen = func() (net.PacketConn, error) { return wrapRx(emu.B()), nil }
		overruns = func() uint64 {
			if o, ok := emu.B().(interface{ Overruns() uint64 }); ok {
				return o.Overruns()
			}
			return 0
		}
	} else {
		conn, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			res.problem("listen: %v", err)
			return res
		}
		var inner net.PacketConn = conn
		if tr != nil {
			sock = &sockConn{PacketConn: conn, tr: tr}
			inner = sock
		}
		shaped := wire.NewShapedConn(inner, link)
		srvConn, out = conn, shaped
		linkStats = shaped.Stats
		closeLink = func() { _ = shaped.Close() } // drains the link, then closes conn
		listen = func() (net.PacketConn, error) {
			c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				return nil, err
			}
			// The receivers are the load generator: a deep receive
			// buffer keeps a scheduler stall of theirs from dropping at
			// the kernel. Drops that still happen are reported.
			if err := c.SetReadBuffer(rxBufferBytes); err != nil {
				c.Close()
				return nil, err
			}
			return wrapRx(c), nil
		}
		overruns = func() uint64 { return 0 }
		snmpBefore = readUDPCounters()
	}
	serverAddr := srvConn.LocalAddr()

	var clock session.Clock = wire.SystemClock{}
	ow := &outWriter{inner: out, tr: tr}
	ow.dropGreen.Store(po.dropGreen)
	if tr != nil || po.dropGreen > 0 {
		out = ow
	}
	if tr != nil {
		clock = clockProbe{inner: clock, tr: tr}
		srvConn = &demuxConn{PacketConn: srvConn, tr: tr}
	}
	srv, err := session.NewServer(session.ServerConfig{
		Conn:    srvConn,
		Out:     out,
		Clock:   clock,
		Session: spec.session,
		Obs:     srvReg,
	})
	if err != nil {
		closeLink()
		res.problem("server: %v", err)
		return res
	}
	swarm, err := wire.NewSwarm(wire.SwarmConfig{
		Server:    serverAddr,
		Receivers: spec.receivers,
		Sockets:   spec.sockets,
		Seed:      o.seed,
		Ramp:      spec.ramp,
		Listen:    listen,
	}, time.Now())
	if err != nil {
		closeLink()
		res.problem("swarm: %v", err)
		return res
	}

	srvCtx, srvCancel := context.WithCancel(context.Background())
	defer srvCancel()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Run(srvCtx) }()
	swCtx, swCancel := context.WithCancel(context.Background())
	defer swCancel()
	swErr := make(chan error, 1)
	go func() { swErr <- swarm.Run(swCtx) }()

	setupTimeout := time.NewTimer(spec.ramp + 10*time.Second)
	defer setupTimeout.Stop()
	streaming := false
	select {
	case <-arr.done:
		streaming = true
		res.Values["setup_s"] = time.Since(spawn).Seconds()
	case <-setupTimeout.C:
		res.problem("only %d of %d receivers streamed within %v", arr.streamed(), spec.receivers, spec.ramp+10*time.Second)
	}

	var a, b liveSnap
	var prof bytes.Buffer
	var smp *sampler
	if streaming {
		time.Sleep(spec.converge)
		a = snapLive(srv, swarm, linkStats, true)
		for _, c := range rx {
			c.setMeasuring(true)
		}
		if tr != nil {
			smp = startSampler(srvReg, srv, gw)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				res.problem("cpu profile: %v", err)
			}
			tr.on.Store(true)
		}
		time.Sleep(spec.window)
		if tr != nil {
			tr.on.Store(false)
			pprof.StopCPUProfile()
			smp.finish()
		}
		for _, c := range rx {
			c.setMeasuring(false)
		}
		b = snapLive(srv, swarm, linkStats, false)
	}

	// Drain: sessions finish the frame in flight and send Close; the link
	// and sockets then empty into the still-running swarm.
	sdCtx, sdCancel := context.WithTimeout(context.Background(), 3*time.Second)
	if err := srv.Shutdown(sdCtx); err != nil {
		res.problem("drain: %v", err)
	}
	sdCancel()
	srvCancel()
	if err := <-srvErr; err != nil {
		res.problem("server: %v", err)
	}
	time.Sleep(150 * time.Millisecond)
	linkEnd := linkStats()
	rxEnd := sumRx(rx)
	swCancel()
	if err := <-swErr; err != nil {
		res.problem("swarm: %v", err)
	}
	closeLink()
	res.Values["wall_s"] = time.Since(spawn).Seconds()
	res.Values["cpu_s"] = cpuTime().Seconds()

	// Receive-side drops: datagrams the link delivered that no receiver
	// could read. They happen outside the PELS queue.
	var rcvbuf, sndbuf uint64
	if !spec.emulated {
		d := readUDPCounters().sub(snmpBefore)
		rcvbuf, sndbuf = d.rcvbufErrors, d.sndbufErrors
	}
	emuOverruns := overruns()
	var writeErrs uint64
	if sock != nil {
		writeErrs = sock.writeErrs.Load()
	}
	rxDrops := rcvbuf + emuOverruns

	checkLive(&res, spec, swarm.Stats(), linkEnd, rxEnd, rxDrops+sndbuf+writeErrs)
	if rxDrops > 0 {
		res.Flags = append(res.Flags, fmt.Sprintf("generator-limited: %d receive-side drops", rxDrops))
		res.Values["live.generator_limited"] = 1
	} else {
		res.Values["live.generator_limited"] = 0
	}
	res.Values["socket.rcvbuf_errors"] = float64(rcvbuf)
	res.Values["socket.sndbuf_errors"] = float64(sndbuf)
	res.Values["socket.emu_overruns"] = float64(emuOverruns)
	if ms := arr.admitMs(); len(ms) > 0 {
		sort.Float64s(ms)
		res.Values["session.admit.first_data_ms_p99"] = quantile(ms, 0.99)
	}
	if !streaming {
		return res
	}
	windowValues(&res, a, b, rxEnd)
	if tr != nil {
		tracedValues(&res, spec, tr, smp, b.at.Sub(a.at), rxEnd.winData, writeErrs)
		res.addProfile(prof.Bytes())
		name := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
		if err := tr.writeSpans(filepath.Join(o.traceDir, name+".spans.csv")); err != nil {
			res.problem("write spans: %v", err)
		}
		if err := os.WriteFile(filepath.Join(o.traceDir, name+".pprof"), prof.Bytes(), 0o644); err != nil {
			res.problem("write profile: %v", err)
		}
	}
	return res
}

// snapLive reads one edge of the window. CPU time is read innermost, so
// the snapshot's own work falls outside the measured interval.
func snapLive(srv *session.Server, swarm *wire.Swarm, linkStats func() wire.LinkStats, opening bool) liveSnap {
	var s liveSnap
	if !opening {
		s.cpu = cpuTime()
		s.at = time.Now()
	}
	s.link = linkStats()
	s.server = srv.Stats()
	s.bands = map[packet.Color]wire.ColorCount{}
	for _, st := range swarm.Stats() {
		s.fbSent += st.FeedbackSent
		for c, cc := range st.Colors {
			t := s.bands[c]
			t.Received += cc.Received
			t.Lost += cc.Lost
			t.Bytes += cc.Bytes
			s.bands[c] = t
		}
	}
	runtime.ReadMemStats(&s.mem)
	if opening {
		s.at = time.Now()
		s.cpu = cpuTime()
	}
	return s
}

// checkLive applies the output checks: every receiver streamed, no
// cross-session bleed, every datagram the link delivered was read (or
// dropped on the receive side), and no base-layer loss beyond what the
// receive side dropped.
func checkLive(res *passResult, spec liveSpec, stats []wire.SwarmReceiverStats, link wire.LinkStats, rx rxTotals, drops uint64) {
	var streamed int
	var regress, cross, received uint64
	var green wire.ColorCount
	for _, st := range stats {
		if st.Datagrams > 0 {
			streamed++
		}
		regress += st.SeqRegressions
		cross += st.CrossDeliveries
		for _, cc := range st.Colors {
			received += cc.Received
		}
		g := st.Colors[packet.Green]
		green.Received += g.Received
		green.Lost += g.Lost
	}
	if streamed != spec.receivers {
		res.problem("%d of %d receivers streamed", streamed, spec.receivers)
	}
	if regress > 0 || cross > 0 {
		res.problem("session bleed: %d sequence regressions, %d cross-socket deliveries", regress, cross)
	}
	if received != rx.dataReads-rx.lateData {
		res.problem("receivers counted %d data datagrams, their sockets read %d (%d after their session's Close)",
			received, rx.dataReads, rx.lateData)
	}
	// On loopback UDP control datagrams bypass the shaped link; on the
	// emulator they cross it.
	read := rx.dataReads
	if spec.emulated {
		read += rx.ctlReads
	}
	if read > link.Delivered || link.Delivered-read > drops {
		res.problem("link delivered %d datagrams, receivers read %d with %d receive-side drops", link.Delivered, read, drops)
	}
	res.Attempted += int64(green.Received + green.Lost)
	res.Failed += int64(green.Lost)
	if green.Lost > drops {
		res.problem("%d base-layer datagrams lost, only %d receive-side drops", green.Lost, drops)
	}
}

// windowValues computes the end-to-end and untraced per-layer figures of
// the measured window.
func windowValues(res *passResult, a, b liveSnap, rx rxTotals) {
	secs := b.at.Sub(a.at).Seconds()
	n := float64(rx.winData)
	v := res.Values
	v["cpu_ns_per_op"] = ratio(float64(b.cpu-a.cpu), n)
	v["ops_per_s"] = ratio(n, secs)
	v["latency_p50_ms"] = quantile(rx.green, 0.50) / 1e6
	v["latency_p99_ms"] = quantile(rx.green, 0.99) / 1e6
	v["live.delay_p99_ms"] = quantile(rx.all, 0.99) / 1e6
	v["live.green_delay_samples"] = float64(len(rx.green))
	v["live.goodput_mbps"] = ratio(float64(rx.winPayloadBytes)*8, secs) / 1e6
	v["runtime.allocs_per_datagram"] = ratio(float64(b.mem.Mallocs-a.mem.Mallocs), n)
	v["runtime.bytes_per_datagram"] = ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), n)
	v["runtime.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	v["runtime.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	enq := float64(b.link.Enqueued - a.link.Enqueued)
	del := float64(b.link.Delivered - a.link.Delivered)
	v["wire.link.enqueued"] = enq
	v["wire.link.delivered"] = del
	v["wire.link.overflow_drops"] = float64(b.link.OverflowDrops - a.link.OverflowDrops)
	v["wire.link.useful_ratio"] = ratio(del, enq)
	loss := map[packet.Color]float64{}
	for _, c := range []packet.Color{packet.Green, packet.Yellow, packet.Red} {
		rcv := float64(b.bands[c].Received - a.bands[c].Received)
		lost := float64(b.bands[c].Lost - a.bands[c].Lost)
		loss[c] = ratio(lost, rcv+lost)
		v["wire.band."+strings.ToLower(c.String())+"_loss"] = loss[c]
	}
	if loss[packet.Green] > loss[packet.Yellow] {
		// PELS drops yellow before green, so base-layer loss above
		// enhancement loss happened outside the PELS queue.
		res.Flags = append(res.Flags, "green loss exceeds yellow loss: loss outside the PELS queue")
		v["live.green_loss_over_yellow"] = 1
	} else {
		v["live.green_loss_over_yellow"] = 0
	}
	v["swarm.feedback_per_s"] = ratio(float64(b.fbSent-a.fbSent), secs)
	v["session.feedback.items_per_batch"] = ratio(
		float64(b.server.FeedbackItems-a.server.FeedbackItems),
		float64(b.server.FeedbackBatches-a.server.FeedbackBatches))
}

// tracedValues computes the span, sampler and self-time figures of a
// traced window.
func tracedValues(res *passResult, spec liveSpec, tr *tracer, smp *sampler, window time.Duration, delivered, writeErrs uint64) {
	st := tr.summarize()
	secs := window.Seconds()
	n := float64(delivered)
	v := res.Values
	p50 := func(k spanKind) float64 { return quantile(st.durs[k], 0.50) }
	v["trace.spans"] = float64(len(tr.recorded()))
	v["trace.spans_dropped"] = float64(tr.dropped())
	v["wire.link.send_ns_p50"] = p50(spanLinkWrite)
	v["wire.link.send_ns_p99"] = quantile(st.durs[spanLinkWrite], 0.99)
	v["wire.gateway.mark_ns_p50"] = p50(spanMark)
	v["wire.gateway.priority_ns_p50"] = p50(spanPriority)
	if !spec.emulated {
		// A kernel socket exists only on the loopback workload.
		v["socket.send_calls_per_datagram"] = ratio(float64(st.calls[spanSocketSend]), n)
		v["socket.send_ns_p50"] = p50(spanSocketSend)
		v["socket.recv_calls_per_datagram"] = ratio(float64(st.calls[spanSwarmRead]), n)
		v["socket.write_errors"] = float64(writeErrs)
	}
	v["session.demux.datagrams_per_s"] = ratio(float64(len(st.durs[spanDemuxRead])), secs)
	v["session.demux.read_ns_p50"] = p50(spanDemuxRead)
	v["session.driver.sleeps_per_s"] = ratio(float64(st.calls[spanDriverSleep]), secs)
	v["session.driver.oversleep_us_p99"] = quantile(st.oversleep, 0.99) / 1e3
	v["swarm.read_ns_p50"] = p50(spanSwarmRead)
	var sendPath float64
	for _, k := range sendPathSpans {
		self := ratio(float64(st.self[k]), n)
		v["trace."+spanNames[k]+".self_ns_per_datagram"] = self
		sendPath += self
	}
	v["trace."+spanNames[spanSwarmWrite]+".self_ns_per_datagram"] = ratio(float64(st.self[spanSwarmWrite]), n)
	v["trace.send_path.self_ns_per_datagram"] = sendPath
	v["runtime.goroutines_max"] = smp.goroutines
	v["session.jobs_depth_max"] = smp.jobs
	v["session.wheel_timers_max"] = smp.wheel
	v["wire.gateway.loss_mean"] = ratio(smp.lossSum, float64(smp.n))
}

// udpCounters are the kernel's UDP drop counters (/proc/net/snmp).
type udpCounters struct{ rcvbufErrors, sndbufErrors uint64 }

func (c udpCounters) sub(o udpCounters) udpCounters {
	return udpCounters{c.rcvbufErrors - o.rcvbufErrors, c.sndbufErrors - o.sndbufErrors}
}

func readUDPCounters() udpCounters {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return udpCounters{}
	}
	defer f.Close()
	var names []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if names == nil {
			names = fields
			continue
		}
		var c udpCounters
		for i := 1; i < len(fields) && i < len(names); i++ {
			v, _ := strconv.ParseUint(fields[i], 10, 64)
			switch names[i] {
			case "RcvbufErrors":
				c.rcvbufErrors = v
			case "SndbufErrors":
				c.sndbufErrors = v
			}
		}
		return c
	}
	return udpCounters{}
}
