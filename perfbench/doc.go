// Command perfbench is the repository's end-to-end benchmark. PELS makes
// one promise — congestion takes enhancement packets and never the base
// layer — and serves two groups of users: people reproducing the paper,
// who wait on the simulator, and operators of pelsd, who pay CPU per
// datagram and watch base-layer delay. perfbench measures what each of
// them sees, and how each layer of the stack contributes to it.
//
// Run it from the repository root (perfbench/run.sh builds it first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It prints a report line (run metadata: GOOS/GOARCH, CPU model, nproc,
// GOMAXPROCS, Go version, seed, commit; every check's findings; each
// pass's own figures) and then, as the last line, the result:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// The benchmark calls only the program's public functions:
// experiments.Lookup(name).Run(seed), and the same Gateway →
// ShapedConn/Emulator → session.Server ← wire.Swarm wiring cmd/pelsd and
// cmd/pelsload use. Each layer is measured from outside, through the
// interfaces the stack already accepts (ServerConfig.Conn/Out/Clock/Obs,
// LinkConfig.Marker, the socket under ShapedConn, SwarmConfig.Listen).
//
// # Passes
//
// Each pass runs in a fresh process, so process start-up is part of
// every pass and each pass's peak RSS is its own. An untraced run
// (--trace 0) makes passes until the --seconds budget is spent and
// reports the median of each end-to-end metric over its passes (for
// sim-repro's latency_p99_ms, the slowest pass). A traced run (--trace
// 1) makes one untraced and one traced pass and reports the per-layer
// metrics. All passes of a run use the run's seed, so they see
// the same inputs; sim-repro's passes must print identical output.
//
// # Workloads
//
// sim-repro runs every deterministic registry experiment in order in one
// process: table1 fig2 fig3 fig5 fig7 fig8 fig9 fig10 ablations
// multibottleneck utilization isolation controllers rttfairness mixed
// chaos-testbed nlayer-testbed rdscaling. wire-loopback, chaos-wire and
// overload-wire run on the wall clock and are left out. This is what a
// reproduction user waits on; it loads sim, netsim, queue, aqm, cc, pels,
// fgs and tcp, and no live layer runs. The seed is the experiment seed.
//
// live-udp-small streams to 200 receivers on 2 loopback UDP sockets: the
// classic 3 layers, 100-byte datagrams (the smallest size, where
// per-datagram cost dominates), 80 packets per frame with 1 green, 60 ms
// frames, a 20 Mbps shaped bottleneck with a 60000-byte queue, a 50 ms
// gateway epoch, and MKC α=2 kbps, β=0.5 from 100 kbps (minimum 64
// kbps). It loads the socket layer, the session demux, wheel, batcher and
// pump across many sessions, and the classic planner. It is the CI
// load-smoke frame geometry scaled to what 2 vCPUs drive without the
// receivers falling behind: at 500 receivers the kernel dropped datagrams
// at the receive side, which measures the scheduler, not the server.
// Its receiver sockets ask for a 4 MiB receive buffer, so a brief stall
// of the receivers queues datagrams instead of dropping them.
//
// live-emu-layers8 streams to 32 receivers over the in-memory
// wire.Emulator, whose A→B link is the bottleneck (Marker = Gateway) at
// 100 Mbps with a 240000-byte queue: the 8-layer ladder of scalable
// (SHVC) bitstreams, 1460-byte datagrams (wire.MaxDatagram), 40 packets
// per frame with 1 base-layer packet, 20 ms frames, MKC α=50 kbps from 3
// Mbps. Base-layer demand (about 19 Mbps) stays under capacity. There
// are no kernel sockets, so a socket-batching change should leave this
// workload unchanged; the largest datagrams load the per-byte costs
// (copy, CRC); enhancement layers are evicted heavily, the layer planner
// (PlanLayersInto, Ladder) replaces PlanShare, and few sessions leave the
// table, wheel and batcher nearly idle.
//
// Both live workloads are open loop at the datagram level — the server
// paces on its own clock — and receivers arrive on a seeded 1 s ramp;
// rate control is closed loop through MKC feedback. The seed is the
// arrival-jitter seed. A pass waits for every receiver's first data,
// lets MKC settle for 1.5 s and measures a 3 s window. Throughput is
// reported at this fixed offered load together with its CPU cost, not as
// a saturation search: driven to saturation the box delivered 543k to
// 944k datagrams per 12 s across three runs, too wide to compare.
//
// # End-to-end metrics
//
// Every untraced run prints each of them, for every workload. sim-repro
// is CPU-bound, so its times are process CPU time (user+system, which
// includes the garbage collector's parallel work): on a shared 2-vCPU
// host, time stolen by other tenants stretched its wall time from 7.5 s
// to 13.7 s between consecutive runs while its CPU time moved 20%. The
// live workloads pace themselves on the wall clock with CPU to spare, so
// their times are wall time. Each pass's wall time is in the report.
//
// CPU times on that host drift by 10 to 20% over minutes, with every
// experiment and both live workloads moving together: memory-bound code
// slows while a compute-bound loop stays within 1%. Passes within one run
// mostly agree, so longer runs do not narrow the spread between runs, and
// a reference loop timed in the same pass did not follow the drift
// closely enough to divide it out. Over ten runs the CPU metrics' spread
// (interquartile range over median) was 0.06 to 0.13 in a calm hour and
// 0.17 to 0.21 in a busy one.
//
//   - cpu_s: process CPU of one pass, from process start, so init-time
//     work cannot hide. sim-repro: up to the end of the experiment set.
//     Live: up to the end of the drain.
//   - setup_s: set-up time. sim-repro: CPU until the first experiment
//     starts (process start, package init, the registry). Live: wall
//     time from process start until every receiver has its first data
//     datagram, which includes building the stack and the arrival ramp.
//   - cpu_ns_per_op: process CPU per unit of work. sim-repro: per
//     simulator event over the experiment set. Live: per data datagram
//     delivered in the window.
//   - ops_per_s: units of work per second. sim-repro: simulator events
//     per CPU second. Live: data datagrams delivered per second of the
//     window; times the fixed payload size this is the goodput, which
//     live.goodput_mbps reports.
//   - latency_p50_ms, latency_p99_ms: how long a user waits for one unit
//     of output. Live: base-layer one-way delay from the header
//     Timestamp to the receiver's read (sender and receiver share one
//     process clock); late base-layer data is what layered streaming is
//     judged by. The window holds about 10000 (udp) and 5000 (emu)
//     base-layer samples, so p99 has 50 or more beyond it; the count is
//     live.green_delay_samples. sim-repro: the unit of output is the
//     whole reproduction, and one pass is one sample: the CPU time of the
//     thread running the experiment set — its wall time on an idle
//     machine, where the collector's background work runs on the other
//     core. p50 is the median over the run's passes; with 5 to 8 passes
//     a run, the "p99" is the slowest pass. Single experiments are too
//     short to sample steadily: the median experiment takes about 0.2 s
//     of CPU, and over ten runs the interquartile range of its run
//     medians reached 17 to 27% of their median.
//     experiments.<name>.wall_s gives each one's time.
//   - rss_peak_mb: the pass process's peak resident set.
//
// The failure share is attempted/failed in the result line. Live:
// base-layer datagrams lost over base-layer datagrams seen (received +
// lost by sequence gap) over the whole pass. sim-repro: experiments
// returning an error over experiments run.
//
// # Output checks
//
// A run is incorrect when any check fails. sim-repro: every experiment
// returns no error; the chaos testbed at its default configuration
// reproduces the fingerprint pinned by
// TestChaosFingerprintPinnedAcrossLayerRefactor; every pass's output
// digest matches (events and digest are in the report). Live: every
// receiver streamed; zero sequence regressions and cross-socket
// deliveries; the data datagrams receivers counted equal what their
// sockets read; what the link delivered equals what the receivers read,
// up to receive-side drops; base-layer loss does not exceed receive-side
// drops.
//
// Loss attribution: on live-udp-small the kernel's Udp RcvbufErrors and
// SndbufErrors (/proc/net/snmp) are diffed over the pass; on
// live-emu-layers8 the emulator endpoint's overruns are read. A pass
// with receive-side drops is flagged generator-limited
// (live.generator_limited); a window whose green loss exceeds its yellow
// loss is flagged (live.green_loss_over_yellow), since PELS drops yellow
// first and such loss happened outside the PELS queue. Runs are never
// re-seeded or resized to make either go away.
//
// # Per-layer metrics and what they move
//
// A traced run prints every per-layer metric for every workload; a layer
// a workload does not run reads 0. Each group below lists the
// end-to-end metric it should move, and where.
//
//   - experiments.events (exact count), experiments.ns_per_event,
//     experiments.<name>.wall_s: cpu_s on sim-repro; nothing on live.
//   - runtime.allocs_per_event, runtime.allocs_per_datagram,
//     runtime.bytes_per_datagram, runtime.gc_cycles, runtime.gc_pause_ms,
//     runtime.goroutines_max: cpu_s on sim-repro; cpu_ns_per_op and
//     latency_p99_ms on both live workloads.
//   - wire.link.send_ns_p50/p99 (time in Out.WriteTo: copy, mark and
//     evict), wire.link.enqueued/delivered/overflow_drops,
//     wire.link.useful_ratio (delivered / enqueued): cpu_ns_per_op on
//     both live workloads; the useful ratio matters most on
//     live-emu-layers8, where eviction is heavy.
//   - wire.gateway.mark_ns_p50, wire.gateway.priority_ns_p50,
//     wire.gateway.loss_mean: cpu_ns_per_op on both live workloads.
//   - socket.send_calls_per_datagram, socket.send_ns_p50,
//     socket.recv_calls_per_datagram, socket.write_errors,
//     socket.rcvbuf_errors, socket.sndbuf_errors: cpu_ns_per_op on
//     live-udp-small only; zero on live-emu-layers8 by construction,
//     whose receive-side drops are socket.emu_overruns. Batching sends
//     may raise latency_p99_ms.
//   - session.demux.datagrams_per_s, session.demux.read_ns_p50,
//     session.feedback.items_per_batch, session.jobs_depth_max,
//     session.wheel_timers_max, session.driver.sleeps_per_s,
//     session.driver.oversleep_us_p99 (how late the open-loop generator
//     ran), session.admit.first_data_ms_p99: latency_p99_ms and
//     cpu_ns_per_op on live-udp-small; the admit metric moves setup_s.
//   - swarm.read_ns_p50, swarm.feedback_per_s, wire.band.{green,yellow,
//     red}_loss, live.goodput_mbps, live.delay_p99_ms (all bands): the
//     failure share and ops_per_s on both live workloads.
//
// # Traced run
//
// The traced pass records spans at the wrapped boundaries — demux read,
// pump → link WriteTo, Mark/Priority, socket send, swarm read and write,
// driver Sleep — during the window. Data-datagram spans are keyed by
// (flow, band, seq), so one datagram's spans link end to end. Spans stay
// in memory and are written out when the pass ends
// (.bench_build/traces/<workload>-seed<n>.spans.csv). Self time is a
// span's length minus its child spans (Mark and Priority run inside the
// link's send). trace.<boundary>.self_ns_per_datagram sums them per
// delivered datagram, and trace.send_path.cpu_share is the send path's
// share of the traced cpu_ns_per_op; span time that waits (a contended
// link lock, a blocking read) is counted where it happens. Layers with
// no injectable boundary — sim through tcp, and the session internals —
// are measured by a CPU profile of the same window folded into
// self-time shares per package (<package>.self_share,
// runtime.gc.self_share, syscall.self_share, …), which attribute the
// remainder. End-to-end numbers come from untraced runs only;
// trace.overhead_ratio is the traced pass's CPU per op over the
// untraced pass's, minus one.
//
// # The micro-benchmark gate
//
// The BENCH_<n>.json trajectory and perfdiff gate isolated
// micro-benchmarks (codec, pacer, gateway, wheel, table, batcher) and
// stay as they are. They are not an end-to-end measure: no single one of
// them covers a datagram's trip through pelsd or a whole reproduction,
// which is what this benchmark measures.
package main
