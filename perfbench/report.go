package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are printed by untraced runs, for every workload; see the
// package comment for what each one means on each workload.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"cpu_ns_per_op", "ns"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// simExperiments are the deterministic registry entries sim-repro runs,
// in registry order; wire-loopback, chaos-wire and overload-wire run on
// the wall clock and are left out.
var simExperiments = []string{
	"table1", "fig2", "fig3", "fig5", "fig7", "fig8", "fig9", "fig10",
	"ablations", "multibottleneck", "utilization", "isolation",
	"controllers", "rttfairness", "mixed", "chaos-testbed",
	"nlayer-testbed", "rdscaling",
}

// sendPathSpans are the boundaries a data datagram crosses on its way
// out whose span time is CPU, not waiting: their self times are summed
// against the traced CPU cost per datagram.
var sendPathSpans = []spanKind{spanLinkWrite, spanMark, spanPriority, spanSocketSend}

// perLayer are printed by traced runs, for every workload; a metric of a
// layer a workload does not run reads 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"experiments.events", "count"},
		{"experiments.ns_per_event", "ns"},
	}
	for _, e := range simExperiments {
		m = append(m, metricDef{"experiments." + e + ".wall_s", "s"})
	}
	m = append(m, []metricDef{
		{"runtime.allocs_per_event", "count"},
		{"runtime.allocs_per_datagram", "count"},
		{"runtime.bytes_per_datagram", "B"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"runtime.goroutines_max", "count"},
		{"wire.link.send_ns_p50", "ns"},
		{"wire.link.send_ns_p99", "ns"},
		{"wire.link.enqueued", "count"},
		{"wire.link.delivered", "count"},
		{"wire.link.overflow_drops", "count"},
		{"wire.link.useful_ratio", "ratio"},
		{"wire.gateway.mark_ns_p50", "ns"},
		{"wire.gateway.priority_ns_p50", "ns"},
		{"wire.gateway.loss_mean", "ratio"},
		{"wire.band.green_loss", "ratio"},
		{"wire.band.yellow_loss", "ratio"},
		{"wire.band.red_loss", "ratio"},
		{"socket.send_calls_per_datagram", "ratio"},
		{"socket.send_ns_p50", "ns"},
		{"socket.recv_calls_per_datagram", "ratio"},
		{"socket.write_errors", "count"},
		{"socket.rcvbuf_errors", "count"},
		{"socket.sndbuf_errors", "count"},
		{"socket.emu_overruns", "count"},
		{"session.demux.datagrams_per_s", "1/s"},
		{"session.demux.read_ns_p50", "ns"},
		{"session.feedback.items_per_batch", "ratio"},
		{"session.jobs_depth_max", "count"},
		{"session.wheel_timers_max", "count"},
		{"session.driver.sleeps_per_s", "1/s"},
		{"session.driver.oversleep_us_p99", "us"},
		{"session.admit.first_data_ms_p99", "ms"},
		{"swarm.read_ns_p50", "ns"},
		{"swarm.feedback_per_s", "1/s"},
		{"live.goodput_mbps", "Mbps"},
		{"live.delay_p99_ms", "ms"},
		{"live.green_delay_samples", "count"},
		{"live.generator_limited", "count"},
		{"live.green_loss_over_yellow", "count"},
		{"trace.cpu_ns_per_op", "ns"},
		{"trace.overhead_ratio", "ratio"},
		{"trace.spans", "count"},
		{"trace.spans_dropped", "count"},
	}...)
	for _, k := range append(sendPathSpans, spanSwarmWrite) {
		m = append(m, metricDef{"trace." + spanNames[k] + ".self_ns_per_datagram", "ns"})
	}
	m = append(m,
		metricDef{"trace.send_path.self_ns_per_datagram", "ns"},
		metricDef{"trace.send_path.cpu_share", "ratio"},
		metricDef{"profile.samples", "count"},
	)
	for _, g := range profileGroups {
		m = append(m, metricDef{g + ".self_share", "ratio"})
	}
	return m
}()

// runFlags are per-layer 0/1 flags a traced run raises when either of
// its passes raised them.
var runFlags = map[string]bool{"live.generator_limited": true, "live.green_loss_over_yellow": true}

// passResult is what one pass process prints as its last line.
type passResult struct {
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Flags     []string           `json:"flags,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"digest,omitempty"`
	Values    map[string]float64 `json:"values"`
}

func newPassResult() passResult {
	return passResult{Correct: true, Values: map[string]float64{}}
}

func (p *passResult) problem(format string, args ...any) {
	p.Correct = false
	p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fold combines the passes of one run. Untraced runs report the median
// of each end-to-end metric over their passes. Traced runs report
// per-layer metrics, taking counts, allocations and losses from the
// untraced pass and span, sampler and profile figures from the traced
// one; the two passes' CPU per op differ by the tracing overhead.
func fold(o options, passes []pass) result {
	res := result{Correct: len(passes) > 0, Metrics: map[string]metricValue{}}
	digest := ""
	for i, p := range passes {
		res.Correct = res.Correct && p.Correct
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		if i == 0 {
			digest = p.Digest
		} else if p.Digest != digest {
			// Same seed, same inputs: the outputs must match too.
			res.Correct = false
		}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	if !o.trace {
		for _, m := range endToEnd {
			var vals []float64
			for _, p := range passes {
				if v, ok := p.Values[m.name]; ok {
					vals = append(vals, v)
				}
			}
			v := median(vals)
			if o.workload == "sim-repro" && m.name == "latency_p99_ms" {
				// A sim-repro pass is one latency sample (see runSim).
				sort.Float64s(vals)
				v = quantile(vals, 0.99)
			}
			res.Metrics[m.name] = metricValue{finite(v), m.unit}
		}
		return res
	}
	var plain, traced map[string]float64
	for _, p := range passes {
		if p.traced {
			traced = p.Values
		} else {
			plain = p.Values
		}
	}
	for _, m := range perLayer {
		v, ok := plain[m.name]
		if !ok {
			v = traced[m.name]
		}
		if runFlags[m.name] {
			v = max(plain[m.name], traced[m.name])
		}
		res.Metrics[m.name] = metricValue{finite(v), m.unit}
	}
	if u, t := plain["cpu_ns_per_op"], traced["cpu_ns_per_op"]; u > 0 && t > 0 {
		res.Metrics["trace.cpu_ns_per_op"] = metricValue{t, "ns"}
		res.Metrics["trace.overhead_ratio"] = metricValue{t/u - 1, "ratio"}
		if sp := traced["trace.send_path.self_ns_per_datagram"]; sp > 0 {
			res.Metrics["trace.send_path.cpu_share"] = metricValue{sp / t, "ratio"}
		}
	}
	return res
}

// report is the line printed before the result: run metadata, the
// checks' findings and each pass's own figures.
type report struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Quick      bool    `json:"quick,omitempty"`
	ElapsedS   float64 `json:"elapsed_s"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Passes     []any   `json:"passes"`
}

func newReport(o options, passes []pass, elapsed time.Duration) report {
	r := report{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		Quick:      o.quick,
		ElapsedS:   elapsed.Seconds(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
	for _, p := range passes {
		r.Passes = append(r.Passes, map[string]any{
			"traced":    p.traced,
			"elapsed_s": p.elapsed.Seconds(),
			"result":    p.passResult,
		})
	}
	return r
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the binary at build time, or
// "unknown" when it was built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime is the calling OS thread's user+system CPU time so far.
func threadCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// median of unsorted values; the mean of the middle two for even counts.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
