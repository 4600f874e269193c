package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// childEnv marks a process started by the benchmark to run one pass.
const childEnv = "PERFBENCH_CHILD"

// runLimit bounds a whole invocation, passes included, below the
// 180-second budget a run is allowed.
const runLimit = 170 * time.Second

// maxPasses caps the passes one untraced run makes.
const maxPasses = 8

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings, shared by parent and child.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool   // shortened live phases for the benchmark's own tests
	traceDir string // where traced passes write their spans
}

func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1, "input seed (arrival jitter for live workloads, experiment seed for sim-repro)")
	fs.IntVar(&o.seconds, "seconds", 10, "measuring budget in seconds")
	fs.Func("trace", "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics", func(s string) error {
		v, err := strconv.ParseBool(s)
		o.trace = v
		return err
	})
	fs.BoolVar(&o.quick, "quick", false, "shorten the live phases (smoke tests only; figures are not comparable)")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory for span files of traced passes")
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	res, rep := runWorkload(o, stderr)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": rep}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// pass is one child process's outcome as the parent saw it.
type pass struct {
	passResult
	traced  bool
	elapsed time.Duration // spawn to exit
}

// runWorkload runs the passes of one invocation and folds them into the
// result line: untraced passes until the budget is spent (medians over
// passes), or one untraced and one traced pass for a traced run.
func runWorkload(o options, stderr io.Writer) (result, report) {
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runLimit))
	defer cancel()
	var passes []pass
	run := func(traced bool) bool {
		p := spawnPass(ctx, o, traced, stderr)
		passes = append(passes, p)
		return p.Correct
	}
	if o.trace {
		if run(false) {
			run(true)
		}
	} else {
		for run(false) && len(passes) < maxPasses &&
			time.Since(start)+passes[len(passes)-1].elapsed <= budget {
		}
	}
	return fold(o, passes), newReport(o, passes, time.Since(start))
}

// spawnPass runs one pass in a fresh process, so every pass pays process
// start-up and its peak RSS is its own.
func spawnPass(ctx context.Context, o options, traced bool, stderr io.Writer) pass {
	exe, err := os.Executable()
	if err != nil {
		return failedPass(traced, err)
	}
	spawn := time.Now()
	args := []string{
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-spawn", strconv.FormatInt(spawn.UnixNano(), 10),
		"-traced=" + strconv.FormatBool(traced),
		"-quick=" + strconv.FormatBool(o.quick),
		"-trace-dir", o.traceDir,
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	elapsed := time.Since(spawn)
	p := pass{traced: traced, elapsed: elapsed}
	if err := json.Unmarshal(lastLine(out.Bytes()), &p.passResult); err != nil {
		if runErr == nil {
			runErr = fmt.Errorf("pass printed no result: %w", err)
		}
		return failedPass(traced, runErr)
	}
	if runErr != nil {
		p.Correct = false
		p.Problems = append(p.Problems, "pass process: "+runErr.Error())
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.Values["rss_peak_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return p
}

func failedPass(traced bool, err error) pass {
	return pass{traced: traced, passResult: passResult{
		Problems: []string{"pass process: " + err.Error()},
		Values:   map[string]float64{},
	}}
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// childMain runs one pass and prints its passResult as the last line.
func childMain(args []string, stdout io.Writer) int {
	var o options
	var spawnNs int64
	var traced bool
	fs := flag.NewFlagSet("perfbench-pass", flag.ContinueOnError)
	o.register(fs)
	fs.Int64Var(&spawnNs, "spawn", 0, "unix-nano instant the parent started this process")
	fs.BoolVar(&traced, "traced", false, "record spans and a CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	spawn := time.Unix(0, spawnNs)
	if spawnNs == 0 {
		spawn = time.Now()
	}
	if traced {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	res := w(o, spawn, passOpts{traced: traced})
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// passOpts are the per-pass switches.
type passOpts struct {
	traced    bool
	dropGreen int64 // base-layer datagrams to discard (tests only)
}

// workload runs one pass of a named workload in the current process.
type workload func(o options, spawn time.Time, po passOpts) passResult

var workloads = map[string]workload{
	"sim-repro":        runSim,
	"live-udp-small":   liveWorkload(liveUDPSmall),
	"live-emu-layers8": liveWorkload(liveEmuLayers8),
}

func liveWorkload(spec liveSpec) workload {
	return func(o options, spawn time.Time, po passOpts) passResult {
		if o.quick {
			spec = spec.quickened()
		}
		return runLive(spec, o, spawn, po)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
