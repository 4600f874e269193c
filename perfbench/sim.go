package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

// Pinned by TestChaosFingerprintPinnedAcrossLayerRefactor in
// internal/experiments: the chaos testbed at its default configuration.
const (
	pinnedChaosFingerprint = "3f0110c19efdbcc800b56f517703aa1cafc3e3fbbcbdc30ebe125418550eea77"
	pinnedChaosEvents      = 207473
)

// runSim is one sim-repro pass: every deterministic registry experiment
// in order, in this process, at the run's seed.
func runSim(o options, spawn time.Time, po passOpts) passResult {
	res := newPassResult()
	entries := make([]experiments.Entry, 0, len(simExperiments))
	for _, name := range simExperiments {
		e, ok := experiments.Lookup(name)
		if !ok {
			res.problem("experiment %q is not registered", name)
			continue
		}
		entries = append(entries, e)
	}

	var prof bytes.Buffer
	if po.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.problem("cpu profile: %v", err)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// sim-repro is CPU-bound, so its times are process CPU time, which
	// leaves out time a shared host gives to other tenants (see the
	// package comment). Set-up is everything before the first experiment.
	cpu0 := cpuTime()
	res.Values["setup_s"] = cpu0.Seconds()
	// The reproduction's latency is the CPU of the thread running the
	// experiment set: on an idle machine its wall time, while the
	// collector's background work runs on the other cores and is counted
	// in cpu_s instead.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	digest := sha256.New()
	var events uint64
	var setThread time.Duration
	for _, e := range entries {
		t0, c0 := time.Now(), threadCPUTime()
		r, err := e.Run(o.seed)
		wall, cpu := time.Since(t0), threadCPUTime()-c0
		res.Attempted++
		if err != nil {
			res.Failed++
			res.problem("%s: %v", e.Name, err)
			continue
		}
		fmt.Fprintf(digest, "=== %s ===\n%s\n", e.Title, r.Output)
		events += r.Events
		setThread += cpu
		res.Values["experiments."+e.Name+".wall_s"] = wall.Seconds()
	}
	cpuEnd := cpuTime()
	runtime.ReadMemStats(&ms1)
	res.Values["wall_s"] = time.Since(spawn).Seconds()
	res.Values["cpu_s"] = cpuEnd.Seconds()
	if po.traced {
		pprof.StopCPUProfile()
		res.addProfile(prof.Bytes())
	}

	// The pinned chaos fingerprint is defined at the testbed's default
	// seed, which need not be the run's; it is checked outside the timed
	// set.
	if chaos, err := experiments.ChaosTestbed(experiments.DefaultChaosTestbedConfig()); err != nil {
		res.problem("chaos testbed: %v", err)
	} else if chaos.Fingerprint != pinnedChaosFingerprint || chaos.Events != pinnedChaosEvents {
		res.problem("chaos testbed fingerprint %s over %d events, want pinned %s over %d",
			chaos.Fingerprint, chaos.Events, pinnedChaosFingerprint, pinnedChaosEvents)
	}

	res.Digest = hex.EncodeToString(digest.Sum(nil))
	setCPU := cpuEnd - cpu0
	res.Values["cpu_ns_per_op"] = ratio(float64(setCPU), float64(events))
	res.Values["ops_per_s"] = ratio(float64(events), setCPU.Seconds())
	// One pass is one latency sample; fold takes the median and the
	// slowest over the run's passes.
	res.Values["latency_p50_ms"] = float64(setThread) / 1e6
	res.Values["latency_p99_ms"] = float64(setThread) / 1e6
	res.Values["experiments.events"] = float64(events)
	res.Values["experiments.ns_per_event"] = ratio(float64(setCPU), float64(events))
	res.Values["runtime.allocs_per_event"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(events))
	res.Values["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	res.Values["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	if po.traced {
		res.Values["runtime.goroutines_max"] = float64(runtime.NumGoroutine())
		if err := os.WriteFile(filepath.Join(o.traceDir, fmt.Sprintf("sim-repro-seed%d.pprof", o.seed)), prof.Bytes(), 0o644); err != nil {
			res.problem("write profile: %v", err)
		}
	}
	return res
}

// addProfile folds a CPU profile into per-package self-time shares.
func (p *passResult) addProfile(gz []byte) {
	shares, samples, err := foldProfile(gz)
	if err != nil {
		p.problem("%v", err)
		return
	}
	p.Values["profile.samples"] = float64(samples)
	for g, v := range shares {
		p.Values[g+".self_share"] = v
	}
}
