package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/wire"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run spawns its pass processes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric
// tables the binary prints from in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, binary runs %q", got, want)
	}
	compare := func(kind string, file []metricDef, table []metricDef) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary prints %d", kind, len(file), len(table))
		}
		want := map[string]string{}
		for _, m := range table {
			want[m.name] = m.unit
		}
		for _, m := range file {
			if u, ok := want[m.name]; !ok || u != m.unit {
				t.Errorf("%s: BENCHMARK.json has %s [%s], binary prints [%s]", kind, m.name, m.unit, u)
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	compare("end_to_end", e2e, endToEnd)
	compare("per_layer", layer, perLayer)
}

// TestEveryMetricPrinted runs each workload briefly, untraced and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit and that the output checks pass.
func TestEveryMetricPrinted(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range workloadNames() {
		if testing.Short() && w == "sim-repro" {
			continue // a full reproduction pass takes several seconds
		}
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := parentMain([]string{
					"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--quick", "--trace-dir", t.TempDir(),
				}, &stdout, &stderr)
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
				}
				if code != 0 || !res.Correct || res.Attempted < 1 {
					t.Fatalf("exit %d, correct=%v attempted=%d\n%s\n%s", code, res.Correct, res.Attempted, stdout.String(), stderr.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range f.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range f.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s not printed", name)
						continue
					}
					if got.Unit != unit {
						t.Errorf("metric %s printed in %q, want %q", name, got.Unit, unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
			})
		}
	}
}

// TestDroppedGreenFailsLiveCheck drops one base-layer datagram between
// the pump and the link: the live check must report it.
func TestDroppedGreenFailsLiveCheck(t *testing.T) {
	o := options{workload: "live-emu-layers8", seed: 1}
	res := runLive(liveEmuLayers8.quickened(), o, time.Now(), passOpts{dropGreen: 1})
	if res.Correct || res.Failed < 1 {
		t.Fatalf("correct=%v failed=%d problems=%v, want the lost base-layer datagram reported",
			res.Correct, res.Failed, res.Problems)
	}
	found := false
	for _, p := range res.Problems {
		found = found || strings.Contains(p, "base-layer")
	}
	if !found {
		t.Errorf("problems %v do not name the base-layer loss", res.Problems)
	}
}

// TestPeekMatchesCodec pins the header offsets the probes read against
// the wire codec.
func TestPeekMatchesCodec(t *testing.T) {
	h := wire.Header{
		Type:      wire.TypeData,
		Color:     packet.Yellow,
		Flow:      0xA1B2C3D4,
		Frame:     17,
		Index:     3,
		Seq:       0x0102030405060708,
		Timestamp: 1_700_000_000_123_456_789,
	}
	b, err := wire.AppendDatagram(nil, h, make([]byte, 40))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := peek(b)
	want := dgInfo{typ: h.Type, band: h.Color, flow: h.Flow, seq: h.Seq, stamp: h.Timestamp}
	if !ok || got != want {
		t.Fatalf("peek = %+v, %v; want %+v", got, ok, want)
	}
	if _, ok := peek(b[:wire.HeaderSize-1]); ok {
		t.Error("peek accepted a truncated header")
	}
}

// TestFoldProfile folds a real CPU profile of a busy loop in this
// package: shares sum to one and the loop's package shows.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, samples, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no samples taken")
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["perfbench"] == 0 {
		t.Errorf("busy loop not attributed to perfbench: %v", shares)
	}
}

var spinSink uint64

func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := uint64(1)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestGroupOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/wire.(*link).send":        "wire",
		"repro/internal/sim.(*Engine).Run":        "sim",
		"repro/internal/units.BitRate.Bps":        "other",
		"main.(*rxConn).ReadFrom":                 "perfbench",
		"internal/runtime/syscall.Syscall6":       "syscall",
		"internal/poll.(*FD).WriteToInet4":        "syscall",
		"runtime.mallocgc":                        "runtime.other",
		"internal/runtime/maps.(*Map).getWithKey": "runtime.other",
		"hash/crc32.castagnoliSSE42":              "crc32",
		"sort.Slice":                              "other",
	} {
		if got := groupOf(fn); got != want {
			t.Errorf("groupOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
