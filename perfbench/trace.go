package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/packet"
	"repro/internal/wire"
)

// spanKind names a wrapped layer boundary.
type spanKind uint8

const (
	spanDemuxRead   spanKind = iota // server socket ReadFrom (session demux)
	spanLinkWrite                   // ServerConfig.Out.WriteTo: pump → link
	spanMark                        // Marker.Mark inside the link's send
	spanPriority                    // Marker.Priority inside the link's send
	spanSocketSend                  // kernel socket WriteTo under ShapedConn
	spanSwarmRead                   // swarm socket ReadFrom
	spanSwarmWrite                  // swarm socket WriteTo (hello, feedback)
	spanDriverSleep                 // Clock.Sleep of the wheel driver
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"demux_read", "link_write", "gateway_mark", "gateway_priority",
	"socket_send", "swarm_read", "swarm_write", "driver_sleep",
}

// span is one timed call at a boundary. Data datagrams are keyed by
// (flow, band, seq), so one datagram's spans link end to end.
type span struct {
	start, end int64 // ns since the tracer's base instant
	seq        uint64
	flow       uint32
	kind       spanKind
	typ        wire.Type
	band       packet.Color
}

// tracer keeps spans in a preallocated in-memory buffer while on; the
// pass writes them out after every goroutine that records has exited.
// A nil tracer records nothing, so untraced passes pay one nil check.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	spans []span
	n     atomic.Int64
	// bare counts calls that produced no span (read timeouts), so call
	// ratios include them.
	bare [numSpanKinds]atomic.Uint64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) add(k spanKind, info dgInfo, start, end int64) {
	if t == nil || !t.on.Load() {
		return
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return // full: counted as dropped in the summary
	}
	t.spans[i] = span{start: start, end: end, seq: info.seq, flow: info.flow, kind: k, typ: info.typ, band: info.band}
}

func (t *tracer) count(k spanKind) {
	if t == nil || !t.on.Load() {
		return
	}
	t.bare[k].Add(1)
}

// recorded returns the spans kept; call only once recording goroutines
// have exited.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

func (t *tracer) dropped() int64 {
	if d := t.n.Load() - int64(len(t.spans)); d > 0 {
		return d
	}
	return 0
}

// spanStats is the per-boundary view of one traced window.
type spanStats struct {
	calls [numSpanKinds]uint64  // spans plus bare calls
	durs  [numSpanKinds][]int64 // span lengths, sorted
	self  [numSpanKinds]int64   // Σ self time: length minus child spans
	// oversleep is the driver's Sleep overshoot per call, sorted.
	oversleep []int64
}

type dgKey struct {
	flow uint32
	seq  uint64
	band packet.Color
	typ  wire.Type
}

// summarize computes call counts, lengths and self times. The only
// nesting among the wrapped boundaries is Mark and Priority, which the
// link's send runs synchronously inside the pump's Out.WriteTo: a
// link_write span's self time excludes its datagram's gateway spans.
func (t *tracer) summarize() spanStats {
	var st spanStats
	spans := t.recorded()
	parent := make(map[dgKey]int)
	for i, s := range spans {
		if s.kind == spanLinkWrite {
			parent[dgKey{s.flow, s.seq, s.band, s.typ}] = i
		}
	}
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.kind != spanMark && s.kind != spanPriority {
			continue
		}
		if i, ok := parent[dgKey{s.flow, s.seq, s.band, s.typ}]; ok {
			if p := spans[i]; p.start <= s.start && s.end <= p.end {
				child[i] += s.end - s.start
			}
		}
	}
	for i, s := range spans {
		d := s.end - s.start
		st.calls[s.kind]++
		st.durs[s.kind] = append(st.durs[s.kind], d)
		st.self[s.kind] += d - child[i]
		if s.kind == spanDriverSleep {
			st.oversleep = append(st.oversleep, d-int64(s.seq))
		}
	}
	for k := range st.durs {
		st.calls[k] += t.bare[k].Load()
		sort.Slice(st.durs[k], func(i, j int) bool { return st.durs[k][i] < st.durs[k][j] })
	}
	sort.Slice(st.oversleep, func(i, j int) bool { return st.oversleep[i] < st.oversleep[j] })
	return st
}

// writeSpans writes the recorded spans as CSV.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,type,flow,band,seq,start_ns,end_ns")
	for _, s := range t.recorded() {
		fmt.Fprintf(w, "%s,%s,%d,%s,%d,%d,%d\n", spanNames[s.kind], s.typ, s.flow, s.band, s.seq, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileGroups are the packages a CPU profile's self time is folded
// into. Layers with no injectable boundary (the simulator stack and the
// session internals) are measured this way.
var profileGroups = []string{
	"sim", "netsim", "queue", "aqm", "cc", "pels", "fgs", "tcp", "packet",
	"experiments", "wire", "session", "perfbench", "crc32",
	"runtime.gc", "runtime.other", "syscall", "other",
}

// gcRoots mark a stack as garbage-collector work wherever the leaf is.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.GC",
}

// groupOf maps a function symbol to its profile group.
func groupOf(fn string) string {
	path := fn
	if i := strings.LastIndex(path, "/"); i >= 0 {
		if j := strings.Index(path[i:], "."); j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.Index(path, "."); j >= 0 {
		path = path[:j]
	}
	switch {
	case strings.HasPrefix(path, "repro/internal/"):
		name := strings.TrimPrefix(path, "repro/internal/")
		for _, g := range profileGroups {
			if g == name {
				return g
			}
		}
		return "other"
	case path == "main" || path == "repro/perfbench":
		return "perfbench"
	case path == "hash/crc32":
		return "crc32"
	case path == "syscall" || path == "internal/poll" || path == "net" || path == "os" ||
		strings.HasPrefix(path, "internal/syscall") || path == "internal/runtime/syscall":
		return "syscall"
	case path == "runtime" || strings.HasPrefix(path, "internal/runtime"):
		return "runtime.other"
	}
	return "other"
}

// foldProfile reads a gzipped pprof CPU profile and returns each
// group's share of self samples (leaf frames), plus the sample count.
func foldProfile(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location → function ids, innermost first
		fnName  = map[uint64]int64{}    // function → string table index
		strs    []string
	)
	err = eachField(raw, func(num, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wt, v, b)
				case 2:
					vals = appendUints(vals, wt, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(num, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.locs) == 0 || s.count == 0 {
			continue
		}
		total += s.count
		group := ""
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				n := name(fn)
				for _, root := range gcRoots {
					if strings.HasPrefix(n, root) {
						group = "runtime.gc"
					}
				}
			}
		}
		if group == "" {
			if fns := locFns[s.locs[0]]; len(fns) > 0 {
				group = groupOf(name(fns[0]))
			} else {
				group = "other"
			}
		}
		counts[group] += s.count
	}
	shares := make(map[string]float64, len(profileGroups))
	for _, g := range profileGroups {
		if total > 0 {
			shares[g] = float64(counts[g]) / float64(total)
		} else {
			shares[g] = 0
		}
	}
	return shares, total, nil
}

var errProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message. Varint and fixed
// fields arrive in v, length-delimited ones in b.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes a repeated integer field, packed or not.
func appendUints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
