package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"oversub/internal/schema"
)

// SeriesSchema versions the JSON export envelope.
const SeriesSchema = schema.MetricsV1

// jsonChunk is WriteJSON's flush threshold: the document reaches the
// writer in pieces of about this size, so a long series is never held in
// memory a second time as text.
const jsonChunk = 32 << 10

// WriteJSON exports the series as a schema'd JSON document: the schema
// tag, the base sampling interval, the sampled kernel's policy name
// (additive within oversub-metrics/v1: readers that predate it ignore it,
// and it is omitted when no snapshot ever ran), and the sample array, whose
// keys are Sample's json tags in field order.
//
// The bytes are exactly what encoding/json's Encoder with a two-space
// indent writes for that document: null for a nil per-CPU slice, [] for an
// empty one, floats in the shortest form that round-trips ('e' notation
// outside [1e-6, 1e21), as in JavaScript), strings with HTML-safe escapes,
// and a trailing newline. The text is appended with strconv, no reflection,
// so identical runs export identical bytes. A NaN or infinite float is an
// error, returned before anything is written.
func (s *Sampler) WriteJSON(w io.Writer) error {
	n := s.Len()
	for i := 0; i < n; i++ {
		if err := checkFinite(s.sampleAt(i)); err != nil {
			return fmt.Errorf("metrics: sample %d: %w", i, err)
		}
	}
	// The headroom past jsonChunk holds the sample that crosses it.
	b := make([]byte, 0, jsonChunk+jsonChunk/4)
	b = append(b, "{\n  \"schema\": "...)
	b = appendJSONString(b, SeriesSchema)
	b = append(b, ",\n  \"interval_ns\": "...)
	b = strconv.AppendInt(b, int64(s.interval), 10)
	if s.policy != "" {
		b = append(b, ",\n  \"policy\": "...)
		b = appendJSONString(b, s.policy)
	}
	b = append(b, ",\n  \"samples\": ["...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSampleJSON(b, s.sampleAt(i))
		if len(b) >= jsonChunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	if n > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "]\n}\n"...)
	_, err := w.Write(b)
	return err
}

// sampleAt returns the i-th sample of the series Samples would return,
// without copying it: the stored samples, then the pending bucket.
func (s *Sampler) sampleAt(i int) *Sample {
	if i < len(s.samples) {
		return &s.samples[i]
	}
	return &s.acc
}

// checkFinite rejects the float values JSON cannot represent.
func checkFinite(sm *Sample) error {
	if math.IsNaN(sm.UtilPct) || math.IsInf(sm.UtilPct, 0) {
		return fmt.Errorf("unsupported util_pct value %v", sm.UtilPct)
	}
	for cpu, v := range sm.PerCPUUtil {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("unsupported util_per_cpu[%d] value %v", cpu, v)
		}
	}
	return nil
}

// Indentation of a sample's fields and of its per-CPU array elements.
const (
	fieldIndent = "\n      "
	elemIndent  = "\n        "
)

// appendSampleJSON appends one element of the samples array.
func appendSampleJSON(b []byte, sm *Sample) []byte {
	b = append(b, "\n    {"+fieldIndent+"\"at_ns\": "...)
	b = strconv.AppendInt(b, int64(sm.At), 10)
	b = appendIntField(b, "window_ns", int64(sm.Window))
	b = appendIntField(b, "runnable", int64(sm.Runnable))
	b = appendIntField(b, "running_cpus", int64(sm.RunningCPUs))
	b = appendIntField(b, "vblocked", int64(sm.VBlocked))
	b = appendIntField(b, "skip_pending", int64(sm.SkipPending))
	b = appendIntField(b, "spin_cpus", int64(sm.SpinCPUs))
	b = appendKey(b, "util_pct")
	b = appendJSONFloat(b, sm.UtilPct)
	b = appendUintField(b, "wakeups", sm.Wakeups)
	b = appendUintField(b, "vbwakes", sm.VBWakes)
	b = appendUintField(b, "migrations", sm.Migrations)
	b = appendUintField(b, "bwd_deschedules", sm.BWDDeschedules)
	b = appendUintField(b, "vol_cs", sm.VolCS)
	b = appendUintField(b, "invol_cs", sm.InvolCS)
	b = appendUintField(b, "futex_waits", sm.FutexWaits)
	b = appendUintField(b, "futex_wakes", sm.FutexWakes)
	b = appendUintField(b, "l1d_misses", sm.L1DMisses)
	b = appendUintField(b, "dtlb_misses", sm.DTLBMisses)

	b = appendKey(b, "rq_per_cpu")
	b = appendArray(b, sm.PerCPUQueue, appendInt)
	b = appendKey(b, "util_per_cpu")
	b = appendArray(b, sm.PerCPUUtil, appendJSONFloat)
	return append(b, "\n    }"...)
}

// appendKey starts a sample field after the first: separator, indent,
// quoted key.
func appendKey(b []byte, key string) []byte {
	b = append(b, ","+fieldIndent+"\""...)
	b = append(b, key...)
	return append(b, "\": "...)
}

func appendIntField(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(appendKey(b, key), v, 10)
}

func appendUintField(b []byte, key string, v uint64) []byte {
	return strconv.AppendUint(appendKey(b, key), v, 10)
}

func appendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// appendArray appends a per-CPU array as the indenting encoder lays it
// out: null when nil, [] when empty, else one element per line.
func appendArray[T int | float64](b []byte, vs []T, elem func([]byte, T) []byte) []byte {
	if vs == nil {
		return append(b, "null"...)
	}
	if len(vs) == 0 {
		return append(b, "[]"...)
	}
	for i, v := range vs {
		if i == 0 {
			b = append(b, "["+elemIndent...)
		} else {
			b = append(b, ","+elemIndent...)
		}
		b = elem(b, v)
	}
	return append(b, fieldIndent+"]"...)
}

// appendJSONFloat formats a finite float as encoding/json does: the
// shortest representation that round-trips, in 'e' notation outside
// [1e-6, 1e21) with the exponent's leading zero dropped (1e-07 -> 1e-7).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// quote, backslash and the short control escapes get a backslash, other
// control bytes and <, >, & become \u00XX, invalid UTF-8 becomes \ufffd,
// and U+2028/U+2029 are escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// WriteCSV exports the series as CSV: one row per window, aggregate
// columns first, then per-CPU runqueue depths and utilizations. Floats
// print with fixed precision so output is byte-stable.
func (s *Sampler) WriteCSV(w io.Writer) error {
	samples := s.Samples()
	ncpu := 0
	if len(samples) > 0 {
		ncpu = len(samples[0].PerCPUQueue)
	}
	var b strings.Builder
	b.WriteString("at_ns,window_ns,runnable,running_cpus,vblocked,skip_pending,spin_cpus,util_pct," +
		"wakeups,vbwakes,migrations,bwd_deschedules,vol_cs,invol_cs,futex_waits,futex_wakes," +
		"l1d_misses,dtlb_misses")
	for i := 0; i < ncpu; i++ {
		fmt.Fprintf(&b, ",rq_cpu%d", i)
	}
	for i := 0; i < ncpu; i++ {
		fmt.Fprintf(&b, ",util_cpu%d", i)
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, sm := range samples {
		var r strings.Builder
		fmt.Fprintf(&r, "%d,%d,%d,%d,%d,%d,%d,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d",
			int64(sm.At), int64(sm.Window), sm.Runnable, sm.RunningCPUs,
			sm.VBlocked, sm.SkipPending, sm.SpinCPUs, sm.UtilPct,
			sm.Wakeups, sm.VBWakes, sm.Migrations, sm.BWDDeschedules,
			sm.VolCS, sm.InvolCS, sm.FutexWaits, sm.FutexWakes,
			sm.L1DMisses, sm.DTLBMisses)
		for i := 0; i < ncpu; i++ {
			v := 0
			if i < len(sm.PerCPUQueue) {
				v = sm.PerCPUQueue[i]
			}
			fmt.Fprintf(&r, ",%d", v)
		}
		for i := 0; i < ncpu; i++ {
			v := 0.0
			if i < len(sm.PerCPUUtil) {
				v = sm.PerCPUUtil[i]
			}
			fmt.Fprintf(&r, ",%.3f", v)
		}
		r.WriteByte('\n')
		if _, err := io.WriteString(w, r.String()); err != nil {
			return err
		}
	}
	return nil
}

// summarySeries is one row of the summary rendering: a name, a unit, and
// the per-window value (rates are normalized per millisecond of sim time
// so downsampled windows stay comparable).
type summarySeries struct {
	name string
	unit string
	at   func(Sample) float64
}

// perMS returns a delta field as a rate per sim-millisecond of window.
func perMS(get func(Sample) uint64) func(Sample) float64 {
	return func(sm Sample) float64 {
		ms := sm.Window.Millis()
		if ms <= 0 {
			return 0
		}
		return float64(get(sm)) / ms
	}
}

// summaryOrder is the fixed rendering order: an ordered slice, never a
// map, so summaries are byte-identical across runs.
var summaryOrder = []summarySeries{
	{"runnable", "threads", func(sm Sample) float64 { return float64(sm.Runnable) }},
	{"running-cpus", "cpus", func(sm Sample) float64 { return float64(sm.RunningCPUs) }},
	{"util", "pct", func(sm Sample) float64 { return sm.UtilPct }},
	{"vblocked", "threads", func(sm Sample) float64 { return float64(sm.VBlocked) }},
	{"skip-pending", "threads", func(sm Sample) float64 { return float64(sm.SkipPending) }},
	{"spin-cpus", "cpus", func(sm Sample) float64 { return float64(sm.SpinCPUs) }},
	{"wakeups", "/ms", perMS(func(sm Sample) uint64 { return sm.Wakeups })},
	{"vbwakes", "/ms", perMS(func(sm Sample) uint64 { return sm.VBWakes })},
	{"migrations", "/ms", perMS(func(sm Sample) uint64 { return sm.Migrations })},
	{"bwd-deschedules", "/ms", perMS(func(sm Sample) uint64 { return sm.BWDDeschedules })},
	{"vol-cs", "/ms", perMS(func(sm Sample) uint64 { return sm.VolCS })},
	{"invol-cs", "/ms", perMS(func(sm Sample) uint64 { return sm.InvolCS })},
	{"futex-waits", "/ms", perMS(func(sm Sample) uint64 { return sm.FutexWaits })},
	{"futex-wakes", "/ms", perMS(func(sm Sample) uint64 { return sm.FutexWakes })},
	{"l1d-misses", "/ms", perMS(func(sm Sample) uint64 { return sm.L1DMisses })},
	{"dtlb-misses", "/ms", perMS(func(sm Sample) uint64 { return sm.DTLBMisses })},
}

// sparkWidth is the sparkline column budget of the summary rendering.
const sparkWidth = 48

// WriteSummary renders a human-readable table: one row per series with
// sample count, min/mean/max, and an ASCII sparkline of the (bucketed)
// trajectory. Output is deterministic — ci.sh byte-compares it across
// identical-seed runs.
func (s *Sampler) WriteSummary(w io.Writer) error {
	samples := s.Samples()
	if len(samples) == 0 {
		_, err := fmt.Fprintf(w, "metrics: no samples (interval %v)\n", s.interval)
		return err
	}
	span := samples[len(samples)-1].At
	pol := ""
	if s.policy != "" {
		pol = fmt.Sprintf(", policy %s", s.policy)
	}
	if _, err := fmt.Fprintf(w, "metrics: %d samples over %v (base interval %v%s)\n\n",
		len(samples), span, s.interval, pol); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-16s %8s %10s %10s %10s  %s\n",
		"series", "unit", "min", "mean", "max", "trajectory"); err != nil {
		return err
	}
	for _, ss := range summaryOrder {
		vals := make([]float64, len(samples))
		// The mean weights each window by its length so downsampled tails
		// do not skew it.
		var sum, wsum float64
		min, max := 0.0, 0.0
		for i, sm := range samples {
			v := ss.at(sm)
			vals[i] = v
			wlen := float64(sm.Window)
			sum += v * wlen
			wsum += wlen
			if i == 0 || v < min {
				min = v
			}
			if i == 0 || v > max {
				max = v
			}
		}
		mean := 0.0
		if wsum > 0 {
			mean = sum / wsum
		}
		if _, err := fmt.Fprintf(w, "%-16s %8s %10.2f %10.2f %10.2f  %s\n",
			ss.name, ss.unit, min, mean, max, sparkline(vals, sparkWidth)); err != nil {
			return err
		}
	}
	return nil
}

// sparkRunes are the eight quantization levels of a sparkline cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values as a width-cell ASCII trajectory, bucketing by
// mean when the series is longer than the width. All-flat series render
// as the lowest level.
func sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	if len(values) < width {
		width = len(values)
	}
	buckets := make([]float64, width)
	for b := 0; b < width; b++ {
		lo := b * len(values) / width
		hi := (b + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, v := range values[lo:hi] {
			sum += v
		}
		buckets[b] = sum / float64(hi-lo)
	}
	min, max := buckets[0], buckets[0]
	for _, v := range buckets[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range buckets {
		level := 0
		if max > min {
			level = int((v - min) / (max - min) * float64(len(sparkRunes)-1))
			if level < 0 {
				level = 0
			}
			if level >= len(sparkRunes) {
				level = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[level])
	}
	return b.String()
}

// Write exports the series to w in the named format: "csv", "json", or
// "summary".
func (s *Sampler) Write(w io.Writer, format string) error {
	switch format {
	case "csv":
		return s.WriteCSV(w)
	case "json":
		return s.WriteJSON(w)
	case "summary":
		return s.WriteSummary(w)
	}
	return fmt.Errorf("metrics: unknown format %q (want csv, json, or summary)", format)
}
