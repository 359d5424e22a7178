package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultSchema names the result-file format; resultVersion is bumped when
// its meaning changes.
const (
	resultSchema  = "oversub-benchmark"
	resultVersion = 1
)

// result is one invocation's self-describing record (-out).
type result struct {
	Schema  string   `json:"schema"`
	Version int      `json:"version"`
	Seed    uint64   `json:"seed"`
	Quick   bool     `json:"quick"`
	Traced  bool     `json:"traced"`
	Host    hostInfo `json:"host"`
	// Workloads hold the end-to-end metrics, or in a traced result the
	// per-layer metrics.
	Workloads []workloadResult `json:"workloads"`
}

type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

type workloadResult struct {
	Name          string        `json:"name"`
	Why           string        `json:"why"`
	Passes        int           `json:"passes"`
	Cells         []cellInfo    `json:"cells"`
	Attempted     int           `json:"attempted"`
	Failed        int           `json:"failed"`
	Failures      []string      `json:"failures,omitempty"`
	Golden        string        `json:"golden"`
	OutputDigest  string        `json:"output_digest"`
	SetupS        []float64     `json:"setup_s"`
	CalibrationMS []float64     `json:"calibration_ms"`
	Metrics       []metricValue `json:"metrics"`
}

// cellInfo is one resolved cell: its configuration, repetition and seed.
type cellInfo struct {
	ID   string `json:"id"`
	Seed uint64 `json:"seed"`
}

func (w *workloadResult) metric(name string) (metricValue, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// nearestRank is the p-th percentile of sorted xs by nearest rank, so at
// least (1-p) of the samples lie at or beyond it.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// checkCells compares every pass's digests with the reference: the golden
// file when it applies, else the first successful run of the cell. A cell
// run fails on an error or a differing digest.
func checkCells(wr *workloadResult, cells []cell, passes []passResult, golden map[string]string) {
	note := func(why string) {
		if len(wr.Failures) < 10 {
			wr.Failures = append(wr.Failures, why)
		}
	}
	fail := func(why string) {
		wr.Failed++
		note(why)
	}
	ref := make([]string, len(cells))
	wr.Golden = "not-checked"
	if golden != nil {
		wr.Golden = "match"
		for i, c := range cells {
			if ref[i] = golden[c.id]; ref[i] == "" {
				wr.Golden = "mismatch"
				note(c.id + ": no golden digest (regenerate with -update-golden)")
			}
		}
	}
	for pi, p := range passes {
		if len(p.Cells) != len(cells) {
			wr.Attempted += len(cells)
			wr.Failed += len(cells)
			note(fmt.Sprintf("%s pass %d returned %d of %d cells", p.Kind, pi, len(p.Cells), len(cells)))
			continue
		}
		for i, r := range p.Cells {
			wr.Attempted++
			switch {
			case r.ID != cells[i].id:
				fail(fmt.Sprintf("%s: %s pass %d ran %s instead", cells[i].id, p.Kind, pi, r.ID))
			case r.Err != "":
				fail(fmt.Sprintf("%s: %s", r.ID, r.Err))
			case ref[i] == "":
				ref[i] = r.Digest
			case r.Digest != ref[i]:
				if golden != nil {
					wr.Golden = "mismatch"
				}
				fail(fmt.Sprintf("%s: %s pass %d digest %s, want %s", r.ID, p.Kind, pi, r.Digest, ref[i]))
			}
		}
	}
	h := sha256.New()
	for i, c := range cells {
		fmt.Fprintf(h, "%s %s\n", c.id, ref[i])
	}
	wr.OutputDigest = hex.EncodeToString(h.Sum(nil)[:8])
}

func newWorkloadResult(w *workload, cells []cell, passes []passResult, golden map[string]string) workloadResult {
	wr := workloadResult{Name: w.name, Why: w.why, Passes: len(passes)}
	for _, c := range cells {
		wr.Cells = append(wr.Cells, cellInfo{c.id, c.seed})
	}
	for _, p := range passes {
		wr.SetupS = append(wr.SetupS, p.SetupS)
		wr.CalibrationMS = append(wr.CalibrationMS, p.CalibrationMS)
	}
	checkCells(&wr, cells, passes, golden)
	return wr
}

// endToEnd computes the end-to-end metrics of the timed passes. Each
// cell's host time is its median across passes; wall_s sums those medians.
func endToEnd(wr *workloadResult, cells []cell, passes []passResult) {
	medians := make([]float64, len(cells))
	var wall float64
	for i := range cells {
		var ts []float64
		for _, p := range passes {
			if len(p.Cells) == len(cells) {
				ts = append(ts, float64(p.Cells[i].NS))
			}
		}
		medians[i] = median(ts) / 1e6
		wall += medians[i] / 1e3
	}
	sort.Float64s(medians)
	var rss, alloc []float64
	for _, p := range passes {
		rss = append(rss, p.PeakRSSMB)
		alloc = append(alloc, p.AllocMB)
	}
	failRatio := 0.0
	if wr.Attempted > 0 {
		failRatio = float64(wr.Failed) / float64(wr.Attempted)
	}
	wr.Metrics = []metricValue{
		{"wall_s", wall, "s"},
		{"cell_ms_p50", median(medians), "ms"},
		{"cell_ms_p90", nearestRank(medians, 0.9), "ms"},
		{"setup_s", median(append([]float64(nil), wr.SetupS...)), "s"},
		{"peak_rss_mb", median(rss), "MB"},
		{"alloc_mb", median(alloc), "MB"},
		{"fail_ratio", failRatio, "1"},
	}
}

// perLayer assembles a workload's per-layer metrics from the layers pass,
// its counted pass and its profiled pass.
func perLayer(layers []metricValue, counted, profiled passResult, observed bool) []metricValue {
	cost := func(name string) float64 {
		for _, l := range layers {
			if l.Name == name {
				return l.Value
			}
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	cs := counted.Counted
	if cs == nil {
		cs = &countedStats{}
	}
	plainNS := float64(cs.PlainNS)
	count := func(name string) float64 {
		for i, n := range countedNames {
			if n == name {
				return float64(cs.Kinds[i])
			}
		}
		panic("benchmark: no counted kind " + name)
	}

	out := append([]metricValue(nil), layers...)
	out = append(out,
		metricValue{"sim.events", float64(cs.Events), "count"},
		metricValue{"sim.events_per_sim_ms", ratio(float64(cs.Events), float64(cs.SimNS)/1e6), "1/ms"},
		metricValue{"sim.host_ns_per_event", ratio(plainNS, float64(cs.Events)), "ns"},
	)
	for _, name := range countedNames {
		out = append(out, metricValue{name, count(name), "count"})
	}
	// Observation overhead: the counting tracer for most workloads; for
	// observed, the rings, sampler and analysis against the hook-free fleet.
	overhead := 100 * ratio(float64(cs.CountedNS)-plainNS, plainNS)
	var ringMB float64
	if observed {
		overhead = 100 * ratio(plainNS-float64(cs.BareNS), float64(cs.BareNS))
		ringMB = ratio(float64(cs.RingBytes), float64(cs.Cells)) / (1 << 20)
	}
	out = append(out,
		metricValue{"sched.vb_wake_share", ratio(count("sched.vwake"), count("sched.wake")+count("sched.vwake")), "ratio"},
		metricValue{"sched.migrate_per_dispatch", ratio(count("sched.migrate"), count("sched.dispatch")), "ratio"},
		metricValue{"futex.waits", float64(cs.FutexWaits), "count"},
		metricValue{"futex.wakes", float64(cs.FutexWakes), "count"},
		metricValue{"epoll.waits", float64(cs.EpollWaits), "count"},
		metricValue{"epoll.posts", float64(cs.EpollPosts), "count"},
		metricValue{"bwd.windows", float64(cs.BWD.Windows), "count"},
		metricValue{"bwd.detect_ratio", ratio(float64(cs.BWD.Detections), float64(cs.BWD.Windows)), "ratio"},
		metricValue{"bwd.precision", cs.BWD.Precision(), "ratio"},
		metricValue{"bwd.false_positive_rate", cs.BWD.FalsePositiveRate(), "ratio"},
		metricValue{"trace.events", float64(cs.TraceEvents), "count"},
		metricValue{"trace.overhead_pct", overhead, "%"},
		metricValue{"trace.analysis_share", ratio(float64(cs.AnalysisNS), plainNS), "ratio"},
		metricValue{"trace.ring_mb", ringMB, "MB"},
	)

	// The count x cost model: each count times the host cost of one such
	// operation in isolation, as a share of the untraced host time.
	explained := float64(cs.Events)*cost("sim.event_push_pop_ns") +
		count("sched.dispatch")*cost("sim.proc_switch_ns") +
		(count("sched.preempt")+count("sched.slice_end"))*cost("sched.preempt_ns") +
		float64(cs.BWD.Windows)*cost("bwd.window_ns") +
		float64(cs.FutexWaits)*cost("futex.wait_wake_ns") +
		float64(cs.EpollPosts)*cost("epoll.post_wait_ns") +
		float64(cs.Analyzed)*(cost("trace.emit_ns")+cost("trace.oracle_ns_per_event")+2*cost("trace.blame_ns_per_event"))
	out = append(out, metricValue{"model.explained_pct", 100 * ratio(explained, plainNS), "%"})
	return append(out, profiled.Values...)
}

// printWorkload writes a workload's block of the human-readable report.
func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "%s: %d cells x %d passes, %d/%d failed, golden %s, output_digest %s\n",
		wr.Name, len(wr.Cells), wr.Passes, wr.Failed, wr.Attempted, wr.Golden, wr.OutputDigest)
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, m := range wr.Metrics {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
}

// contractLine is the last line of standard output in single-workload
// runs: the metrics a driver compares across commits.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContract prints a workload's contract line. fail_ratio is left out:
// attempted and failed carry it, and a regression bound needs a metric
// that is never zero.
func printContract(w io.Writer, wr *workloadResult) error {
	line := contractLine{
		Correct:   wr.Failed == 0 && wr.Golden != "mismatch",
		Attempted: wr.Attempted,
		Failed:    wr.Failed,
		Metrics:   map[string]contractMetric{},
	}
	for _, m := range wr.Metrics {
		if m.Name != "fail_ratio" {
			line.Metrics[m.Name] = contractMetric{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeResult(path string, r *result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema || r.Version != resultVersion {
		return nil, fmt.Errorf("%s: not a %s v%d result", path, resultSchema, resultVersion)
	}
	return &r, nil
}
