package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain routes pass children, which the parent starts as copies of this
// test binary, into the benchmark instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runBenchmark runs the benchmark in this process (its passes in child
// processes) and returns the result file and standard output.
func runBenchmark(t *testing.T, args ...string) (*result, string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "-quick", "-seed", "5", "-out", out), &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d:\n%s", args, code, stderr.String())
	}
	r, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	return r, stdout.String()
}

// checkDeclared asserts that every workload reports every declared metric
// with its declared unit.
func checkDeclared(t *testing.T, r *result, declared []specMetric, nonZero bool) {
	t.Helper()
	if len(r.Workloads) != len(workloads()) {
		t.Fatalf("result has %d workloads, want %d", len(r.Workloads), len(workloads()))
	}
	for i := range r.Workloads {
		w := &r.Workloads[i]
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d cell runs failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		for _, d := range declared {
			m, ok := w.metric(d.Name)
			switch {
			case !ok:
				t.Errorf("%s: metric %s not emitted", w.Name, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, d.Name, m.Unit, d.Unit)
			case nonZero && !(m.Value > 0):
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, m.Value)
			}
		}
	}
}

func TestSpecMatchesWorkloads(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, want)
	}
}

func TestQuickTimedAndTraced(t *testing.T) {
	s := readSpec(t)

	timed, _ := runBenchmark(t, "-passes", "2")
	checkDeclared(t, timed, s.EndToEnd, true)
	for _, w := range timed.Workloads {
		if m, _ := w.metric("fail_ratio"); m.Value != 0 {
			t.Errorf("%s: fail_ratio %v", w.Name, m.Value)
		}
	}

	first, _ := runBenchmark(t, "-trace", "1")
	second, _ := runBenchmark(t, "-trace", "1")
	checkDeclared(t, first, s.PerLayer, false)
	for i := range first.Workloads {
		a, b := &first.Workloads[i], &second.Workloads[i]
		if a.OutputDigest != b.OutputDigest || a.OutputDigest != timed.Workloads[i].OutputDigest {
			t.Errorf("%s: output digests differ: %s %s %s", a.Name, timed.Workloads[i].OutputDigest, a.OutputDigest, b.OutputDigest)
		}
		for _, m := range a.Metrics {
			if m.Unit != "count" {
				continue
			}
			if n, _ := b.metric(m.Name); n.Value != m.Value {
				t.Errorf("%s: count %s differs across runs: %v vs %v", a.Name, m.Name, m.Value, n.Value)
			}
		}
	}
	if pre := first.Workloads[1]; pre.Name == "preempt" {
		if m, _ := pre.metric("futex.waits"); m.Value != 0 {
			t.Errorf("preempt: futex.waits = %v, want 0", m.Value)
		}
	}
}

// TestContractLine checks the single-workload output: the last line of
// standard output is the JSON object a driver reads.
func TestContractLine(t *testing.T) {
	s := readSpec(t)
	r, stdout := runBenchmark(t, "-workload", "preempt", "-seconds", "0.001")
	if r.Workloads[0].Passes != minPasses {
		t.Errorf("adaptive run made %d passes, want the minimum %d", r.Workloads[0].Passes, minPasses)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("contract line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("contract line has %d keys, want 4", len(line))
	}
	var metrics map[string]contractMetric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(s.EndToEnd) {
		t.Errorf("contract line has %d metrics, BENCHMARK.json declares %d", len(metrics), len(s.EndToEnd))
	}
	for _, d := range s.EndToEnd {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("contract line metric %s = %+v", d.Name, m)
		}
	}
}

func TestVerdicts(t *testing.T) {
	series := func(n int, base, step float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = base + step*float64(i%3)
		}
		return out
	}
	lower := bound{bound: 0.1}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster on 10 pairs", series(10, 100, 1), series(10, 90, 1), "better"},
		{"faster on 5 pairs", series(5, 100, 1), series(5, 90, 1), "unresolved"},
		{"slower beyond the bound", series(10, 100, 1), series(10, 115, 1), "worse"},
		{"slower within the bound", series(10, 100, 1), series(10, 105, 1), "unchanged"},
		{"parent spread wider than the bound", series(10, 100, 30), series(10, 101, 30), "unresolved"},
	} {
		if got, _ := (verdictRow{parent: c.parent, change: c.change}).verdict(lower, true); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c[0]-c[1]) > 1e-12 {
			t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
}
