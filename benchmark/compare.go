package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// compare reads alternating parent/change result files (parent first),
// pairs them up, and gives every (workload, metric) a verdict:
//
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - better: over at least 10 pairs, the change wins at least 9 in 10
//     (ties count for neither) and the medians differ by more than the
//     parent's own interquartile spread;
//   - unresolved: neither, and the parent's spread is wider than the bound
//     while some change run is no better than some parent run, or the
//     change would be better but there are fewer than 10 pairs;
//   - unchanged: otherwise.

// minPairs is the fewest pairs a gain may be claimed on.
const minPairs = 10

type bound struct {
	bound  float64
	higher bool // higher is better
}

// readBounds loads the end-to-end bounds from BENCHMARK.json. fail_ratio
// is bound at 0: any increase is a regression.
func readBounds(path string) (map[string]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{"fail_ratio": {}}
	for _, m := range spec.EndToEnd {
		out[m.Name] = bound{bound: m.Bound, higher: m.Better == "higher"}
	}
	return out, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4) (exclusive method)
// of at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

type verdictRow struct {
	workload, metric, unit string
	parent, change         []float64
}

func (r verdictRow) verdict(bd bound, hasBound bool) (string, float64) {
	better := func(c, p float64) bool {
		if bd.higher {
			return c > p
		}
		return c < p
	}
	wins := 0
	for i := range r.parent {
		if better(r.change[i], r.parent[i]) {
			wins++
		}
	}
	winFrac := float64(wins) / float64(len(r.parent))
	p1, pm, p3 := quartiles(r.parent)
	_, cm, _ := quartiles(r.change)
	spread := p3 - p1
	diff := cm - pm
	if bd.higher {
		diff = -diff
	}
	// diff > 0 means the change's median is worse.
	switch {
	case hasBound && diff > bd.bound*math.Abs(pm):
		return "worse", winFrac
	case winFrac >= 0.9 && -diff > spread:
		if len(r.parent) < minPairs {
			return "unresolved", winFrac
		}
		return "better", winFrac
	case !hasBound && 1-winFrac >= 0.9 && diff > spread:
		return "worse", winFrac
	}
	allBetter := true
	for _, c := range r.change {
		for _, p := range r.parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	if hasBound && pm != 0 && spread/math.Abs(pm) > bd.bound && !allBetter {
		return "unresolved", winFrac
	}
	return "unchanged", winFrac
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchJSON := fs.String("bounds", filepath.Join(benchDir(), "..", "BENCHMARK.json"), "BENCHMARK.json holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) < 10 || len(files)%2 != 0 {
		fmt.Fprintln(stderr, "benchmark compare: want an even number (at least 10) of result files, alternating parent and change, parent first")
		return 2
	}
	bounds, err := readBounds(*benchJSON)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
		return 1
	}
	var results []*result
	for _, f := range files {
		r, err := readResult(f)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
			return 1
		}
		results = append(results, r)
	}

	var rows []verdictRow
	for _, w := range results[0].Workloads {
		for _, m := range w.Metrics {
			row := verdictRow{workload: w.Name, metric: m.Name, unit: m.Unit}
			for i, r := range results {
				v, ok := findMetric(r, w.Name, m.Name)
				if !ok {
					fmt.Fprintf(stderr, "benchmark compare: %s lacks %s/%s\n", files[i], w.Name, m.Name)
					return 1
				}
				if i%2 == 0 {
					row.parent = append(row.parent, v)
				} else {
					row.change = append(row.change, v)
				}
			}
			rows = append(rows, row)
		}
	}

	fmt.Fprintf(stdout, "%d pairs; parent revision %s, change revision %s\n",
		len(files)/2, results[0].Host.Revision, results[1].Host.Revision)
	fmt.Fprintf(stdout, "%-9s %-14s %-6s %12s %12s %12s %12s %12s %12s %6s %-10s\n",
		"workload", "metric", "unit", "parent.q1", "parent.med", "parent.q3", "change.q1", "change.med", "change.q3", "wins", "verdict")
	worse := 0
	for _, r := range rows {
		bd, hasBound := bounds[r.metric]
		v, winFrac := r.verdict(bd, hasBound)
		if v == "worse" {
			worse++
		}
		p1, pm, p3 := quartiles(r.parent)
		c1, cm, c3 := quartiles(r.change)
		fmt.Fprintf(stdout, "%-9s %-14s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %6.2f %-10s\n",
			r.workload, r.metric, r.unit, p1, pm, p3, c1, cm, c3, winFrac, v)
	}
	if worse > 0 {
		return 1
	}
	return 0
}

func findMetric(r *result, workload, metric string) (float64, bool) {
	for i := range r.Workloads {
		if r.Workloads[i].Name == workload {
			if m, ok := r.Workloads[i].metric(metric); ok {
				return m.Value, true
			}
		}
	}
	return 0, false
}
