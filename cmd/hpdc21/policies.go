package main

import (
	"fmt"

	"oversub"
	"oversub/internal/trace"
)

// policyCell is one traced run's distilled outcome: execution time plus the
// wake-to-dispatch latency tails the policy zoo is compared on.
type policyCell struct {
	execMS  float64
	wakeN   int
	wakeP50 oversub.Duration
	wakeP99 oversub.Duration
	vwakeN  int
	vwakeP9 oversub.Duration
}

// policies runs the policy-zoo comparison: every registered scheduling
// policy runs the paper's headline workload (streamcluster, 16 threads on
// 4 cores) under vanilla and VB kernels with full tracing, the trace is
// validated against the invariant oracle, and the derived wake-to-dispatch
// latency distributions are tabulated.
func policies(e *env) {
	spec := oversub.FindBenchmark("streamcluster")
	if spec == nil {
		fmt.Fprintln(e.out, "streamcluster missing from the suite")
		return
	}
	scale := 0.25 * e.o.scale
	if e.o.quick {
		scale = 0.05
	}
	variants := []struct {
		label string
		feat  oversub.Features
	}{
		{"vanilla", oversub.Features{}},
		{"vb", oversub.Features{VB: true}},
	}
	pols := oversub.PolicyNames()

	run := func(pol string, feat oversub.Features) (policyCell, error) {
		ring := oversub.NewTraceRing(completeStreamCap)
		r := oversub.RunBenchmark(spec, oversub.BenchConfig{
			Threads: 16, Cores: 4, Seed: e.o.seed, WorkScale: scale,
			Feat: feat, Policy: pol, Tracer: ring,
		})
		if r.Err != nil {
			return policyCell{}, r.Err
		}
		events, err := completeStream(ring)
		if err != nil {
			return policyCell{}, err
		}
		a := trace.Analyze(events)
		e.pool.ReportSim(int64(r.ExecTime))
		return policyCell{
			execMS:  r.ExecTime.Millis(),
			wakeN:   a.Latency.Wake.Count(),
			wakeP50: a.Latency.Wake.Percentile(50),
			wakeP99: a.Latency.Wake.Percentile(99),
			vwakeN:  a.Latency.VWake.Count(),
			vwakeP9: a.Latency.VWake.Percentile(99),
		}, nil
	}

	// Fan the grid out on the shared pool and collect in grid order, so the
	// table is byte-identical regardless of -jobs.
	type point struct {
		pol string
		vi  int
	}
	var pts []point
	for _, pol := range pols {
		for vi := range variants {
			pts = append(pts, point{pol, vi})
		}
	}
	futs := make([]future[policyCell], len(pts))
	for i, pt := range pts {
		label := fmt.Sprintf("policies/%s/%s", pt.pol, variants[pt.vi].label)
		futs[i] = submit(e, label, func() (policyCell, error) { return run(pt.pol, variants[pt.vi].feat) })
	}

	fmt.Fprintf(e.out, "streamcluster 16T/4c scale=%.2f seed=%d: wake-to-dispatch latency by policy\n\n", scale, e.o.seed)
	fmt.Fprintf(e.out, "%-10s %-8s %10s %8s %10s %10s %10s\n",
		"policy", "variant", "exec(ms)", "wakes", "p50(us)", "p99(us)", "vb p99(us)")
	for i, pt := range pts {
		c := futs[i].wait()
		vb99 := "-"
		if c.vwakeN > 0 {
			vb99 = fmt.Sprintf("%.1f", c.vwakeP9.Micros())
		}
		fmt.Fprintf(e.out, "%-10s %-8s %10.1f %8d %10.1f %10.1f %10s\n",
			pt.pol, variants[pt.vi].label, c.execMS,
			c.wakeN, c.wakeP50.Micros(), c.wakeP99.Micros(), vb99)
	}
	fmt.Fprintln(e.out)
	fmt.Fprintln(e.out, "Every cell's trace passed the invariant oracle. edf tracks cfs here")
	fmt.Fprintln(e.out, "(sync intervals set the deadlines, so deadline order ~ fair order).")
	fmt.Fprintln(e.out, "shinjuku's 5 us quantum shortens wake tails by preempting quickly and")
	fmt.Fprintln(e.out, "pays for it in execution time (switch overhead). The SRPT oracle")
	fmt.Fprintln(e.out, "dispatches woken threads first (a consumed blocking directive reveals")
	fmt.Fprintln(e.out, "zero remaining demand), minimizing p50; its tail depends on how barrier")
	fmt.Fprintln(e.out, "phases align with the remaining-work order — clairvoyance about demand")
	fmt.Fprintln(e.out, "is not clairvoyance about dependencies.")
}
