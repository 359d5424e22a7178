package main

import (
	"fmt"

	"oversub"
	"oversub/internal/cluster"
	"oversub/internal/sim"
	"oversub/internal/stats"
	"oversub/internal/sweep"
	"oversub/internal/trace"
)

// completeStream returns ring's events if it recorded the complete stream
// and that stream passes the trace-invariant oracle.
func completeStream(ring *oversub.TraceRing) ([]trace.Event, error) {
	if ring.Dropped() > 0 {
		return nil, fmt.Errorf("trace ring wrapped (%d events dropped)", ring.Dropped())
	}
	events := ring.Events()
	if vs := trace.CheckStream(events); len(vs) > 0 {
		return nil, fmt.Errorf("%d trace-invariant violations (first: %s)", len(vs), vs[0])
	}
	return events, nil
}

// blameCell is one blame_policies row: completed requests, their summed
// blame components, and their latency distribution.
type blameCell struct {
	comp trace.Breakdown
	lat  stats.Digest
	n    int
}

// blamePolicies is the observability experiment: request-latency blame
// across the scheduling-policy zoo x kernel-variant grid, each cell a
// 1-machine fleet under the standard tenant mix at fixed load, fanned out
// on the shared pool. The table shows WHERE each configuration's latency
// goes: vanilla kernels burn it spinning (analytics' TTAS shards) and
// futex-sleeping (cache/web shards); VB moves lock waits into vbskip, and
// BWD deschedules the spinners.
func blamePolicies(e *env) {
	qps := 60000.0
	dur := 100 * sim.Millisecond
	if e.o.quick {
		qps = 40000.0
		dur = 50 * sim.Millisecond
	}
	policies := oversub.PolicyNames()
	variants := sweep.FleetVariants()

	fmt.Fprintf(e.out, "1-machine fleet, standard tenant mix (cache/web/analytics), qps=%.0f, %v, seed %d\n",
		qps, dur, e.o.seed)
	fmt.Fprintf(e.out, "mean per-request latency by blame component (us/request):\n\n")
	fmt.Fprintf(e.out, "  %-9s %-8s %9s", "policy", "variant", "requests")
	comps := []trace.Component{
		trace.CompOnCPU, trace.CompRunqueue, trace.CompLockWait, trace.CompSpin,
		trace.CompVBSkip, trace.CompMigration, trace.CompSleep, trace.CompQueue,
	}
	for _, c := range comps {
		fmt.Fprintf(e.out, " %9s", c)
	}
	fmt.Fprintf(e.out, " %10s %10s\n", "p50", "p99")

	run := func(pol string, v sweep.Variant) (blameCell, error) {
		cfg := cluster.FleetConfig{Machines: 1, QPS: qps, Duration: dur, Seed: e.o.seed}
		cfg.Machine.SchedPolicy = pol
		cfg.Machine.Feat = v.Feat
		cfg.Machine.Detect = v.Detect
		rings := cluster.AttachTracers(&cfg, completeStreamCap)
		if _, err := cluster.Run(cfg); err != nil {
			return blameCell{}, err
		}
		events, err := completeStream(rings[0])
		if err != nil {
			return blameCell{}, err
		}
		var c blameCell
		b := trace.ComputeBlame(events)
		for i := range b.Requests {
			c.comp.Add(&b.Requests[i].Comp)
			c.lat.Add(b.Requests[i].Latency())
		}
		c.n = len(b.Requests)
		return c, nil
	}

	// Fan the grid out on the shared pool and render in grid order, so the
	// table is byte-identical regardless of -jobs.
	var futs []future[blameCell]
	for _, pol := range policies {
		for _, v := range variants {
			futs = append(futs, submit(e, fmt.Sprintf("blame_policies/%s/%s", pol, v.Label),
				func() (blameCell, error) { return run(pol, v) }))
		}
	}
	for i, f := range futs {
		c := f.wait()
		fmt.Fprintf(e.out, "  %-9s %-8s %9d", policies[i/len(variants)], variants[i%len(variants)].Label, c.n)
		for _, comp := range comps {
			mean := 0.0
			if c.n > 0 {
				mean = c.comp[comp].Micros() / float64(c.n)
			}
			fmt.Fprintf(e.out, " %9.2f", mean)
		}
		fmt.Fprintf(e.out, " %10v %10v\n", c.lat.Percentile(50), c.lat.Percentile(99))
	}
	fmt.Fprintf(e.out, "\nReading the table: each cell is mean microseconds per completed request.\n")
	fmt.Fprintf(e.out, "Vanilla cells lose request time queueing behind spinners (analytics' TTAS\n")
	fmt.Fprintf(e.out, "shards hold CPUs) and to futex lock waits; vb parks lock waiters without\n")
	fmt.Fprintf(e.out, "a context switch and bwd deschedules detected spinners, so the queue,\n")
	fmt.Fprintf(e.out, "lockwait, and spin columns shrink and the p99 tail drops with them.\n")
}
