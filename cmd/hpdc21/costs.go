package main

import (
	"fmt"
	"strings"

	"oversub"
	"oversub/internal/workload"
)

// fig1 reproduces Figure 1: normalized execution time of the whole suite
// with 8 and 32 threads on 8 cores under the vanilla kernel.
func fig1(e *env) {
	specs := oversub.Benchmarks()
	type row struct{ base, over future[oversub.BenchResult] }
	rows := make([]row, len(specs))
	for i, spec := range specs {
		rows[i].base = e.bench(spec, oversub.BenchConfig{Threads: 8, Cores: 8})
		rows[i].over = e.bench(spec, oversub.BenchConfig{Threads: 32, Cores: 8})
	}
	fmt.Fprintf(e.out, "%-14s %-8s %8s %8s   %s\n", "benchmark", "suite", "8T", "32T", "group")
	for i, spec := range specs {
		base, over := rows[i].base.wait(), rows[i].over.wait()
		group := map[oversub.Group]string{
			oversub.GroupNeutral: "unaffected",
			oversub.GroupBenefit: "benefits",
			oversub.GroupSuffer:  "suffers",
		}[spec.Group]
		fmt.Fprintf(e.out, "%-14s %-8s %8.2f %8.2f   %s\n",
			spec.Name, spec.Suite, 1.0,
			float64(over.ExecTime)/float64(base.ExecTime), group)
	}
}

// fig2 reproduces Figure 2: pure computation and computation with a shared
// atomic, 1-8 threads on a single core, yielding every minimum time slice.
func fig2(e *env) {
	const maxThreads = 8
	type pair struct {
		pure, atomic future[workload.DirectCostResult]
	}
	rows := make([]pair, maxThreads+1)
	for n := 1; n <= maxThreads; n++ {
		rows[n] = pair{e.direct(n, false), e.direct(n, true)}
	}
	fmt.Fprintf(e.out, "%-8s %12s %12s %14s %12s\n",
		"threads", "pure(norm)", "atomic(norm)", "switches", "perCS(ns)")
	base := rows[1].pure.wait()
	baseAtomic := rows[1].atomic.wait()
	for n := 1; n <= maxThreads; n++ {
		r := rows[n].pure.wait()
		ra := rows[n].atomic.wait()
		perCS := 0.0
		if r.Switches > 0 {
			perCS = float64(r.ExecTime-base.ExecTime) / float64(r.Switches)
		}
		fmt.Fprintf(e.out, "%-8d %12.4f %12.4f %14d %12.0f\n",
			n,
			float64(r.ExecTime)/float64(base.ExecTime),
			float64(ra.ExecTime)/float64(baseAtomic.ExecTime),
			r.Switches, perCS)
	}
	fmt.Fprintln(e.out, "\n(paper: ~1.5us per switch, ~0.2% total overhead, flat in thread count;")
	fmt.Fprintln(e.out, " the shared atomic adds no oversubscription penalty)")
}

// fig3 reproduces Figure 3: the distribution of compute intervals between
// synchronization operations across the suite at optimal thread counts.
// Model times are compressed ~8x relative to the testbed; the paper-scale
// column multiplies back for comparison. Purely static — no runs to fan
// out.
func fig3(e *env) {
	const modelToPaper = 8.0
	buckets := make([]int, 10)
	width := 25.0 // us per bucket at model scale
	fmt.Fprintf(e.out, "%-14s %14s %16s\n", "benchmark", "interval(model)", "interval(paper~)")
	for _, spec := range oversub.Benchmarks() {
		if spec.Sync == 0 { // SyncNone
			continue
		}
		iv := spec.Interval(spec.OptimalThreads)
		us := iv.Micros()
		idx := int(us / width)
		if idx >= len(buckets) {
			idx = len(buckets) - 1
		}
		buckets[idx]++
		fmt.Fprintf(e.out, "%-14s %12.1fus %14.0fus\n", spec.Name, us, us*modelToPaper)
	}
	fmt.Fprintln(e.out, "\nhistogram (programs per interval bucket, model scale):")
	for i, c := range buckets {
		label := fmt.Sprintf("%3.0f-%3.0fus", float64(i)*width, float64(i+1)*width)
		if i == len(buckets)-1 {
			label = fmt.Sprintf(">=%3.0fus  ", float64(i)*width)
		}
		fmt.Fprintf(e.out, "  %s %s (%d)\n", label, strings.Repeat("#", c), c)
	}
}

// fig4 reproduces Figure 4: the indirect cost of a context switch for the
// four access patterns as the total array size grows.
func fig4(e *env) {
	patterns := []oversub.Pattern{
		oversub.SeqRead, oversub.SeqRMW, oversub.RndRead, oversub.RndRMW,
	}
	sizes := []int64{
		64 << 10, 128 << 10, 256 << 10, 512 << 10,
		1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20,
		32 << 20, 64 << 20, 128 << 20,
	}
	if e.o.quick {
		sizes = []int64{256 << 10, 512 << 10, 2 << 20, 8 << 20, 32 << 20, 128 << 20}
	}
	futs := make([][]future[workload.IndirectCostResult], len(sizes))
	for si, size := range sizes {
		futs[si] = make([]future[workload.IndirectCostResult], len(patterns))
		for pi, p := range patterns {
			futs[si][pi] = e.indirect(p, size)
		}
	}
	fmt.Fprintf(e.out, "%-10s %12s %12s %12s %12s   (indirect cost per switch, us)\n",
		"size", "seq-r", "seq-rmw", "rnd-r", "rnd-rmw")
	for si, size := range sizes {
		fmt.Fprintf(e.out, "%-10s", humanBytes(size))
		for pi := range patterns {
			r := futs[si][pi].wait()
			fmt.Fprintf(e.out, " %12.2f", r.PerCS/1000)
		}
		fmt.Fprintln(e.out)
	}
	fmt.Fprintln(e.out, "\n(negative = oversubscription helps; paper: seq grows to ~1ms at 128MB,")
	fmt.Fprintln(e.out, " rnd-r dips at the L1-TLB fit, rises in 1-4MB, falls beyond; rnd-rmw")
	fmt.Fprintln(e.out, " always favourable at scale)")
}

func humanBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	}
	return fmt.Sprintf("%dB", b)
}
