package main

import (
	"fmt"

	"oversub"
	"oversub/internal/workload"
)

// fig9 reproduces Figure 9: vanilla vs optimized (VB) execution on the
// blocking benchmarks at 8 cores and at 8 hyper-threads of 4 cores,
// normalized to 8 threads on vanilla in each configuration.
func fig9(e *env) {
	type cfg struct {
		label string
		cores int
		smt   int
	}
	hwcs := []cfg{{"8 cores (HT off)", 8, 1}, {"8 hyper-threads on 4 cores", 4, 2}}
	specs := workload.Fig9Benchmarks()
	type row struct{ base, van, opt future[oversub.BenchResult] }
	rows := make([][]row, len(hwcs))
	for hi, hwc := range hwcs {
		rows[hi] = make([]row, len(specs))
		for si, spec := range specs {
			rows[hi][si] = row{
				base: e.bench(spec, oversub.BenchConfig{Threads: 8, Cores: hwc.cores, SMT: hwc.smt}),
				van:  e.bench(spec, oversub.BenchConfig{Threads: 32, Cores: hwc.cores, SMT: hwc.smt}),
				opt: e.bench(spec, oversub.BenchConfig{
					Threads: 32, Cores: hwc.cores, SMT: hwc.smt,
					Feat: oversub.Features{VB: true},
				}),
			}
		}
	}
	for hi, hwc := range hwcs {
		fmt.Fprintf(e.out, "\n-- %s --\n", hwc.label)
		fmt.Fprintf(e.out, "%-14s %10s %12s %14s\n", "benchmark", "8T(van)", "32T(van)", "32T(optimized)")
		for si, spec := range specs {
			base := rows[hi][si].base.wait()
			van := rows[hi][si].van.wait()
			opt := rows[hi][si].opt.wait()
			fmt.Fprintf(e.out, "%-14s %10.2f %12.2f %14.2f\n", spec.Name,
				1.0,
				float64(van.ExecTime)/float64(base.ExecTime),
				float64(opt.ExecTime)/float64(base.ExecTime))
		}
	}
	fmt.Fprintln(e.out, "\n(paper: vanilla 32T 5.5%-56.7% slower; VB close to baseline, below it")
	fmt.Fprintln(e.out, " for freqmine/ocean/cg/mg; fluidanimate retains residual overhead)")
}

// fig10 reproduces Figure 10: VB speedups on pthread mutex, condition
// variable, and barrier micro-benchmarks.
func fig10(e *env) {
	prims := []workload.Primitive{oversub.PrimMutex, oversub.PrimCond, oversub.PrimBarrier}
	threadCounts := []int{1, 2, 4, 8, 16, 32}
	coreCounts := []int{1, 2, 4, 8, 16, 32}
	type pair struct{ van, vb future[oversub.Duration] }

	byThreads := make([][]pair, len(threadCounts))
	for ni, n := range threadCounts {
		byThreads[ni] = make([]pair, len(prims))
		for pi, p := range prims {
			byThreads[ni][pi] = pair{e.prim(p, n, 1, false), e.prim(p, n, 1, true)}
		}
	}
	byCores := make([][]pair, len(coreCounts))
	for ci, c := range coreCounts {
		byCores[ci] = make([]pair, len(prims))
		for pi, p := range prims {
			byCores[ci][pi] = pair{e.prim(p, 32, c, false), e.prim(p, 32, c, true)}
		}
	}

	fmt.Fprintln(e.out, "(a) varying threads on a single core (speedup of VB over vanilla)")
	fmt.Fprintf(e.out, "%-10s", "threads")
	for _, p := range prims {
		fmt.Fprintf(e.out, " %16s", p)
	}
	fmt.Fprintln(e.out)
	for ni, n := range threadCounts {
		fmt.Fprintf(e.out, "%-10d", n)
		for pi := range prims {
			van, vb := byThreads[ni][pi].van.wait(), byThreads[ni][pi].vb.wait()
			fmt.Fprintf(e.out, " %16.2f", float64(van)/float64(vb))
		}
		fmt.Fprintln(e.out)
	}

	fmt.Fprintln(e.out, "\n(b) 32 threads on varying cores (speedup of VB over vanilla)")
	fmt.Fprintf(e.out, "%-10s", "cores")
	for _, p := range prims {
		fmt.Fprintf(e.out, " %16s", p)
	}
	fmt.Fprintln(e.out)
	for ci, c := range coreCounts {
		fmt.Fprintf(e.out, "%-10d", c)
		for pi := range prims {
			van, vb := byCores[ci][pi].van.wait(), byCores[ci][pi].vb.wait()
			fmt.Fprintf(e.out, " %16.2f", float64(van)/float64(vb))
		}
		fmt.Fprintln(e.out)
	}
	fmt.Fprintln(e.out, "\n(paper: barrier 1.52x and cond 2.34x on one core, rising to 3x/5x on")
	fmt.Fprintln(e.out, " more cores; mutex gains little — only one waiter wakes at a time)")
}

// tab1 reproduces Table 1: CPU utilization and migration counts for the
// blocking benchmarks under 8T, 32T vanilla, and 32T optimized.
func tab1(e *env) {
	specs := workload.Fig9Benchmarks()
	type row struct{ base, van, opt future[oversub.BenchResult] }
	rows := make([]row, len(specs))
	for si, spec := range specs {
		rows[si] = row{
			base: e.bench(spec, oversub.BenchConfig{Threads: 8, Cores: 8}),
			van:  e.bench(spec, oversub.BenchConfig{Threads: 32, Cores: 8}),
			opt:  e.bench(spec, oversub.BenchConfig{Threads: 32, Cores: 8, Feat: oversub.Features{VB: true}}),
		}
	}
	fmt.Fprintf(e.out, "%-14s | %21s | %26s | %26s\n", "",
		"CPU utilization(%)", "#In-node migrations", "#Cross-node migrations")
	fmt.Fprintf(e.out, "%-14s | %6s %6s %6s | %8s %8s %8s | %8s %8s %8s\n",
		"app", "8T", "32T", "Opt", "8T", "32T", "Opt", "8T", "32T", "Opt")
	for si, spec := range specs {
		base, van, opt := rows[si].base.wait(), rows[si].van.wait(), rows[si].opt.wait()
		fmt.Fprintf(e.out, "%-14s | %6.0f %6.0f %6.0f | %8d %8d %8d | %8d %8d %8d\n",
			spec.Name,
			base.UtilPct, van.UtilPct, opt.UtilPct,
			base.Metrics.MigrationsInNode, van.Metrics.MigrationsInNode, opt.Metrics.MigrationsInNode,
			base.Metrics.MigrationsCrossNode, van.Metrics.MigrationsCrossNode, opt.Metrics.MigrationsCrossNode)
	}
	fmt.Fprintln(e.out, "\n(paper: vanilla 32T loses utilization and migrates excessively; Opt")
	fmt.Fprintln(e.out, " restores utilization and cuts migrations by orders of magnitude)")
}

// fig11 reproduces Figure 11: runtime adaptation. Runs start on 8 cores
// and the cpuset is resized early in the run, as the paper varies cores at
// runtime.
func fig11(e *env) {
	specs := workload.Fig11Benchmarks()
	coreCounts := []int{2, 4, 8, 16, 32}
	type row [5]future[oversub.BenchResult]
	futs := make([][]row, len(specs))
	for si, spec := range specs {
		futs[si] = make([]row, len(coreCounts))
		for ci, cores := range coreCounts {
			run := func(threads int, feat oversub.Features, detect oversub.DetectMode) future[oversub.BenchResult] {
				return e.bench(spec, oversub.BenchConfig{
					Threads: threads, Cores: 8,
					Feat: feat, Detect: detect,
					Horizon: 5 * oversub.Second,
					Plan:    []oversub.CPUChange{{At: 2 * oversub.Millisecond, Cores: cores}},
				})
			}
			futs[si][ci] = row{
				run(cores, oversub.Features{}, oversub.DetectOff),
				run(8, oversub.Features{}, oversub.DetectOff),
				run(32, oversub.Features{}, oversub.DetectOff),
				run(32, oversub.Features{Pinned: true}, oversub.DetectOff),
				run(32, oversub.Features{VB: true}, oversub.DetectBWD),
			}
		}
	}
	for si, spec := range specs {
		fmt.Fprintf(e.out, "\n-- %s (execution time, ms) --\n", spec.Name)
		fmt.Fprintf(e.out, "%-8s %12s %12s %12s %12s %12s\n",
			"cores", "#coreT(van)", "8T(van)", "32T(van)", "32T(pinned)", "32T(opt)")
		for ci, cores := range coreCounts {
			r := futs[si][ci]
			// A failed run renders as "hang"; the paper observes the same:
			// "programs crashed when CPU count decreased" under pinning.
			fmt.Fprintf(e.out, "%-8d %12s %12s %12s %12s %12s\n", cores,
				execMS(r[0]), execMS(r[1]), execMS(r[2]), execMS(r[3]), execMS(r[4]))
		}
	}
	fmt.Fprintln(e.out, "\n(paper: with VB, 32 threads track the best configuration at every core")
	fmt.Fprintln(e.out, " count — users can always over-provision threads for elasticity)")
}

// fig12 reproduces Figure 12: memcached throughput and latency across core
// counts for 4 workers, 16 workers vanilla, and 16 workers optimized.
func fig12(e *env) {
	requests := 20000
	if e.o.quick {
		requests = 5000
	}
	coreCounts := []int{4, 8, 16}
	rows := []struct {
		label   string
		workers int
		vb      bool
	}{
		{"4T(vanilla)", 4, false},
		{"16T(vanilla)", 16, false},
		{"16T(optimized)", 16, true},
	}
	futs := make([][]future[oversub.MemcachedResult], len(coreCounts))
	for ci, cores := range coreCounts {
		futs[ci] = make([]future[oversub.MemcachedResult], len(rows))
		for ri, row := range rows {
			futs[ci][ri] = e.memcached(oversub.MemcachedConfig{
				Workers: row.workers, Cores: cores, VB: row.vb,
				Requests: requests,
			})
		}
	}
	fmt.Fprintf(e.out, "%-8s %-14s %12s %12s %12s %12s\n",
		"cores", "config", "tput(ops/s)", "mean(us)", "p95(us)", "p99(us)")
	for ci, cores := range coreCounts {
		for ri, row := range rows {
			r := futs[ci][ri].wait()
			fmt.Fprintf(e.out, "%-8d %-14s %12.0f %12.1f %12.1f %12.1f\n",
				cores, row.label, r.ThroughputOpsSec,
				r.Mean.Micros(), r.P95.Micros(), r.P99.Micros())
		}
	}
	fmt.Fprintln(e.out, "\n(paper: oversubscription costs ~5.6% throughput and ~6% mean latency")
	fmt.Fprintln(e.out, " but 8x tail latency; VB recovers most of the tail)")
}
