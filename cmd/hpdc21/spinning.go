package main

import (
	"fmt"

	"oversub"
	"oversub/internal/workload"
)

// fig13 reproduces Figure 13: the ten spinlocks under the pipeline
// micro-benchmark, in containers (no hardware spin detection exists) and
// in KVM VMs (where PLE is available but only sees PAUSE loops).
func fig13(e *env) {
	kinds := oversub.SpinLockKinds()
	type contRow struct {
		base, van, opt future[workload.SpinPipelineResult]
	}
	type kvmRow struct {
		base, van, ple, opt future[workload.SpinPipelineResult]
	}
	cont := make([]contRow, len(kinds))
	kvm := make([]kvmRow, len(kinds))
	for ki, kind := range kinds {
		cont[ki] = contRow{
			base: e.spin(kind, 8, 8, oversub.DetectOff, false),
			van:  e.spin(kind, 32, 8, oversub.DetectOff, false),
			opt:  e.spin(kind, 32, 8, oversub.DetectBWD, false),
		}
		kvm[ki] = kvmRow{
			base: e.spin(kind, 8, 8, oversub.DetectOff, true),
			van:  e.spin(kind, 32, 8, oversub.DetectOff, true),
			ple:  e.spin(kind, 32, 8, oversub.DetectPLE, true),
			opt:  e.spin(kind, 32, 8, oversub.DetectBWD, true),
		}
	}

	fmt.Fprintln(e.out, "(a) container (execution time, ms)")
	fmt.Fprintf(e.out, "%-12s %12s %12s %14s\n", "lock", "8T(van)", "32T(van)", "32T(optimized)")
	for ki, kind := range kinds {
		r := cont[ki]
		fmt.Fprintf(e.out, "%-12s %12.1f %12.1f %14.1f\n", kind,
			r.base.wait().ExecTime.Millis(), r.van.wait().ExecTime.Millis(),
			r.opt.wait().ExecTime.Millis())
	}

	fmt.Fprintln(e.out, "\n(b) KVM (execution time, ms)")
	fmt.Fprintf(e.out, "%-12s %12s %12s %12s %14s\n", "lock", "8T(van)", "32T(van)", "32T(PLE)", "32T(optimized)")
	for ki, kind := range kinds {
		r := kvm[ki]
		fmt.Fprintf(e.out, "%-12s %12.1f %12.1f %12.1f %14.1f\n", kind,
			r.base.wait().ExecTime.Millis(), r.van.wait().ExecTime.Millis(),
			r.ple.wait().ExecTime.Millis(), r.opt.wait().ExecTime.Millis())
	}
	fmt.Fprintln(e.out, "\n(paper: BWD restores 32T near the 8T baseline for every algorithm;")
	fmt.Fprintln(e.out, " PLE tracks vanilla — it cannot see loops without PAUSE)")
}

// fig14 reproduces Figure 14: user-customized spinning in lu (NPB) and
// volrend (SPLASH-2), 8-32 threads on 8 cores, container and VM.
func fig14(e *env) {
	names := []string{"lu", "volrend"}
	envs := []struct {
		label string
		vm    bool
	}{{"container", false}, {"VM", true}}
	threadCounts := []int{8, 16, 32}
	type row struct {
		van, opt future[oversub.BenchResult]
		ple      future[oversub.BenchResult]
		hasPLE   bool
	}
	futs := make([][][]row, len(names))
	for ni, name := range names {
		spec := oversub.FindBenchmark(name)
		futs[ni] = make([][]row, len(envs))
		for ei, env := range envs {
			futs[ni][ei] = make([]row, len(threadCounts))
			for ti, threads := range threadCounts {
				feat := oversub.Features{VM: env.vm}
				r := row{
					van: e.bench(spec, oversub.BenchConfig{Threads: threads, Cores: 8, Feat: feat}),
					opt: e.bench(spec, oversub.BenchConfig{
						Threads: threads, Cores: 8, Feat: feat,
						Detect: oversub.DetectBWD,
					}),
				}
				if env.vm {
					r.hasPLE = true
					r.ple = e.bench(spec, oversub.BenchConfig{
						Threads: threads, Cores: 8, Feat: feat,
						Detect: oversub.DetectPLE,
					})
				}
				futs[ni][ei][ti] = r
			}
		}
	}
	for ni, name := range names {
		for ei, env := range envs {
			fmt.Fprintf(e.out, "\n-- %s, %s (execution time, ms) --\n", name, env.label)
			fmt.Fprintf(e.out, "%-8s %12s %12s %12s\n", "threads", "vanilla", "PLE", "optimized")
			for ti, threads := range threadCounts {
				r := futs[ni][ei][ti]
				pleStr := "n/a"
				if r.hasPLE {
					pleStr = fmt.Sprintf("%.1f", r.ple.wait().ExecTime.Millis())
				}
				fmt.Fprintf(e.out, "%-8d %12.1f %12s %12.1f\n", threads,
					r.van.wait().ExecTime.Millis(), pleStr, r.opt.wait().ExecTime.Millis())
			}
		}
	}
	fmt.Fprintln(e.out, "\n(paper: vanilla collapses up to ~25x at 32T; BWD brings performance")
	fmt.Fprintln(e.out, " near the undersubscribed level; PLE is blind to these plain test loops)")
}

// tab2 reproduces Table 2: BWD's true-positive rate per spinlock.
func tab2(e *env) {
	tries := 4000
	if e.o.quick {
		tries = 800
	}
	kinds := oversub.SpinLockKinds()
	futs := make([]future[workload.SensitivityResult], len(kinds))
	for ki, kind := range kinds {
		futs[ki] = e.sens(kind, tries)
	}
	fmt.Fprintf(e.out, "%-12s %12s %12s %14s\n", "spinlock", "#tries", "#TPs", "sensitivity(%)")
	for ki, kind := range kinds {
		r := futs[ki].wait()
		fmt.Fprintf(e.out, "%-12s %12d %12d %14.2f\n",
			kind, r.Tries, r.TruePos, 100*r.Sensitivity)
	}
	fmt.Fprintln(e.out, "\n(paper: 99.76-99.90% across all ten algorithms)")
}

// tab3 reproduces Table 3: BWD's false-positive rate and overhead on eight
// blocking NPB benchmarks that contain no spinning.
func tab3(e *env) {
	specs := workload.Table3Benchmarks()
	type row struct{ off, on future[oversub.BenchResult] }
	rows := make([]row, len(specs))
	for ni, spec := range specs {
		rows[ni] = row{
			off: e.bench(spec, oversub.BenchConfig{Threads: 32, Cores: 8}),
			on:  e.bench(spec, oversub.BenchConfig{Threads: 32, Cores: 8, Detect: oversub.DetectBWD}),
		}
	}
	fmt.Fprintf(e.out, "%-6s %12s %10s %15s %15s\n",
		"app", "#windows", "#FPs", "specificity(%)", "FP overhead(%)")
	for ni, spec := range specs {
		off, on := rows[ni].off.wait(), rows[ni].on.wait()
		spec99 := 100.0
		if on.BWD.Windows > 0 {
			spec99 = 100 * (1 - float64(on.BWD.FalsePositive)/float64(on.BWD.Windows))
		}
		overhead := 100 * (float64(on.ExecTime)/float64(off.ExecTime) - 1)
		if overhead < 0 {
			overhead = 0
		}
		fmt.Fprintf(e.out, "%-6s %12d %10d %15.2f %15.2f\n",
			spec.Name, on.BWD.Windows, on.BWD.FalsePositive, spec99, overhead)
	}
	fmt.Fprintln(e.out, "\n(paper: specificity 99.38-99.99%, FP overhead at most ~1%)")
}

// fig15 reproduces Figure 15: pthread vs Mutexee vs MCS-TP vs SHFLLOCK vs
// the paper's mechanisms, 32 threads on 8 cores, normalized to 8T vanilla.
func fig15(e *env) {
	specs := workload.Fig15Benchmarks()
	impls := []string{"pthread", "mutexee", "mcstp", "shfllock"}
	type row struct {
		base  future[oversub.BenchResult]
		locks []future[oversub.BenchResult]
		opt   future[oversub.BenchResult]
	}
	rows := make([]row, len(specs))
	for ni, spec := range specs {
		r := row{
			base:  e.bench(spec, oversub.BenchConfig{Threads: 8, Cores: 8}),
			locks: make([]future[oversub.BenchResult], len(impls)),
			opt: e.bench(spec, oversub.BenchConfig{
				Threads: 32, Cores: 8,
				Feat: oversub.Features{VB: true}, Detect: oversub.DetectBWD,
			}),
		}
		for ii, impl := range impls {
			r.locks[ii] = e.bench(spec, oversub.BenchConfig{Threads: 32, Cores: 8, LockImpl: impl})
		}
		rows[ni] = r
	}
	fmt.Fprintf(e.out, "%-14s", "benchmark")
	for _, impl := range impls {
		fmt.Fprintf(e.out, " %10s", impl)
	}
	fmt.Fprintf(e.out, " %10s\n", "optimized")
	for ni, spec := range specs {
		r := rows[ni]
		base := r.base.wait()
		fmt.Fprintf(e.out, "%-14s", spec.Name)
		for ii := range impls {
			lr := r.locks[ii].wait()
			fmt.Fprintf(e.out, " %10.2f", float64(lr.ExecTime)/float64(base.ExecTime))
		}
		opt := r.opt.wait()
		fmt.Fprintf(e.out, " %10.2f\n", float64(opt.ExecTime)/float64(base.ExecTime))
	}
	fmt.Fprintln(e.out, "\n(paper: spin-then-park algorithms still collapse under oversubscription;")
	fmt.Fprintln(e.out, " VB+BWD are up to 5.4x more efficient and need no code changes)")
}
