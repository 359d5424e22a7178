package main

import (
	"context"
	"fmt"
	"io"

	"oversub"
	"oversub/internal/runner"
	"oversub/internal/workload"
)

// env is what each experiment receives: its output destination (a private
// buffer when experiments run in parallel) plus the process-wide run pool.
type env struct {
	o    options
	out  io.Writer
	pool *runner.Pool
}

// future is a typed handle on a pooled computation.
type future[T any] struct{ f *runner.Future }

// wait returns the computation's value. A run that failed (returned an
// error or panicked) fails the experiment waiting on it: the failure is
// re-raised, the experiment's own job captures it, and runExperiments
// reports it on stderr and exits 1 instead of rendering a zero-valued row.
func (f future[T]) wait() T {
	r := f.f.Wait()
	if r.Err != nil {
		panic(fmt.Errorf("run %s failed: %w", r.Label, r.Err))
	}
	return r.Value.(T)
}

// submit schedules fn on the shared pool. The job starts immediately if an
// executor is free; otherwise the first wait() runs it inline. An error
// from fn fails the run.
func submit[T any](e *env, label string, fn func() (T, error)) future[T] {
	return future[T]{e.pool.Submit(nil, runner.Job{
		Label: label,
		Fn:    func(context.Context) (any, error) { return fn() },
	})}
}

// bench schedules one suite-benchmark run at the invocation's seed, work
// scale (-scale, x0.3 under -quick) and policy.
func (e *env) bench(spec *oversub.BenchSpec, cfg oversub.BenchConfig) future[oversub.BenchResult] {
	cfg.Seed = e.o.seed
	cfg.WorkScale = e.o.scale
	if e.o.quick {
		cfg.WorkScale *= 0.3
	}
	cfg.Policy = e.o.policy
	label := fmt.Sprintf("%s/%dT/%dc", spec.Name, cfg.Threads, cfg.Cores)
	return submit(e, label, func() (oversub.BenchResult, error) {
		r := oversub.RunBenchmark(spec, cfg)
		e.pool.ReportSim(int64(r.ExecTime))
		return r, nil
	})
}

// execMS renders a finished run's execution time in ms, or "hang".
func execMS(f future[oversub.BenchResult]) string {
	r := f.wait()
	if r.Err != nil {
		return "hang"
	}
	return fmt.Sprintf("%.1f", r.ExecTime.Millis())
}

// memcached schedules one memcached service run at the invocation's seed
// and policy.
func (e *env) memcached(cfg oversub.MemcachedConfig) future[oversub.MemcachedResult] {
	cfg.Seed = e.o.seed
	cfg.Policy = e.o.policy
	label := fmt.Sprintf("memcached/%dw/%dc", cfg.Workers, cfg.Cores)
	return submit(e, label, func() (oversub.MemcachedResult, error) {
		r := oversub.RunMemcached(cfg)
		e.pool.ReportSim(int64(r.ExecTime))
		return r, nil
	})
}

// direct schedules one Figure 2 direct-cost micro-benchmark run.
func (e *env) direct(threads int, atomicShared bool) future[workload.DirectCostResult] {
	label := fmt.Sprintf("direct/%dT", threads)
	return submit(e, label, func() (workload.DirectCostResult, error) {
		return oversub.DirectCost(threads, atomicShared, e.o.seed), nil
	})
}

// indirect schedules one Figure 4 indirect-cost micro-benchmark run.
func (e *env) indirect(p oversub.Pattern, totalBytes int64) future[workload.IndirectCostResult] {
	label := fmt.Sprintf("indirect/%s", humanBytes(totalBytes))
	return submit(e, label, func() (workload.IndirectCostResult, error) {
		return oversub.IndirectCost(p, totalBytes, e.o.seed), nil
	})
}

// prim schedules one Figure 10 primitive-stress run.
func (e *env) prim(p workload.Primitive, threads, cores int, vb bool) future[oversub.Duration] {
	label := fmt.Sprintf("prim/%s/%dT/%dc", p, threads, cores)
	return submit(e, label, func() (oversub.Duration, error) {
		return oversub.PrimitiveStress(p, threads, cores, vb, e.o.seed), nil
	})
}

// spin schedules one Figure 13 spin-pipeline run.
func (e *env) spin(kind oversub.SpinLockKind, threads, cores int, detect oversub.DetectMode, vm bool) future[workload.SpinPipelineResult] {
	label := fmt.Sprintf("spin/%v/%dT", kind, threads)
	return submit(e, label, func() (workload.SpinPipelineResult, error) {
		return oversub.SpinPipeline(kind, threads, cores, detect, vm, e.o.seed), nil
	})
}

// sens schedules one Table 2 sensitivity run.
func (e *env) sens(kind oversub.SpinLockKind, tries int) future[workload.SensitivityResult] {
	label := fmt.Sprintf("sens/%v", kind)
	return submit(e, label, func() (workload.SensitivityResult, error) {
		return oversub.Sensitivity(kind, tries, e.o.seed), nil
	})
}
