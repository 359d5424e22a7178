package oversub

import (
	"oversub/internal/metrics"
	"oversub/internal/sim"
	"oversub/internal/trace"
	"oversub/internal/workload"
)

// Benchmark-suite sub-API: the paper's evaluation workloads, re-exported
// for examples, the cmd/hpdc21 experiment runner, and the benchmark/ module.
type (
	// BenchSpec describes one suite program (PARSEC/SPLASH-2/NPB model).
	BenchSpec = workload.Spec
	// BenchConfig configures one benchmark execution.
	BenchConfig = workload.RunConfig
	// BenchResult is the outcome of one benchmark execution.
	BenchResult = workload.Result
	// CPUChange schedules a cpuset resize during a run.
	CPUChange = workload.CPUChange
	// MemcachedConfig configures the memcached experiment.
	MemcachedConfig = workload.MemcachedConfig
	// MemcachedResult reports memcached service metrics.
	MemcachedResult = workload.MemcachedResult
	// WebConfig configures the CloudSuite-style web-serving experiment.
	WebConfig = workload.WebConfig
	// WebResult reports web-serving service metrics.
	WebResult = workload.WebResult
	// SpinLockKind identifies one of the ten Figure 13 spinlocks.
	SpinLockKind = workload.SpinLockKind
	// Group is the Figure 1 benchmark classification.
	Group = workload.Group
)

// Figure 1 groups.
const (
	GroupNeutral = workload.GroupNeutral
	GroupBenefit = workload.GroupBenefit
	GroupSuffer  = workload.GroupSuffer
)

// Benchmarks returns the full 32-program suite in Figure 1 order.
func Benchmarks() []*BenchSpec { return workload.Suite() }

// FindBenchmark returns the named suite program, or nil.
func FindBenchmark(name string) *BenchSpec { return workload.Find(name) }

// RunBenchmark executes a suite program under the given configuration.
func RunBenchmark(spec *BenchSpec, cfg BenchConfig) BenchResult {
	return workload.Run(spec, cfg)
}

// RunMemcached executes the memcached service experiment (Figure 12).
func RunMemcached(cfg MemcachedConfig) MemcachedResult {
	return workload.Memcached(cfg)
}

// RunWebServing executes the web-serving experiment (the CloudSuite
// workload §4.2 mentions alongside memcached).
func RunWebServing(cfg WebConfig) WebResult {
	return workload.WebServing(cfg)
}

// SpinLockKinds lists the ten Figure 13 spinlocks in paper order.
func SpinLockKinds() []SpinLockKind { return workload.SpinLockKinds() }

// SpinPipeline runs the Figure 13 busy-waiting micro-benchmark.
func SpinPipeline(kind SpinLockKind, threads, cores int, detect DetectMode, vm bool, seed uint64) workload.SpinPipelineResult {
	return workload.SpinPipeline(kind, threads, cores, detect, vm, seed)
}

// DirectCost runs the Figure 2 direct context-switch cost micro-benchmark.
func DirectCost(threads int, atomicShared bool, seed uint64) workload.DirectCostResult {
	return workload.DirectCost(threads, atomicShared, seed)
}

// IndirectCost runs the Figure 4 indirect cost micro-benchmark.
func IndirectCost(p Pattern, totalBytes int64, seed uint64) workload.IndirectCostResult {
	return workload.IndirectCost(p, totalBytes, seed)
}

// Sensitivity runs the Table 2 true-positive micro-benchmark.
func Sensitivity(kind SpinLockKind, tries int, seed uint64) workload.SensitivityResult {
	return workload.Sensitivity(kind, tries, seed)
}

// PrimitiveStress runs the Figure 10 blocking-primitive micro-benchmark
// and returns total execution time.
func PrimitiveStress(prim workload.Primitive, threads, cores int, vb bool, seed uint64) sim.Duration {
	return workload.PrimitiveStress(prim, threads, cores, vb, seed)
}

// Figure 10 primitives.
const (
	PrimMutex   = workload.PrimMutex
	PrimCond    = workload.PrimCond
	PrimBarrier = workload.PrimBarrier
)

// NewTraceRing allocates a scheduling-event tracer for BenchConfig.Tracer
// or System.Trace.
func NewTraceRing(capacity int) *TraceRing { return trace.NewRing(capacity) }

// Metrics sub-API: the deterministic time-series sampler (internal/metrics).
type (
	// MetricsSampler snapshots scheduler state at a fixed sim-time interval
	// into a bounded, deterministically downsampled ring; attach it via
	// BenchConfig.Sampler, MemcachedConfig.Sampler, or System.Sample.
	MetricsSampler = metrics.Sampler
	// MetricsConfig configures a MetricsSampler (interval, ring capacity).
	MetricsConfig = metrics.Config
)

// NewMetricsSampler allocates a time-series sampler. The zero MetricsConfig
// gives the defaults: 100 microsecond interval (the BWD window), 4096-slot
// ring.
func NewMetricsSampler(cfg MetricsConfig) *MetricsSampler { return metrics.NewSampler(cfg) }

// Sample attaches a time-series sampler to the system's kernel and returns
// it; export the series after Run with its Write methods.
func (s *System) Sample(cfg MetricsConfig) *MetricsSampler {
	sm := metrics.NewSampler(cfg)
	s.kernel.SetSampler(sm)
	return sm
}
