package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"oversub"
	"oversub/internal/runner"
	"oversub/internal/stats"
	"oversub/internal/sweep"
	"oversub/internal/trace"
)

// The run subcommand executes a single suite benchmark (or the memcached
// model, or a fleet capacity sweep) under a chosen kernel configuration
// and prints the measurements.
//
// Examples:
//
//	hpdc21 run -bench streamcluster -threads 32 -cores 8
//	hpdc21 run -bench streamcluster -threads 32 -cores 8 -vb -bwd
//	hpdc21 run -bench lu -threads 32 -cores 8 -ple -vm
//	hpdc21 run -bench memcached -threads 16 -cores 4 -vb
//	hpdc21 run -bench streamcluster -threads 32 -reps 8
//	hpdc21 run -fleet 1,2,4 -fleet-policies jsq
//	hpdc21 run -list

// runFlags holds the run subcommand's options.
type runFlags struct {
	sharedFlags
	bench      string
	list       bool
	threads    int
	cores      int
	smt        int
	vb         bool
	bwd        bool
	ple        bool
	vm         bool
	pinned     bool
	lockImpl   string
	grow       int
	traceTo    string
	traceFmt   string
	blameTo    string
	metricsTo  string
	metricsFmt string
	sweep      bool
	reps       int
	fleet      fleetFlags
}

// runMain implements `hpdc21 run`: it parses argv, rejects conflicting
// flags with exit 2 before any simulation starts, and returns the
// process exit code.
func runMain(argv []string, stdout, stderr io.Writer) int {
	var f runFlags
	fs := flag.NewFlagSet("hpdc21 run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f.register(fs)
	fs.StringVar(&f.bench, "bench", "", "benchmark name (see -list), or 'memcached'")
	fs.BoolVar(&f.list, "list", false, "list available benchmarks")
	fs.IntVar(&f.threads, "threads", 0, "thread count (0 = benchmark's optimal)")
	fs.IntVar(&f.cores, "cores", 8, "physical cores in the cpuset")
	fs.IntVar(&f.smt, "smt", 1, "hyper-threads per core")
	fs.BoolVar(&f.vb, "vb", false, "enable virtual blocking")
	fs.BoolVar(&f.bwd, "bwd", false, "enable busy-waiting detection")
	fs.BoolVar(&f.ple, "ple", false, "enable pause-loop exiting (needs -vm)")
	fs.BoolVar(&f.vm, "vm", false, "run inside a virtual machine")
	fs.BoolVar(&f.pinned, "pinned", false, "pin threads to cores")
	fs.StringVar(&f.lockImpl, "locks", "", "lock library: pthread|mutexee|mcstp|shfllock")
	fs.IntVar(&f.grow, "grow", 0, "resize the cpuset to this many cores at t=2ms")
	fs.StringVar(&f.traceTo, "trace", "", "write the scheduling event trace to this file")
	fs.StringVar(&f.traceFmt, "trace-format", "text", "trace output format: text (one event per line), json (Chrome trace-event, Perfetto-loadable), summary (derived analytics tables)")
	fs.StringVar(&f.blameTo, "blame", "", "write a wall-time blame attribution report (per-thread and per-request component breakdown) to this file")
	fs.StringVar(&f.metricsTo, "metrics", "", "write a deterministic metrics time-series of the run to this file")
	fs.StringVar(&f.metricsFmt, "metrics-format", "summary", "metrics output format: csv, json, or summary")
	fs.BoolVar(&f.sweep, "sweep", false, "sweep threads x cores x kernel variants and print a table")
	fs.IntVar(&f.reps, "reps", 1, "repetitions over seeds seed..seed+reps-1, with mean/stddev")
	f.fleet.register(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: hpdc21 run -bench <name> [flags]\n"+
			"       hpdc21 run -fleet <machines> [flags]\n"+
			"       hpdc21 run -list\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if f.list {
		fmt.Fprintf(stdout, "%-14s %-8s %-8s %8s %7s\n", "name", "suite", "sync", "work", "rounds")
		for _, s := range oversub.Benchmarks() {
			fmt.Fprintf(stdout, "%-14s %-8s %-8s %8v %7d\n", s.Name, s.Suite, s.Sync, s.TotalWork, s.Rounds)
		}
		fmt.Fprintln(stdout, "memcached      (service benchmark; -threads selects workers)")
		return 0
	}
	if f.bench == "" && f.fleet.machines == "" {
		fs.Usage()
		return 2
	}
	var explicit []string
	fs.Visit(func(fl *flag.Flag) { explicit = append(explicit, fl.Name) })
	if err := f.validate(explicit); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var spec *oversub.BenchSpec
	var fleetCfg sweep.FleetSweep
	if f.fleet.machines != "" {
		cfg, err := f.fleetSweep()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fleetCfg = cfg
	} else if f.bench != "memcached" {
		if spec = oversub.FindBenchmark(f.bench); spec == nil {
			fmt.Fprintf(stderr, "unknown benchmark %q (try -list)\n", f.bench)
			return 2
		}
	}

	stopProf, err := startProfiles(f.cpuprofile, f.memprofile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer stopProf()
	pool := runner.New(f.jobs)
	defer pool.Close()

	switch {
	case f.fleet.machines != "":
		err = runFleet(pool, fleetCfg, &f, stdout, stderr)
	case f.bench == "memcached":
		err = runMemcached(&f, stdout, stderr)
	case f.sweep:
		err = runSweep(pool, spec, &f, stdout)
	default:
		err = runBench(pool, spec, &f, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// machineFlags configure the one simulated machine of a -bench run.
var machineFlags = []string{"threads", "cores", "smt", "vb", "bwd", "ple", "vm", "pinned", "locks", "grow"}

// validate rejects flag combinations that would silently record less
// than the user asked for, and explicitly set flags (named in explicit,
// in lexical order) that the selected mode would ignore.
func (f *runFlags) validate(explicit []string) error {
	if err := f.sharedFlags.validate(); err != nil {
		return err
	}
	set := map[string]bool{}
	for _, name := range explicit {
		set[name] = true
	}
	var mode string
	var ignored []string
	switch {
	case f.fleet.machines != "":
		mode, ignored = "-fleet", append([]string{"sweep", "reps"}, machineFlags...)
	case f.bench == "memcached":
		mode, ignored = "-bench memcached", []string{"smt", "bwd", "ple", "vm", "pinned", "locks"}
	case f.sweep:
		mode, ignored = "-sweep", append([]string{"reps", "trace"}, machineFlags...)
	}
	for _, name := range ignored {
		if set[name] {
			return fmt.Errorf("%s ignores -%s", mode, name)
		}
	}
	if f.fleet.machines == "" {
		for _, name := range explicit {
			if strings.HasPrefix(name, "fleet-") {
				return fmt.Errorf("-%s needs -fleet", name)
			}
		}
	}
	switch {
	case f.bwd && f.ple:
		return errors.New("-bwd and -ple select different spin detectors; pick one")
	case f.ple && !f.vm:
		return errors.New("-ple needs -vm: pause-loop exiting only fires inside a virtual machine")
	case f.reps < 1:
		return errors.New("-reps must be >= 1")
	case f.reps > 1 && (f.traceTo != "" || f.blameTo != ""):
		return errors.New("-trace/-blame record a single run; they cannot be combined with -reps > 1")
	case f.blameTo != "" && f.sweep:
		return errors.New("-blame records a single run; it cannot be combined with -sweep")
	case f.metricsTo != "" && (f.reps > 1 || f.sweep):
		return errors.New("-metrics records a single run; it cannot be combined with -reps > 1 or -sweep")
	case f.fleet.machines == "" && f.bench == "memcached" && (f.sweep || f.reps > 1 || f.grow > 0):
		return errors.New("-bench memcached runs one service run; it cannot be combined with -sweep, -reps > 1 or -grow")
	}
	switch f.traceFmt {
	case "text", "json", "summary":
	default:
		return fmt.Errorf("unknown -trace-format %q (want text, json, or summary)", f.traceFmt)
	}
	switch f.metricsFmt {
	case "csv", "json", "summary":
	default:
		return fmt.Errorf("unknown -metrics-format %q (want csv, json, or summary)", f.metricsFmt)
	}
	return nil
}

// detect resolves -bwd/-ple (never both) into the detector mode.
func (f *runFlags) detect() oversub.DetectMode {
	switch {
	case f.bwd:
		return oversub.DetectBWD
	case f.ple:
		return oversub.DetectPLE
	}
	return oversub.DetectOff
}

// observe attaches the trace ring and metrics sampler the flags ask for;
// either may be nil.
func (f *runFlags) observe() (*oversub.TraceRing, *oversub.MetricsSampler) {
	var ring *oversub.TraceRing
	if f.traceTo != "" || f.blameTo != "" {
		ring = oversub.NewTraceRing(traceCapacity(f.blameTo))
	}
	var sampler *oversub.MetricsSampler
	if f.metricsTo != "" {
		sampler = oversub.NewMetricsSampler(oversub.MetricsConfig{})
	}
	return ring, sampler
}

// runMemcached runs the memcached service model once.
func runMemcached(f *runFlags, stdout, stderr io.Writer) error {
	workers := f.threads
	if workers == 0 {
		workers = 4
	}
	mcfg := oversub.MemcachedConfig{
		Workers: workers, Cores: f.cores, VB: f.vb, Policy: f.policy, Seed: f.seed,
	}
	ring, sampler := f.observe()
	if ring != nil {
		mcfg.Tracer = ring
	}
	if sampler != nil {
		mcfg.Sampler = sampler
	}
	r := oversub.RunMemcached(mcfg)
	fmt.Fprintf(stdout, "memcached: workers=%d cores=%d vb=%v\n", workers, f.cores, f.vb)
	fmt.Fprintf(stdout, "  throughput   %12.0f ops/s\n", r.ThroughputOpsSec)
	fmt.Fprintf(stdout, "  latency mean %12.1f us\n", r.Mean.Micros())
	fmt.Fprintf(stdout, "  latency p95  %12.1f us\n", r.P95.Micros())
	fmt.Fprintf(stdout, "  latency p99  %12.1f us\n", r.P99.Micros())
	if ring != nil && f.traceTo != "" {
		if err := emitTrace(ring, f.traceTo, f.traceFmt, stderr); err != nil {
			return err
		}
	}
	if ring != nil && f.blameTo != "" {
		if err := emitBlame(ring, f.blameTo, []string{"memcached"}, stderr); err != nil {
			return err
		}
	}
	if sampler != nil {
		return emitMetrics(sampler, f.metricsTo, f.metricsFmt)
	}
	return nil
}

// runSweep prints spec's execution time across the threads x cores x
// kernel-variant grid.
func runSweep(pool *runner.Pool, spec *oversub.BenchSpec, f *runFlags, stdout io.Writer) error {
	variants := sweep.StandardVariants()
	for i := range variants {
		variants[i].Policy = f.policy
	}
	g := sweep.RunOn(pool, sweep.Config{
		Spec:     spec,
		Threads:  []int{8, 16, 32},
		Cores:    []int{2, 4, 8, 16, 32},
		Variants: variants,
		Seed:     f.seed,
		Scale:    f.scale,
		Horizon:  oversub.Duration(10 * oversub.Second),
	})
	fmt.Fprintf(stdout, "%s: execution time (ms) across the grid\n", spec.Name)
	return g.WriteTable(stdout)
}

// runBench runs spec once (or -reps times) and prints the measurements.
func runBench(pool *runner.Pool, spec *oversub.BenchSpec, f *runFlags, stdout, stderr io.Writer) error {
	detect := f.detect()
	cfg := oversub.BenchConfig{
		Threads: f.threads, Cores: f.cores, SMT: f.smt,
		Feat:   oversub.Features{VB: f.vb, Pinned: f.pinned, VM: f.vm},
		Detect: detect, Seed: f.seed, WorkScale: f.scale,
		LockImpl: f.lockImpl, Policy: f.policy,
	}
	ring, sampler := f.observe()
	if ring != nil {
		cfg.Tracer = ring
	}
	if sampler != nil {
		cfg.Sampler = sampler
	}
	if f.grow > 0 {
		cfg.Plan = []oversub.CPUChange{{At: 2 * oversub.Millisecond, Cores: f.grow}}
	}

	if f.reps > 1 {
		return runReps(pool, spec, cfg, f.reps, stdout)
	}

	r := oversub.RunBenchmark(spec, cfg)
	if r.Err != nil {
		return fmt.Errorf("run did not complete: %v", r.Err)
	}
	polName := f.policy
	if polName == "" {
		polName = "cfs"
	}
	fmt.Fprintf(stdout, "%s: threads=%d cores=%d smt=%d vb=%v detect=%v pinned=%v policy=%s\n",
		spec.Name, r.Threads, r.Cores, f.smt, f.vb, detect, f.pinned, polName)
	fmt.Fprintf(stdout, "  exec time       %12v\n", r.ExecTime)
	fmt.Fprintf(stdout, "  cpu utilization %11.0f%% (of %d00%%)\n", r.UtilPct, r.Cores*f.smt)
	fmt.Fprintf(stdout, "  sync operations %12d\n", r.SyncOps)
	fmt.Fprintf(stdout, "  ctx switches    %12d voluntary, %d involuntary\n",
		r.Metrics.VolCS, r.Metrics.InvolCS)
	fmt.Fprintf(stdout, "  migrations      %12d in-node, %d cross-node\n",
		r.Metrics.MigrationsInNode, r.Metrics.MigrationsCrossNode)
	fmt.Fprintf(stdout, "  futex           %12d waits, %d wakes, %d VB wakes\n",
		r.Metrics.FutexWaits, r.Metrics.FutexWakes, r.Metrics.VBWakes)
	if detect != oversub.DetectOff {
		fmt.Fprintf(stdout, "  detector        %12d windows, %d detections (%d TP, %d FP)\n",
			r.BWD.Windows, r.BWD.Detections, r.BWD.TruePositive, r.BWD.FalsePositive)
	}
	if ring != nil && f.traceTo != "" {
		if err := emitTrace(ring, f.traceTo, f.traceFmt, stderr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  trace           %12d events -> %s\n", ring.Len(), f.traceTo)
	}
	if ring != nil && f.blameTo != "" {
		if err := emitBlame(ring, f.blameTo, nil, stderr); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  blame           %12d events -> %s\n", ring.Len(), f.blameTo)
	}
	if sampler != nil {
		if err := emitMetrics(sampler, f.metricsTo, f.metricsFmt); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  metrics         %12d windows -> %s\n", sampler.Len(), f.metricsTo)
	}
	return nil
}

// completeStreamCap bounds every ring whose stream must not wrap: blame
// attribution (run -blame, blame_policies) and the policies oracle. Rings
// grow on demand, so the bound costs nothing until a run reaches it. It
// is a variable only so tests can force a wrap.
var completeStreamCap = 1 << 22

// traceCapacity sizes a run's trace ring. Blame attribution needs the
// complete stream (a wrapped ring cannot be attributed), so -blame runs
// get the complete-stream bound; plain -trace runs keep a smaller one,
// where wrapping only warns and skips the oracle.
func traceCapacity(blameTo string) int {
	if blameTo != "" {
		return completeStreamCap
	}
	return 1 << 20
}

// reportViolations prints up to limit oracle violations on w, prefixed,
// and returns how many there were.
func reportViolations(w io.Writer, prefix string, vs []trace.Violation, limit int) int {
	for i, v := range vs {
		if i >= limit {
			fmt.Fprintf(w, "hpdc21: %s... and %d more violations\n", prefix, len(vs)-i)
			break
		}
		fmt.Fprintf(w, "hpdc21: %strace invariant violated: %s\n", prefix, v)
	}
	return len(vs)
}

// emitBlame validates the recorded stream (lifecycle oracle plus the
// blame exactness invariant — components must sum to each span) and
// writes the blame attribution report to path. A wrapped ring is fatal:
// attribution needs every event.
func emitBlame(ring *oversub.TraceRing, path string, names []string, stderr io.Writer) error {
	if ring.Dropped() > 0 {
		return fmt.Errorf("hpdc21: trace ring wrapped (%d events dropped); blame needs the complete stream — shorten the run", ring.Dropped())
	}
	events := ring.Events()
	if n := reportViolations(stderr, "", trace.CheckStream(events), 20); n > 0 {
		return fmt.Errorf("hpdc21: %d trace-invariant violations", n)
	}
	return writeFile(path, func(w io.Writer) error {
		return trace.WriteBlame(w, trace.ComputeBlame(events), names, 0)
	})
}

// emitMetrics writes the sampled time-series to path in the chosen format.
// The export is a pure function of the sample stream, so identical seeds
// produce byte-identical files.
func emitMetrics(s *oversub.MetricsSampler, path, format string) error {
	return writeFile(path, func(w io.Writer) error { return s.Write(w, format) })
}

// emitTrace validates the recorded trace against the invariant oracle and
// writes it to path in the chosen format. Oracle violations are fatal: a
// trace that breaks the thread-lifecycle state machine means a kernel bug,
// not a formatting problem. A wrapped ring only warns — the oracle needs a
// complete stream.
func emitTrace(ring *oversub.TraceRing, path, format string, stderr io.Writer) error {
	events, dropped := ring.Events(), ring.Dropped()
	if dropped > 0 {
		fmt.Fprintf(stderr, "hpdc21: trace ring wrapped (%d events dropped); invariant oracle skipped\n", dropped)
	} else if n := reportViolations(stderr, "", trace.CheckStream(events), 20); n > 0 {
		return fmt.Errorf("hpdc21: %d trace-invariant violations", n)
	}
	return writeFile(path, func(w io.Writer) error {
		switch format {
		case "json":
			return trace.WriteChromeTrace(w, events)
		case "summary":
			return trace.WriteSummary(w, events, dropped)
		}
		// Text: the same bytes as Ring.WriteTo, rendered from the snapshot.
		if err := trace.WriteEvents(w, events); err != nil || dropped == 0 {
			return err
		}
		_, err := fmt.Fprintf(w, "(%d older events dropped)\n", dropped)
		return err
	})
}

// writeFile creates path, renders into it, and closes it, reporting the
// first error.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runReps fans reps runs of the same configuration — seeds cfg.Seed through
// cfg.Seed+reps-1 — across the pool and summarizes execution time and
// utilization. Results print in seed order regardless of completion order.
func runReps(pool *runner.Pool, spec *oversub.BenchSpec, cfg oversub.BenchConfig, reps int, stdout io.Writer) error {
	jobs := make([]runner.Job, reps)
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		jobs[i] = runner.Job{
			Label: fmt.Sprintf("%s/seed=%d", spec.Name, c.Seed),
			Fn: func(context.Context) (any, error) {
				r := oversub.RunBenchmark(spec, c)
				pool.ReportSim(int64(r.ExecTime))
				return r, nil
			},
		}
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = spec.OptimalThreads
	}
	var execMS, util stats.Series
	fmt.Fprintf(stdout, "%s: threads=%d cores=%d, %d repetitions\n", spec.Name, threads, cfg.Cores, reps)
	fmt.Fprintf(stdout, "  %-12s %14s %10s\n", "seed", "exec time(ms)", "util(%)")
	failed := 0
	for _, res := range pool.Map(context.Background(), jobs) {
		if res.Err != nil {
			fmt.Fprintf(stdout, "  %-12d %14s %10s  (%v)\n", cfg.Seed+uint64(res.Index), "failed", "-", res.Err)
			failed++
			continue
		}
		r := res.Value.(oversub.BenchResult)
		if r.Err != nil {
			fmt.Fprintf(stdout, "  %-12d %14s %10s  (%v)\n", cfg.Seed+uint64(res.Index), "hang", "-", r.Err)
			failed++
			continue
		}
		execMS.Add(r.ExecTime.Millis())
		util.Add(r.UtilPct)
		fmt.Fprintf(stdout, "  %-12d %14.2f %10.0f\n", cfg.Seed+uint64(res.Index), r.ExecTime.Millis(), r.UtilPct)
	}
	if execMS.Count() > 0 {
		fmt.Fprintf(stdout, "  %-12s %14.2f %10.0f\n", "mean", execMS.Mean(), util.Mean())
		fmt.Fprintf(stdout, "  %-12s %14.2f %10.1f\n", "stddev", execMS.Stddev(), util.Stddev())
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "  %d of %d repetitions failed\n", failed, reps)
		return fmt.Errorf("hpdc21: %d of %d repetitions failed", failed, reps)
	}
	return nil
}
