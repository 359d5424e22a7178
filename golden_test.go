package oversub

// Golden determinism guard: a fixed-seed full-stack scenario must produce
// the exact same scheduling-event profile forever. Any accidental source
// of nondeterminism (map iteration, wall-clock leakage, unordered event
// ties) shows up here as a diff long before it corrupts an experiment.

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"oversub/internal/cluster"
	"oversub/internal/sched"
	"oversub/internal/trace"
	"oversub/internal/workload"
)

// goldenScenario exercises threads, locks, VB, BWD, epoll, and elasticity
// in one deterministic run and returns a digest of its event stream.
func goldenScenario() (string, Metrics) {
	sys := NewSystem(SystemConfig{
		Cores: 4, MaxCores: 8,
		Features: Features{VB: true},
		Detect:   DetectBWD,
		Seed:     424242,
	})
	ring := sys.Trace(1 << 16)
	bar := sys.NewBarrier(12)
	mu := sys.NewMutex()
	poll := sys.NewPoll()
	flag := sys.NewWord(0)
	sig := NewSpinSig(0x4400, 4, false)

	for i := 0; i < 12; i++ {
		i := i
		sys.Spawn(fmt.Sprintf("g%d", i), func(t *Thread) {
			for r := 0; r < 8; r++ {
				t.Run(Duration(50+13*i) * Microsecond)
				mu.Lock(t)
				t.Run(3 * Microsecond)
				mu.Unlock(t)
				bar.Await(t)
			}
			if i == 0 {
				t.SpinUntil(func() bool { return flag.Load() == 1 }, sig)
				poll.Post("done")
			} else if i == 1 {
				if poll.Wait(t) != "done" {
					panic("wrong event")
				}
			}
		})
	}
	sys.Engine().After(2*Millisecond, func() { sys.SetCores(8) })
	sys.Engine().After(4*Millisecond, func() { flag.Store(1) })
	if err := sys.Run(); err != nil {
		panic(err)
	}

	h := fnv.New64a()
	for _, ev := range ring.Events() {
		fmt.Fprintf(h, "%d|%d|%d|%s|%d\n", ev.At, ev.CPU, ev.Thread, ev.Kind, ev.Arg)
	}
	return fmt.Sprintf("%016x", h.Sum64()), sys.Metrics()
}

func TestGoldenDeterminism(t *testing.T) {
	d1, m1 := goldenScenario()
	d2, m2 := goldenScenario()
	if d1 != d2 {
		t.Fatalf("event digests differ across identical runs: %s vs %s", d1, d2)
	}
	if m1 != m2 {
		t.Fatalf("metrics differ across identical runs: %+v vs %+v", m1, m2)
	}
	t.Logf("golden digest %s (%d events)", d1, m1.VolCS+m1.InvolCS)
}

// engineTrioSummaries runs the three headline experiment families (direct
// cost, figure-9 streamcluster, lu+BWD, memcached) at fixed seeds and
// renders each result as a canonical summary string. The strings below in
// TestGoldenEngineTrio were captured before the event-core fast path
// (pooled events, rearmable timers, FIFO ring, 4-ary heap) landed; they
// pin the refactor to the exact outputs of the original binary-heap
// closure-per-event engine.
func engineTrioSummaries() []string {
	fig2a := DirectCost(1, false, 7)
	fig2b := DirectCost(16, false, 7)
	s1 := fmt.Sprintf("fig2 direct-cost t1 exec=%d sw=%d | t16 exec=%d sw=%d",
		fig2a.ExecTime, fig2a.Switches, fig2b.ExecTime, fig2b.Switches)

	spec := FindBenchmark("streamcluster")
	van := RunBenchmark(spec, BenchConfig{Threads: 16, Cores: 4, Seed: 7, WorkScale: 0.05})
	vb := RunBenchmark(spec, BenchConfig{Threads: 16, Cores: 4, Seed: 7, WorkScale: 0.05,
		Feat: Features{VB: true}})
	s2 := fmt.Sprintf("fig9 streamcluster vanilla exec=%d events=%d cs=%d/%d wake=%d | vb exec=%d events=%d cs=%d/%d vbwake=%d",
		van.ExecTime, van.Events, van.Metrics.VolCS, van.Metrics.InvolCS, van.Metrics.Wakeups,
		vb.ExecTime, vb.Events, vb.Metrics.VolCS, vb.Metrics.InvolCS, vb.Metrics.VBWakes)

	lu := RunBenchmark(FindBenchmark("lu"), BenchConfig{Threads: 16, Cores: 4, Seed: 7,
		WorkScale: 0.05, Detect: DetectBWD})
	s3 := fmt.Sprintf("lu bwd exec=%d events=%d bwd=%d ple=%d spins=%d",
		lu.ExecTime, lu.Events, lu.Metrics.BWDDeschedules, lu.Metrics.PLEExits, lu.BWD.Detections)

	mc := RunMemcached(MemcachedConfig{Workers: 8, Cores: 4, VB: true, Requests: 2000, Seed: 7})
	s4 := fmt.Sprintf("memcached served=%d mean=%d p95=%d p99=%d exec=%d events=%d futex=%d/%d epoll=%d/%d",
		mc.Served, mc.Mean, mc.P95, mc.P99, mc.ExecTime, mc.Events,
		mc.Metrics.FutexWaits, mc.Metrics.FutexWakes, mc.Metrics.EpollWaits, mc.Metrics.EpollPosts)
	return []string{s1, s2, s3, s4, fleetGoldenSummary()}
}

// fleetGoldenSummary runs the golden fleet cell — a 3-machine VB+BWD
// fleet under fixed open-loop load — and renders the result canonically.
// Events is in the string, so the executed-event count is pinned along
// with the latency and placement numbers.
func fleetGoldenSummary() string {
	res, err := cluster.Run(cluster.FleetConfig{
		Machines: 3,
		Machine:  cluster.MachineConfig{Feat: Features{VB: true}, Detect: DetectBWD},
		QPS:      30000,
		Duration: 150 * Millisecond,
		Seed:     7,
	})
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("fleet m=%d goodput=%.3f mean=%d p50=%d p99=%d p999=%d util=%.4f spread=%.4f backlog=%d events=%d",
		res.Machines, res.GoodputQPS, res.Mean, res.P50, res.P99, res.P999,
		res.UtilMeanPct, res.UtilSpreadPct, res.Backlog, res.Events)
}

// TestGoldenEngineTrio pins the fast-path event core to pre-refactor
// outputs. A mismatch here means the engine changed simulation-visible
// behavior — event ordering, rng draw sequence, or timer semantics — not
// just its own internals, and must be treated as a correctness bug.
func TestGoldenEngineTrio(t *testing.T) {
	want := []string{
		"fig2 direct-cost t1 exec=120049500 sw=160 | t16 exec=120552000 sw=320",
		"fig9 streamcluster vanilla exec=19639353 events=47759 cs=4481/0 wake=4481 | vb exec=15133543 events=41769 cs=4492/0 vbwake=3283",
		"lu bwd exec=57416886 events=10673 bwd=832 ple=0 spins=832",
		"memcached served=2000 mean=122246 p95=395594 p99=613749 exec=4676161 events=21753 futex=269/269 epoll=2007/2007",
		"fleet m=3 goodput=30429.630 mean=24981 p50=17112 p99=84883 p999=218784 util=400.0000 spread=0.0000 backlog=0 events=73983",
	}
	got := engineTrioSummaries()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("summary %d diverged from pre-refactor pin:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// machinePathSummaries runs every machine-construction entry point that
// engineTrioSummaries does not reach — the System facade, the spin and
// blocking micro-benchmarks, web serving, a resized SMT run with a sampler
// attached, and a mixed-policy traced fleet — and renders each result
// canonically. The strings in TestGoldenMachinePaths pin how each entry
// point builds its machine: engine and kernel seeds, topology, and the
// order in which tracers, samplers and detectors are armed.
func machinePathSummaries() []string {
	digest, gm := goldenScenario()
	s1 := fmt.Sprintf("system digest=%s cs=%d/%d wake=%d vbwake=%d bwd=%d",
		digest, gm.VolCS, gm.InvolCS, gm.Wakeups, gm.VBWakes, gm.BWDDeschedules)

	ple := SpinPipeline(workload.LockPthreadSpin, 32, 8, DetectPLE, true, 11)
	s2 := fmt.Sprintf("spin pthread ple vm exec=%d windows=%d det=%d tp=%d fp=%d",
		ple.ExecTime, ple.BWD.Windows, ple.BWD.Detections, ple.BWD.TruePositive, ple.BWD.FalsePositive)

	sens := Sensitivity(workload.LockTicket, 300, 7)
	s3 := fmt.Sprintf("sensitivity ticket tries=%d tp=%d", sens.Tries, sens.TruePos)

	ind := IndirectCost(RndRead, 4<<20, 7)
	s4 := fmt.Sprintf("indirect rndread percs=%.3f sw=%d", ind.PerCS, ind.Switches)

	s5 := fmt.Sprintf("prim cond vb exec=%d", PrimitiveStress(PrimCond, 32, 4, true, 7))

	web := RunWebServing(WebConfig{Workers: 8, Cores: 4, VB: true, Requests: 1500, Seed: 7})
	s6 := fmt.Sprintf("web served=%d mean=%d p95=%d p99=%d vbwake=%d epoll=%d/%d",
		web.Served, web.Mean, web.P95, web.P99, web.Metrics.VBWakes,
		web.Metrics.EpollWaits, web.Metrics.EpollPosts)

	smp := NewMetricsSampler(MetricsConfig{})
	grow := RunBenchmark(FindBenchmark("lu"), BenchConfig{Threads: 16, Cores: 2, SMT: 2,
		Seed: 7, WorkScale: 0.05, Feat: Features{VB: true}, Detect: DetectBWD,
		Plan: []CPUChange{{At: 2 * Millisecond, Cores: 4}}, Sampler: smp})
	s7 := fmt.Sprintf("grow smt2 exec=%d events=%d cs=%d/%d migrate=%d bwd=%d samples=%d",
		grow.ExecTime, grow.Events, grow.Metrics.VolCS, grow.Metrics.InvolCS,
		grow.Metrics.MigrationsInNode+grow.Metrics.MigrationsCrossNode, grow.Metrics.BWDDeschedules, smp.Len())

	f := runGoldenFleet()
	s8 := fmt.Sprintf("fleet cfs+shinjuku goodput=%.3f mean=%d p99=%d events=%d traced=%d/%d",
		f.res.GoodputQPS, f.res.Mean, f.res.P99, f.res.Events, f.rings[0].Len(), f.rings[1].Len())
	return []string{s1, s2, s3, s4, s5, s6, s7, s8}
}

// goldenFleet is the traced, sampled mixed-policy fleet of
// TestGoldenMachinePaths, with its observers kept for rendering.
type goldenFleet struct {
	cfg      cluster.FleetConfig
	res      *cluster.FleetResult
	rings    []*TraceRing
	samplers []*MetricsSampler
}

// runGoldenFleet runs the 2-machine cfs+shinjuku fleet. Machine 0 samples
// at the default capacity; machine 1 at capacity 8, so its 1000 windows
// downsample many times over. Samplers only observe, so the capacity
// cannot change the run.
func runGoldenFleet() goldenFleet {
	f := goldenFleet{rings: make([]*TraceRing, 2), samplers: make([]*MetricsSampler, 2)}
	f.cfg = cluster.FleetConfig{
		Machines:        2,
		Machine:         cluster.MachineConfig{Feat: Features{VB: true}, Detect: DetectBWD},
		MachinePolicies: []string{"cfs", "shinjuku"},
		QPS:             20000,
		Duration:        100 * Millisecond,
		Seed:            7,
		TracerFor: func(m int) sched.Tracer {
			f.rings[m] = NewTraceRing(1 << 14)
			return f.rings[m]
		},
		SamplerFor: func(m int) sched.Sampler {
			var cfg MetricsConfig
			if m == 1 {
				cfg.Capacity = 8
			}
			f.samplers[m] = NewMetricsSampler(cfg)
			return f.samplers[m]
		},
	}
	res, err := cluster.Run(f.cfg)
	if err != nil {
		panic(err)
	}
	f.res = res
	return f
}

// TestGoldenMachinePaths pins every machine-construction entry point to
// the outputs it had before those entry points shared one constructor.
func TestGoldenMachinePaths(t *testing.T) {
	want := []string{
		"system digest=9b27065133303e90 cs=92/9 wake=58 vbwake=34 bwd=8",
		"spin pthread ple vm exec=27740770 windows=2034 det=1843 tp=1724 fp=119",
		"sensitivity ticket tries=300 tp=297",
		"indirect rndread percs=8814.417 sw=144",
		"prim cond vb exec=118187785",
		"web served=1500 mean=2120003 p95=2360008 p99=2429396 vbwake=3015 epoll=4507/4507",
		"grow smt2 exec=63495068 events=16863 cs=0/2511 migrate=9 bwd=2511 samples=635",
		"fleet cfs+shinjuku goodput=20622.222 mean=30252 p99=125634 events=80175 traced=9903/15175",
	}
	got := machinePathSummaries()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("machine path %d diverged from its pin:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// TestGoldenObservationBytes pins what the observation renderers write
// for the golden fleet: each machine's metrics series in every format
// (machine 1's downsampled), each machine's blame table, and the fleet
// blame table. Identical-seed tests only compare one build against
// itself; these hashes hold a renderer rewrite to the bytes its
// predecessor wrote.
func TestGoldenObservationBytes(t *testing.T) {
	want := []string{
		"m0 json cd0eb0ab45fc6c6c",
		"m0 csv 4a90dc6f9cdc4dfe",
		"m0 summary e79231bacd31f1c4",
		"m1 json 3133017d32b3c0ce",
		"m1 csv 5ad9090402e1cf3b",
		"m1 summary 27ce30bf6338f58f",
		"m0 blame 61c8dc08a9609e7a",
		"m1 blame 83a172c9a03ed5ce",
		"fleet blame ee4efe98b7564134",
	}
	f := runGoldenFleet()
	hash := func(write func(io.Writer) error) string {
		h := fnv.New64a()
		if err := write(h); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	var got []string
	for m, s := range f.samplers {
		for _, format := range []string{"json", "csv", "summary"} {
			got = append(got, fmt.Sprintf("m%d %s %s", m, format,
				hash(func(w io.Writer) error { return s.Write(w, format) })))
		}
	}
	machines := trace.CollectMachines(f.rings)
	names := f.cfg.TenantNames()
	for _, m := range machines {
		got = append(got, fmt.Sprintf("m%d blame %s", m.Machine, hash(func(w io.Writer) error {
			return trace.WriteBlame(w, trace.ComputeBlame(m.Events), names, 0)
		})))
	}
	got = append(got, "fleet blame "+hash(func(w io.Writer) error {
		return trace.WriteFleetBlame(w, machines, names)
	}))
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("observation %d diverged from its pin:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}
