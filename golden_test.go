package oversub

// Golden determinism guard: a fixed-seed full-stack scenario must produce
// the exact same scheduling-event profile forever. Any accidental source
// of nondeterminism (map iteration, wall-clock leakage, unordered event
// ties) shows up here as a diff long before it corrupts an experiment.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"oversub/internal/cluster"
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
		Machine:  cluster.MachineConfig{Feat: Features{VB: true}, Detect: workload.DetectBWD},
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
