package trace_test

import (
	"testing"

	"oversub/internal/bwd"
	"oversub/internal/sched"
	"oversub/internal/sim"
	. "oversub/internal/trace"
	"oversub/internal/workload"
)

// runTraced executes one suite benchmark with a large ring attached and
// returns the ring, failing the test if the run hung or the ring wrapped
// (a wrapped ring cannot be validated).
func runTraced(t *testing.T, name string, cfg workload.RunConfig) *Ring {
	t.Helper()
	spec := workload.Find(name)
	if spec == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	r := NewRing(1 << 22)
	cfg.Tracer = r
	res := workload.Run(spec, cfg)
	if res.Err != nil {
		t.Fatalf("%s did not complete: %v", name, res.Err)
	}
	if r.Dropped() > 0 {
		t.Fatalf("%s trace wrapped (%d dropped); grow the test ring", name, r.Dropped())
	}
	return r
}

// checkClean runs the oracle and fails on any violation.
func checkClean(t *testing.T, r *Ring) {
	t.Helper()
	vs := r.Check()
	for i, v := range vs {
		if i >= 10 {
			t.Errorf("... and %d more violations", len(vs)-i)
			break
		}
		t.Error(v.String())
	}
}

func TestOracleFutexHeavyVanilla(t *testing.T) {
	// streamcluster: barrier rounds over futex waits — the sleep-queue dance
	// the paper's VB removes. 16 threads on 4 cores forces heavy blocking.
	r := runTraced(t, "streamcluster", workload.RunConfig{
		Threads: 16, Cores: 4, Seed: 3, WorkScale: 0.05,
	})
	checkClean(t, r)
	if n := len(r.Events()); n == 0 {
		t.Fatal("no events recorded")
	}
	if countKind(r, Block) == 0 || countKind(r, Wake) == 0 {
		t.Errorf("futex-heavy run recorded block/wake = %d/%d, want both > 0",
			countKind(r, Block), countKind(r, Wake))
	}
}

func TestOracleFutexHeavyVB(t *testing.T) {
	r := runTraced(t, "streamcluster", workload.RunConfig{
		Threads: 16, Cores: 4, Seed: 3, WorkScale: 0.05,
		Feat: sched.Features{VB: true},
	})
	checkClean(t, r)
	if countKind(r, VBlock) == 0 || countKind(r, VWake) == 0 {
		t.Errorf("VB run recorded vblock/vwake = %d/%d, want both > 0", countKind(r, VBlock), countKind(r, VWake))
	}
}

func TestOracleSpinHeavyBWD(t *testing.T) {
	// lu: the custom-spin wavefront pipeline, with BWD descheduling spinners.
	r := runTraced(t, "lu", workload.RunConfig{
		Threads: 16, Cores: 4, Seed: 5, WorkScale: 0.05,
		Detect: bwd.ModeBWD,
	})
	checkClean(t, r)
	if countKind(r, BWD) == 0 {
		t.Error("spin-heavy BWD run recorded no bwd-deschedule events")
	}
}

func TestOracleMemcached(t *testing.T) {
	r := NewRing(1 << 22)
	res := workload.Memcached(workload.MemcachedConfig{
		Workers: 4, Cores: 2, VB: true, Requests: 2000, Conns: 16, Seed: 7,
		Tracer: r,
	})
	if res.Served == 0 {
		t.Fatal("memcached served no requests")
	}
	if r.Dropped() > 0 {
		t.Fatalf("memcached trace wrapped (%d dropped)", r.Dropped())
	}
	checkClean(t, r)
}

func TestOracleElasticResize(t *testing.T) {
	// Grow then shrink the cpuset mid-run: exercises evacuation (preempt +
	// migrate of every thread on a disabled CPU) and post-resize wake paths.
	r := runTraced(t, "streamcluster", workload.RunConfig{
		Threads: 16, Cores: 2, Seed: 11, WorkScale: 0.05,
		Plan: []workload.CPUChange{
			{At: 500 * sim.Microsecond, Cores: 8},
			{At: 2 * sim.Millisecond, Cores: 2},
		},
	})
	checkClean(t, r)
	if countKind(r, CPUResize) != 2 {
		t.Errorf("cpuset-resize events = %d, want 2", countKind(r, CPUResize))
	}
	if countKind(r, Migrate) == 0 {
		t.Error("elastic run recorded no migrations")
	}
}

// --- synthetic-stream violations: the oracle must actually detect bugs ---

func TestOracleDetectsDoubleDispatch(t *testing.T) {
	evs := []Event{
		{At: 0, CPU: 0, Thread: 1, Kind: Spawn, Arg: 0},
		{At: 0, CPU: 0, Thread: 1, Kind: Enqueue, Arg: 1},
		{At: 1, CPU: 0, Thread: 1, Kind: Dispatch},
		{At: 2, CPU: 1, Thread: 1, Kind: Dispatch}, // current on two CPUs
	}
	if vs := CheckInvariants(evs); len(vs) == 0 {
		t.Error("double dispatch not detected")
	}
}

func TestOracleDetectsDispatchWithoutWake(t *testing.T) {
	evs := []Event{
		{At: 0, CPU: 0, Thread: 0, Kind: Spawn},
		{At: 0, CPU: 0, Thread: 0, Kind: Enqueue, Arg: 1},
		{At: 1, CPU: 0, Thread: 0, Kind: Dispatch},
		{At: 2, CPU: 0, Thread: 0, Kind: Block},
		{At: 3, CPU: 0, Thread: 0, Kind: Dispatch}, // no wake/enqueue first
	}
	if vs := CheckInvariants(evs); len(vs) == 0 {
		t.Error("dispatch of sleeping thread not detected")
	}
}

func TestOracleDetectsUnbalancedVB(t *testing.T) {
	evs := []Event{
		{At: 0, CPU: 0, Thread: 0, Kind: Spawn},
		{At: 0, CPU: 0, Thread: 0, Kind: Enqueue, Arg: 1},
		{At: 1, CPU: 0, Thread: 0, Kind: Dispatch},
		{At: 2, CPU: 0, Thread: 0, Kind: VWake}, // vwake without vblock
	}
	if vs := CheckInvariants(evs); len(vs) == 0 {
		t.Error("unbalanced VB bracket not detected")
	}
}

func TestOracleDetectsTimeTravel(t *testing.T) {
	evs := []Event{
		{At: 5, CPU: 0, Thread: 0, Kind: Spawn},
		{At: 4, CPU: 0, Thread: 0, Kind: Enqueue, Arg: 1}, // time went backwards
	}
	if vs := CheckInvariants(evs); len(vs) == 0 {
		t.Error("backwards time not detected")
	}
}

func TestOracleRefusesWrappedRing(t *testing.T) {
	r := NewRing(2)
	for i := 0; i < 5; i++ {
		r.Trace(sim.Time(i), 0, 0, string(Dispatch), 0)
	}
	vs := r.Check()
	if len(vs) != 1 || vs[0].Index != -1 {
		t.Errorf("wrapped ring check = %v, want single refusal", vs)
	}
}

func TestOracleCleanOnEmpty(t *testing.T) {
	if vs := CheckInvariants(nil); vs != nil {
		t.Errorf("empty stream produced violations: %v", vs)
	}
}
