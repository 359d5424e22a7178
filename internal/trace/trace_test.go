package trace_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"oversub/internal/hw"
	"oversub/internal/sched"
	"oversub/internal/sim"
	. "oversub/internal/trace"
)

func tracedKernel(t *testing.T, cap int) (*sched.Kernel, *Ring) {
	t.Helper()
	eng := sim.NewEngine(7)
	k := sched.New(eng, sched.Config{
		Topo:  hw.Topology{Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 1},
		NCPUs: 2,
		Costs: sched.DefaultCosts(),
		Seed:  1,
	})
	r := NewRing(cap)
	k.SetTracer(r)
	return k, r
}

func TestRecordsDispatchAndExit(t *testing.T) {
	k, r := tracedKernel(t, 1024)
	k.Spawn("w", func(th *sched.Thread) { th.Run(sim.Millisecond) })
	if err := k.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	sum := r.Summary()
	if sum[Dispatch] == 0 {
		t.Error("no dispatch events recorded")
	}
	if sum[Exit] != 1 {
		t.Errorf("Exit events = %d, want 1", sum[Exit])
	}
	// Chronological order.
	evs := r.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events out of order")
		}
	}
}

func TestRecordsBlockingLifecycle(t *testing.T) {
	k, r := tracedKernel(t, 4096)
	var waiter *sched.Thread
	waiter = k.Spawn("waiter", func(th *sched.Thread) { th.Block() })
	k.Spawn("waker", func(th *sched.Thread) {
		th.Run(2 * sim.Millisecond)
		k.WakeVanilla(th, waiter)
		th.Run(sim.Millisecond)
	})
	if err := k.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
	sum := r.Summary()
	if sum[Block] != 1 || sum[Wake] != 1 {
		t.Errorf("block/wake = %d/%d, want 1/1", sum[Block], sum[Wake])
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Trace(sim.Time(i), 0, i, string(Dispatch), 0)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	if evs[0].Thread != 6 || evs[3].Thread != 9 {
		t.Errorf("ring kept %v..%v, want 6..9", evs[0].Thread, evs[3].Thread)
	}
}

// TestRingMatchesModel feeds 2×capacity+7 events through rings of sizes
// around the chunk boundary and checks them against a naive "keep the last
// N" model at checkpoints across the fill, the first chunk allocations and
// the wrap: Events order, Len, Dropped and the WriteTo trailer. The
// filtered variant installs Only before the first event, so the filter
// governs every growth step.
func TestRingMatchesModel(t *testing.T) {
	for _, c := range []int{1, 3, 1000, 1024, 1025, 5000} {
		for _, filtered := range []bool{false, true} {
			t.Run(fmt.Sprintf("cap%d/filtered=%v", c, filtered), func(t *testing.T) {
				r := NewRing(c)
				if filtered {
					r.Only(Dispatch)
				}
				total := 2*c + 7
				check := map[int]bool{1: true, 2: true, c - 1: true, c: true, c + 1: true,
					1023: true, 1024: true, 1025: true, 2049: true, c + 1030: true, total: true}
				var model []Event // every recorded event; the ring keeps the tail
				for i := 1; i <= total; i++ {
					if filtered {
						r.Trace(sim.Time(i), 1, i, string(Wake), -1) // filtered out
					}
					ev := Event{At: sim.Time(i), CPU: i % 4, Thread: i, Kind: Dispatch, Arg: int64(i)}
					r.Trace(ev.At, ev.CPU, ev.Thread, string(ev.Kind), ev.Arg)
					model = append(model, ev)
					if check[i] {
						checkRingModel(t, r, model, c)
					}
				}
			})
		}
	}
}

// checkRingModel compares r with the last capacity entries of model.
func checkRingModel(t *testing.T, r *Ring, model []Event, capacity int) {
	t.Helper()
	n := len(model)
	keep := model[max(0, n-capacity):]
	if r.Len() != len(keep) {
		t.Fatalf("after %d events: Len = %d, want %d", n, r.Len(), len(keep))
	}
	if want := uint64(n - len(keep)); r.Dropped() != want {
		t.Fatalf("after %d events: Dropped = %d, want %d", n, r.Dropped(), want)
	}
	got := r.Events()
	if len(got) != len(keep) || cap(got) != len(keep) {
		t.Fatalf("after %d events: Events len/cap = %d/%d, want %d", n, len(got), cap(got), len(keep))
	}
	for i := range keep {
		if got[i] != keep[i] {
			t.Fatalf("after %d events: Events()[%d] = %v, want %v", n, i, got[i], keep[i])
		}
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, e := range keep {
		fmt.Fprintln(&want, e.String())
	}
	if d := n - len(keep); d > 0 {
		fmt.Fprintf(&want, "(%d older events dropped)\n", d)
	}
	if sb.String() != want.String() {
		t.Fatalf("after %d events: WriteTo differs from the model", n)
	}
}

// TestRingAllocatesWhatItRecords: a ring's capacity is a wrap bound, not
// preallocated memory. 10,000 events in a 2M-event ring must allocate
// under 1 MB, where a ring preallocated to its capacity costs 96 MB.
func TestRingAllocatesWhatItRecords(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRing(1 << 21)
	for i := 0; i < 10000; i++ {
		r.Trace(sim.Time(i), i&7, i&31, string(Dispatch), int64(i))
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("10,000 events in a 2M-event ring allocated %d bytes, want < 1 MB", got)
	}
}

func TestFilter(t *testing.T) {
	r := NewRing(16).Only(Migrate)
	r.Trace(1, 0, 1, string(Dispatch), 0)
	r.Trace(2, 0, 1, string(Migrate), 3)
	if r.Len() != 1 || r.Events()[0].Kind != Migrate {
		t.Errorf("filter kept %v", r.Events())
	}
}

func TestOnlyZeroArgsRestoresAll(t *testing.T) {
	// Regression: Only() with no kinds used to install an empty filter that
	// silently dropped every event; it must restore unfiltered recording.
	r := NewRing(16).Only()
	r.Trace(1, 0, 1, string(Dispatch), 0)
	if r.Len() != 1 {
		t.Fatalf("Only() dropped events: Len = %d, want 1", r.Len())
	}
	r = NewRing(16).Only(Migrate)
	r.Trace(1, 0, 1, string(Dispatch), 0)
	if r.Len() != 0 {
		t.Fatal("filter inactive")
	}
	r.Only() // clear the filter
	r.Trace(2, 0, 1, string(Dispatch), 0)
	if r.Len() != 1 {
		t.Errorf("Only() did not clear the filter: Len = %d, want 1", r.Len())
	}
}

func TestRingWraparoundChronological(t *testing.T) {
	// After overwrite, Events() must still return chronological order with
	// the oldest retained event first.
	r := NewRing(4)
	for i := 0; i < 11; i++ {
		r.Trace(sim.Time(i)*sim.Time(sim.Microsecond), i%2, i, string(Dispatch), 0)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := 7 + i; e.Thread != want {
			t.Errorf("evs[%d].Thread = %d, want %d", i, e.Thread, want)
		}
		if i > 0 && evs[i].At < evs[i-1].At {
			t.Errorf("events out of order at %d: %v < %v", i, evs[i].At, evs[i-1].At)
		}
	}
	if r.Dropped() != 7 {
		t.Errorf("Dropped = %d, want 7", r.Dropped())
	}
}

func TestWriteToDroppedTrailer(t *testing.T) {
	r := NewRing(2)
	for i := 0; i < 5; i++ {
		r.Trace(sim.Time(i), 0, i, string(Dispatch), 0)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "(3 older events dropped)") {
		t.Errorf("missing dropped-events trailer in:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("WriteTo emitted %d lines, want 2 events + 1 trailer", lines)
	}
}

func TestWriteToNoTrailerWhenFull(t *testing.T) {
	r := NewRing(4)
	r.Trace(1, 0, 1, string(Dispatch), 0)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "dropped") {
		t.Errorf("unexpected trailer without overwrites:\n%s", sb.String())
	}
}

func TestCountsOrdered(t *testing.T) {
	r := NewRing(16)
	r.Trace(1, 0, 1, string(Wake), 0)
	r.Trace(2, 0, 1, string(Dispatch), 0)
	r.Trace(3, 0, 1, string(Wake), 0)
	r.Trace(4, 0, 1, string(Block), 0)
	got := r.Counts()
	want := []KindCount{{Block, 1}, {Dispatch, 1}, {Wake, 2}}
	if len(got) != len(want) {
		t.Fatalf("Counts() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Counts()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWriteTo(t *testing.T) {
	r := NewRing(16)
	r.Trace(sim.Time(5*sim.Microsecond), 2, 7, string(VWake), 0)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "vwake") || !strings.Contains(out, "cpu2") || !strings.Contains(out, "t7") {
		t.Errorf("unexpected dump: %q", out)
	}
}

func TestNilTracerIsFree(t *testing.T) {
	// Just exercises the nil path: kernels without tracers must not panic.
	eng := sim.NewEngine(9)
	k := sched.New(eng, sched.Config{
		Topo:  hw.Topology{Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 1},
		NCPUs: 1, Costs: sched.DefaultCosts(), Seed: 2,
	})
	k.Spawn("w", func(th *sched.Thread) { th.Run(sim.Millisecond) })
	if err := k.RunToCompletion(0); err != nil {
		t.Fatal(err)
	}
}
