package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"oversub/internal/sched"
	"oversub/internal/sim"
	. "oversub/internal/trace"
	"oversub/internal/workload"
)

// TestBlockReasonParity pins the block-reason Arg taxonomy: the trace
// package's constants (used by the blame walker) must equal the sched
// package's (used by the kernel's callers); neither can import the other.
func TestBlockReasonParity(t *testing.T) {
	if BlockReasonOther != sched.BlockOther ||
		BlockReasonFutex != sched.BlockFutex ||
		BlockReasonIO != sched.BlockIO {
		t.Fatalf("trace block reasons (%d,%d,%d) diverge from sched (%d,%d,%d)",
			BlockReasonOther, BlockReasonFutex, BlockReasonIO,
			sched.BlockOther, sched.BlockFutex, sched.BlockIO)
	}
}

func TestSpanArgRoundTrip(t *testing.T) {
	for _, c := range []struct {
		span   uint64
		tenant int
	}{{0, 0}, {1, 5}, {123456, 63}, {1 << 40, 7}} {
		span, tenant := SplitSpanArg(SpanArg(c.span, c.tenant))
		if span != c.span || tenant != c.tenant {
			t.Errorf("SpanArg(%d,%d) round-tripped to (%d,%d)", c.span, c.tenant, span, tenant)
		}
	}
	if _, tenant := SplitSpanArg(SpanArg(9, 200)); tenant != 63 {
		t.Errorf("tenant over 6 bits should clamp to 63, got %d", tenant)
	}
}

// syntheticRequestStream hand-builds one worker thread serving one request,
// with a futex wait, a spin carve-out and a migration carve-out, so every
// component's exact value is known in advance.
func syntheticRequestStream() []Event {
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }
	dus := func(n int64) int64 { return n * int64(sim.Microsecond) }
	return []Event{
		{At: us(0), CPU: 0, Thread: 0, Kind: Spawn},
		{At: us(0), CPU: 0, Thread: 0, Kind: Enqueue, Arg: 1},
		{At: us(1), CPU: 0, Thread: 0, Kind: Dispatch}, // runqueue 1us
		{At: us(2), CPU: -1, Thread: -1, Kind: ReqArrive, Arg: SpanArg(0, 3)},
		{At: us(4), CPU: 0, Thread: 0, Kind: ReqStart, Arg: SpanArg(0, 3)}, // queue 2us; oncpu 3us so far
		{At: us(6), CPU: 0, Thread: 0, Kind: SpinSeg, Arg: dus(1)},         // 2us interval: 1 spin, 1 oncpu
		{At: us(7), CPU: 0, Thread: 0, Kind: Block, Arg: BlockReasonFutex}, // +1 oncpu
		{At: us(10), CPU: 0, Thread: 0, Kind: Wake},                        // lockwait 3us
		{At: us(10), CPU: 1, Thread: 0, Kind: Migrate, Arg: 1},
		{At: us(10), CPU: 1, Thread: 0, Kind: Enqueue, Arg: 1},
		{At: us(12), CPU: 1, Thread: 0, Kind: Dispatch},                   // runqueue 2us
		{At: us(14), CPU: 1, Thread: 0, Kind: MigPenalty, Arg: dus(2)},    // 2us interval: all migration
		{At: us(15), CPU: 1, Thread: 0, Kind: ReqEnd, Arg: SpanArg(0, 3)}, // +1 oncpu
		{At: us(16), CPU: 1, Thread: 0, Kind: Exit},                       // +1 oncpu
	}
}

func TestBlameSyntheticExact(t *testing.T) {
	events := syntheticRequestStream()
	if vs := CheckInvariants(events); len(vs) != 0 {
		t.Fatalf("synthetic stream fails lifecycle oracle: %v", vs)
	}
	if vs := CheckBlame(events); len(vs) != 0 {
		t.Fatalf("synthetic stream fails blame oracle: %v", vs)
	}
	b := ComputeBlame(events)
	if len(b.Threads) != 1 || len(b.Requests) != 1 || b.Incomplete != 0 {
		t.Fatalf("got %d threads, %d requests, %d incomplete; want 1, 1, 0",
			len(b.Threads), len(b.Requests), b.Incomplete)
	}
	us := func(n int64) sim.Duration { return sim.Duration(n) * sim.Microsecond }
	th := b.Threads[0]
	wantTh := Breakdown{}
	wantTh[CompRunqueue] = us(3) // 1 initial + 2 after wake
	wantTh[CompOnCPU] = us(7)    // 3 pre-start + 1 spin leftover + 1 pre-block + 1 pre-end + 1 pre-exit
	wantTh[CompSpin] = us(1)
	wantTh[CompLockWait] = us(3)
	wantTh[CompMigration] = us(2)
	if th.Comp != wantTh {
		t.Errorf("thread breakdown = %v, want %v", th.Comp, wantTh)
	}
	if th.Comp.Sum() != th.Span() {
		t.Errorf("thread components sum to %v, span is %v", th.Comp.Sum(), th.Span())
	}
	r := b.Requests[0]
	if r.Tenant != 3 || r.Span != 0 {
		t.Fatalf("request identity = span %d tenant %d, want span 0 tenant 3", r.Span, r.Tenant)
	}
	wantReq := Breakdown{}
	wantReq[CompQueue] = us(2)
	wantReq[CompOnCPU] = us(3) // 1 pre-spin + 1 pre-block + 1 before req-end
	wantReq[CompSpin] = us(1)
	wantReq[CompLockWait] = us(3)
	wantReq[CompRunqueue] = us(2)
	wantReq[CompMigration] = us(2)
	if r.Comp != wantReq {
		t.Errorf("request breakdown = %v, want %v", r.Comp, wantReq)
	}
	if r.Comp.Sum() != r.Latency() {
		t.Errorf("request components sum to %v, latency is %v", r.Comp.Sum(), r.Latency())
	}
}

// TestBlameCarveOverflowViolation pins the oracle bite: a spin-seg wider
// than the interval since the last charge point is a kernel bug.
func TestBlameCarveOverflowViolation(t *testing.T) {
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }
	events := []Event{
		{At: us(0), CPU: 0, Thread: 0, Kind: Spawn},
		{At: us(0), CPU: 0, Thread: 0, Kind: Enqueue, Arg: 1},
		{At: us(1), CPU: 0, Thread: 0, Kind: Dispatch},
		{At: us(2), CPU: 0, Thread: 0, Kind: SpinSeg, Arg: int64(5 * sim.Microsecond)},
		{At: us(3), CPU: 0, Thread: 0, Kind: Exit},
	}
	vs := CheckBlame(events)
	if len(vs) == 0 {
		t.Fatal("oversized spin-seg produced no violation")
	}
	if !strings.Contains(vs[0].Msg, "exceeds") {
		t.Fatalf("unexpected violation: %v", vs[0])
	}
}

// TestBlameIncompleteSpans: a request that never starts, and one that never
// ends, are counted incomplete and excluded without breaking exactness.
func TestBlameIncompleteSpans(t *testing.T) {
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }
	events := []Event{
		{At: us(0), CPU: -1, Thread: -1, Kind: ReqArrive, Arg: SpanArg(0, 0)},
		{At: us(0), CPU: 0, Thread: 0, Kind: Spawn},
		{At: us(0), CPU: 0, Thread: 0, Kind: Enqueue, Arg: 1},
		{At: us(1), CPU: 0, Thread: 0, Kind: Dispatch},
		{At: us(2), CPU: -1, Thread: -1, Kind: ReqArrive, Arg: SpanArg(1, 0)},
		{At: us(3), CPU: 0, Thread: 0, Kind: ReqStart, Arg: SpanArg(1, 0)},
		// Stream ends with span 0 never started and span 1 still open.
	}
	if vs := CheckBlame(events); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
	b := ComputeBlame(events)
	if len(b.Requests) != 0 || b.Incomplete != 2 {
		t.Fatalf("got %d complete, %d incomplete; want 0, 2", len(b.Requests), b.Incomplete)
	}
}

// TestBlameFutexHeavy runs the real futex-heavy workload and checks that
// vanilla runs blame lock waiting while VB shifts it into vbskip.
func TestBlameFutexHeavy(t *testing.T) {
	cfg := workload.RunConfig{Threads: 16, Cores: 4, Seed: 3, WorkScale: 0.05}
	vanilla := ComputeBlame(runTraced(t, "streamcluster", cfg).Events())
	cfg.Feat = sched.Features{VB: true}
	vb := ComputeBlame(runTraced(t, "streamcluster", cfg).Events())

	sumComp := func(b *Blame, c Component) sim.Duration {
		var s sim.Duration
		for i := range b.Threads {
			s += b.Threads[i].Comp[c]
		}
		return s
	}
	if got := sumComp(vanilla, CompLockWait); got == 0 {
		t.Error("vanilla streamcluster shows no lockwait blame")
	}
	if got := sumComp(vb, CompVBSkip); got == 0 {
		t.Error("VB streamcluster shows no vbskip blame")
	}
	if v, b := sumComp(vanilla, CompLockWait), sumComp(vb, CompLockWait); b >= v {
		t.Errorf("VB should shift blame out of lockwait: vanilla %v, vb %v", v, b)
	}
}

// TestBlameMemcachedRequests: the service emits request spans, so blame
// must see completed requests whose components include queueing.
func TestBlameMemcachedRequests(t *testing.T) {
	r := NewRing(1 << 22)
	res := workload.Memcached(workload.MemcachedConfig{
		Workers: 4, Cores: 2, VB: true, Requests: 2000, Conns: 16, Seed: 7,
		Tracer: r,
	})
	if res.Served == 0 {
		t.Fatal("memcached served no requests")
	}
	checkClean(t, r)
	b := ComputeBlame(r.Events())
	if len(b.Requests) == 0 {
		t.Fatal("no completed request spans in the memcached trace")
	}
	var total Breakdown
	for i := range b.Requests {
		total.Add(&b.Requests[i].Comp)
	}
	if total[CompOnCPU] == 0 {
		t.Error("requests show no on-CPU time")
	}
	var buf bytes.Buffer
	if err := WriteBlame(&buf, b, []string{"mc"}, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"completed requests", "p99 tail blame", "mc"} {
		if !strings.Contains(out, want) {
			t.Errorf("blame report missing %q:\n%s", want, out)
		}
	}
}

// TestBlameRowsMergeAssociative: merging per-machine rows must equal
// aggregating the concatenated request set directly, and the merged
// percentiles must come from the merged digests.
func TestBlameRowsMerge(t *testing.T) {
	mk := func(seed uint64) *Blame {
		r := NewRing(1 << 22)
		workload.Memcached(workload.MemcachedConfig{
			Workers: 4, Cores: 2, VB: true, Requests: 1000, Conns: 8, Seed: seed,
			Tracer: r,
		})
		return ComputeBlame(r.Events())
	}
	b0, b1 := mk(1), mk(2)
	rows0, rows1 := BlameRows(0, b0), BlameRows(1, b1)
	merged := MergeBlameRows(append(append([]BlameRow{}, rows0...), rows1...))
	if len(merged) != 1 {
		t.Fatalf("expected one merged tenant row, got %d", len(merged))
	}
	if want := rows0[0].Requests + rows1[0].Requests; merged[0].Requests != want {
		t.Fatalf("merged %d requests, want %d", merged[0].Requests, want)
	}
	// Merge the other way round: digests must be commutative, so the row
	// is identical field for field.
	swapped := MergeBlameRows(append(append([]BlameRow{}, rows1...), rows0...))
	if swapped[0] != merged[0] {
		t.Error("blame-row merge is not commutative")
	}
	for c := Component(0); c < NumComponents; c++ {
		want := rows0[0].Comp[c] + rows1[0].Comp[c]
		if got := merged[0].Comp[c]; got != want {
			t.Errorf("component %v merged sum %v, want %v", c, got, want)
		}
	}
}

// TestBlameRowsMultiTenant pins BlameRows and MergeBlameRows on a
// hand-built stream: one worker serves five requests of three tenants,
// arriving out of tenant order and reusing span 0 across tenants. Rows
// come out in tenant order with every component sum and the total
// digest's count, sum and extremes known in advance; merging two
// machines' rows doubles each count and sum.
func TestBlameRowsMultiTenant(t *testing.T) {
	us := func(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Microsecond) }
	req := func(at int64, kind Kind, span uint64, tenant int) Event {
		if kind == ReqArrive {
			return Event{At: us(at), CPU: -1, Thread: -1, Kind: kind, Arg: SpanArg(span, tenant)}
		}
		return Event{At: us(at), CPU: 0, Thread: 0, Kind: kind, Arg: SpanArg(span, tenant)}
	}
	events := []Event{
		{At: us(0), CPU: 0, Thread: 0, Kind: Spawn},
		{At: us(0), CPU: 0, Thread: 0, Kind: Enqueue, Arg: 1},
		{At: us(0), CPU: 0, Thread: 0, Kind: Dispatch},
		req(1, ReqArrive, 0, 2), req(2, ReqStart, 0, 2),
		req(3, ReqArrive, 0, 0), req(5, ReqEnd, 0, 2),
		req(6, ReqStart, 0, 0), req(7, ReqArrive, 1, 2),
		req(8, ReqEnd, 0, 0), req(8, ReqArrive, 0, 1),
		req(9, ReqStart, 1, 2), req(10, ReqEnd, 1, 2),
		req(11, ReqStart, 0, 1), req(12, ReqArrive, 1, 0),
		req(15, ReqEnd, 0, 1), req(16, ReqStart, 1, 0),
		req(17, ReqEnd, 1, 0),
		{At: us(18), CPU: 0, Thread: 0, Kind: Exit},
	}
	if vs := CheckStream(events); len(vs) != 0 {
		t.Fatalf("stream fails the oracle: %v", vs)
	}
	b := ComputeBlame(events)
	if len(b.Requests) != 5 || b.Incomplete != 0 {
		t.Fatalf("got %d requests (%d incomplete), want 5 (0)", len(b.Requests), b.Incomplete)
	}

	d := func(n int64) sim.Duration { return sim.Duration(n) * sim.Microsecond }
	type want struct {
		tenant          int
		requests        uint64
		queue, oncpu    sim.Duration
		total, min, max sim.Duration
	}
	wants := []want{
		{tenant: 0, requests: 2, queue: d(7), oncpu: d(3), total: d(10), min: d(5), max: d(5)},
		{tenant: 1, requests: 1, queue: d(3), oncpu: d(4), total: d(7), min: d(7), max: d(7)},
		{tenant: 2, requests: 2, queue: d(3), oncpu: d(4), total: d(7), min: d(3), max: d(4)},
	}
	checkRows := func(label string, rows []BlameRow, machine int, scale uint64) {
		t.Helper()
		if len(rows) != len(wants) {
			t.Fatalf("%s: %d rows, want %d", label, len(rows), len(wants))
		}
		for i, w := range wants {
			r := &rows[i]
			s := sim.Duration(scale)
			if r.Machine != machine || r.Tenant != w.tenant || r.Requests != scale*w.requests {
				t.Errorf("%s row %d: machine %d tenant %d requests %d, want %d %d %d",
					label, i, r.Machine, r.Tenant, r.Requests, machine, w.tenant, scale*w.requests)
			}
			if got := r.Comp[CompQueue]; got != s*w.queue {
				t.Errorf("%s tenant %d: queue sum %v, want %v", label, w.tenant, got, s*w.queue)
			}
			if got := r.Comp[CompOnCPU]; got != s*w.oncpu {
				t.Errorf("%s tenant %d: oncpu sum %v, want %v", label, w.tenant, got, s*w.oncpu)
			}
			for c := Component(0); c < NumComponents; c++ {
				if c != CompQueue && c != CompOnCPU && r.Comp[c] != 0 {
					t.Errorf("%s tenant %d: %v sum %v, want 0", label, w.tenant, c, r.Comp[c])
				}
			}
			if r.Total.Count() != r.Requests || r.Total.Sum() != s*w.total ||
				r.Total.Min() != w.min || r.Total.Max() != w.max {
				t.Errorf("%s tenant %d: total n=%d sum=%v min=%v max=%v, want n=%d sum=%v min=%v max=%v",
					label, w.tenant, r.Total.Count(), r.Total.Sum(), r.Total.Min(), r.Total.Max(),
					r.Requests, s*w.total, w.min, w.max)
			}
		}
	}
	rows := BlameRows(4, b)
	checkRows("BlameRows", rows, 4, 1)
	checkRows("MergeBlameRows", MergeBlameRows(append(append([]BlameRow{}, rows...), rows...)), -1, 2)
}
