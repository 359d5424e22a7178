package trace

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"oversub/internal/sim"
	"oversub/internal/stats"
)

// Blame attribution (DESIGN.md §14) decomposes every thread's — and every
// request's — wall time into named components, by charging each interval
// between consecutive events of a thread to exactly one component chosen
// from the event stream's causal structure. The decomposition is exact by
// construction: components sum to the span duration, and CheckBlame
// re-derives both sides independently so the equality doubles as a trace
// oracle (every traced CI workload enforces it).

// Component names one cause of elapsed time.
type Component int

// The blame taxonomy. OnCPU is productive compute; Runqueue is
// wake/preempt-to-dispatch queueing; LockWait is futex sleeping (Block
// with BlockReasonFutex); Spin is busy-wait CPU time (TTAS loops, carved
// out of on-CPU intervals by SpinSeg markers); VBSkip is time parked or
// skipped by virtual blocking and BWD; Migration is cache-warmup penalty
// after a cross-CPU move (carved out by MigPenalty markers); Sleep is
// timed sleeps and non-futex blocking (I/O waits); Queue is a request's
// arrival-to-service-start delay (requests only).
const (
	CompOnCPU Component = iota
	CompRunqueue
	CompLockWait
	CompSpin
	CompVBSkip
	CompMigration
	CompSleep
	CompQueue
	NumComponents
)

var componentNames = [NumComponents]string{
	"oncpu", "runqueue", "lockwait", "spin", "vbskip", "migration", "sleep", "queue",
}

// String returns the component's short name.
func (c Component) String() string {
	if c < 0 || c >= NumComponents {
		return fmt.Sprintf("component(%d)", int(c))
	}
	return componentNames[c]
}

// Breakdown is a per-component duration vector.
type Breakdown [NumComponents]sim.Duration

// Sum returns the total over all components.
func (b *Breakdown) Sum() sim.Duration {
	var s sim.Duration
	for _, d := range b {
		s += d
	}
	return s
}

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o *Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// ThreadBlame is one thread's decomposed wall time, from its first traced
// event to its exit (or the end of the stream).
type ThreadBlame struct {
	Thread     int
	Start, End sim.Time
	Comp       Breakdown
}

// Span returns the thread's observed wall time.
func (t *ThreadBlame) Span() sim.Duration { return t.End.Sub(t.Start) }

// RequestBlame is one completed request's decomposed latency: Queue from
// arrival to service start, then the serving thread's components while the
// request was open.
type RequestBlame struct {
	Span       uint64 // span id (per-service monotone counter)
	Tenant     int
	Thread     int // serving worker thread
	Arrive     sim.Time
	Start, End sim.Time
	Comp       Breakdown
}

// Latency returns the request's arrival-to-completion wall time.
func (r *RequestBlame) Latency() sim.Duration { return r.End.Sub(r.Arrive) }

// Blame is the full attribution derived from one event stream.
type Blame struct {
	Threads []ThreadBlame
	// Requests holds completed spans (arrive, start and end all traced), in
	// stream order of their arrivals.
	Requests []RequestBlame
	// Incomplete counts spans missing a bracket at stream close (in flight
	// when the run ended, or whose arrival predates the ring).
	Incomplete int
}

// bthread is the walker's per-thread charging state.
type bthread struct {
	seen   bool
	exited bool
	class  Component
	since  sim.Time
	start  sim.Time
	end    sim.Time
	req    int // open request index, -1 when none
	comp   Breakdown
}

// breq is one request span under reconstruction. key is the packed
// SpanArg: span counters are per-service monotone, so two tenants on the
// same machine reuse the same span numbers and only (span, tenant) is
// unique within a stream.
type breq struct {
	key       uint64
	span      uint64
	tenant    int
	thread    int
	arrive    sim.Time
	start     sim.Time
	end       sim.Time
	hasArrive bool
	started   bool
	done      bool
	comp      Breakdown
}

// ComputeBlame attributes the event stream. The stream must be complete
// and chronological (Ring.Events of an unwrapped ring).
func ComputeBlame(events []Event) *Blame {
	b, _ := blameWalk(events)
	return b
}

// CheckBlame validates the blame invariants of a stream: carve-out markers
// (spin-seg, mig-penalty) must fit inside the on-CPU interval they annotate,
// request spans must bracket correctly (one open span per thread, start
// after arrive, end after start), and — the exactness invariant — each
// thread's and each completed request's components must sum to its span.
func CheckBlame(events []Event) []Violation {
	_, v := blameWalk(events)
	return v
}

func blameWalk(events []Event) (*Blame, []Violation) {
	var out []Violation
	report := func(i int, msg string, args ...any) {
		out = append(out, Violation{Index: i, Event: events[i], Msg: fmt.Sprintf(msg, args...)})
	}

	maxTID, arrivals := -1, 0
	for _, e := range events {
		if e.Thread > maxTID {
			maxTID = e.Thread
		}
		if e.Kind == ReqArrive {
			arrivals++
		}
	}
	ts := make([]bthread, maxTID+1)
	for i := range ts {
		ts[i].req = -1
	}
	reqs := make([]breq, 0, arrivals)
	spanIdx := make(map[uint64]int, arrivals)

	var end sim.Time
	if len(events) > 0 {
		end = events[len(events)-1].At
	}

	// charge books the pending interval [since, until) to the thread's
	// current class, mirrored into its open request.
	charge := func(t *bthread, until sim.Time) {
		d := until.Sub(t.since)
		if d < 0 {
			d = 0
		}
		t.comp[t.class] += d
		if t.req >= 0 {
			reqs[t.req].comp[t.class] += d
		}
		t.since = until
	}
	// carve reclassifies the trailing w of the pending interval into comp
	// (spin or migration), booking the rest to the current class.
	carve := func(i int, t *bthread, at sim.Time, w sim.Duration, comp Component) {
		avail := at.Sub(t.since)
		if avail < 0 {
			avail = 0
		}
		if w > avail {
			report(i, "%s of %v exceeds the %v since the last charge point", events[i].Kind, w, avail)
			w = avail
		}
		if t.class != CompOnCPU {
			report(i, "%s while charging %s (expected oncpu)", events[i].Kind, t.class)
		}
		t.comp[t.class] += avail - w
		t.comp[comp] += w
		if t.req >= 0 {
			reqs[t.req].comp[t.class] += avail - w
			reqs[t.req].comp[comp] += w
		}
		t.since = at
	}

	for i, e := range events {
		if e.Kind == ReqArrive {
			span, tenant := SplitSpanArg(e.Arg)
			key := uint64(e.Arg)
			if _, dup := spanIdx[key]; dup {
				report(i, "duplicate req-arrive for span %d of tenant %d", span, tenant)
				continue
			}
			spanIdx[key] = len(reqs)
			reqs = append(reqs, breq{key: key, span: span, tenant: tenant, thread: -1, arrive: e.At, hasArrive: true})
			continue
		}
		if e.Thread < 0 {
			continue // cpuset-resize and other machine-level events
		}
		t := &ts[e.Thread]
		if t.exited {
			continue // lifecycle violations are the oracle's department
		}
		if !t.seen {
			t.seen = true
			t.start = e.At
			t.since = e.At
		}
		if e.Kind == SpinSeg {
			carve(i, t, e.At, sim.Duration(e.Arg), CompSpin)
			continue
		}
		if e.Kind == MigPenalty {
			carve(i, t, e.At, sim.Duration(e.Arg), CompMigration)
			continue
		}
		charge(t, e.At)
		switch e.Kind {
		case Spawn, Preempt, SliceEnd, Yield, PLE, Wake, VWake:
			t.class = CompRunqueue
		case Enqueue:
			// A VB tail re-enqueue keeps the thread in vbskip; every other
			// enqueue means runnable-waiting.
			if t.class != CompVBSkip {
				t.class = CompRunqueue
			}
		case Migrate:
			// The thread keeps waiting in whatever class it was in; the
			// warmup cost lands later via mig-penalty.
		case Dispatch:
			t.class = CompOnCPU
		case BWD, VBlock:
			t.class = CompVBSkip
		case Block:
			if e.Arg == BlockReasonFutex {
				t.class = CompLockWait
			} else {
				t.class = CompSleep
			}
		case Sleep:
			t.class = CompSleep
		case Exit:
			t.exited = true
			t.end = e.At
		case ReqStart:
			span, tenant := SplitSpanArg(e.Arg)
			key := uint64(e.Arg)
			if t.req >= 0 {
				report(i, "req-start of span %d while span %d is open on t%d", span, reqs[t.req].span, e.Thread)
				continue
			}
			ri, ok := spanIdx[key]
			if !ok {
				// Arrival predates the stream (or was filtered); track the
				// span so its end doesn't misfire, but it stays incomplete.
				ri = len(reqs)
				spanIdx[key] = ri
				reqs = append(reqs, breq{key: key, span: span, tenant: tenant, thread: -1, arrive: e.At})
			}
			r := &reqs[ri]
			if r.started {
				report(i, "req-start of span %d which already started", span)
				continue
			}
			r.started = true
			r.thread = e.Thread
			r.start = e.At
			if r.start.Sub(r.arrive) < 0 {
				report(i, "req-start of span %d at %v before its arrival %v", span, e.At, r.arrive)
			} else {
				r.comp[CompQueue] = r.start.Sub(r.arrive)
			}
			t.req = ri
		case ReqEnd:
			span, _ := SplitSpanArg(e.Arg)
			if t.req < 0 || reqs[t.req].key != uint64(e.Arg) {
				report(i, "req-end of span %d with no matching open span on t%d", span, e.Thread)
				continue
			}
			r := &reqs[t.req]
			r.end = e.At
			r.done = true
			t.req = -1
		case CPUResize, ReqArrive, SpinSeg, MigPenalty:
			// Never reached: all four are consumed by the early continues
			// above; listed to keep the switch exhaustive for kindswitch.
		}
	}

	b := &Blame{
		Threads:  make([]ThreadBlame, 0, len(ts)),
		Requests: make([]RequestBlame, 0, len(reqs)),
	}
	for id := range ts {
		t := &ts[id]
		if !t.seen {
			continue
		}
		if !t.exited {
			charge(t, end)
			t.end = end
		}
		b.Threads = append(b.Threads, ThreadBlame{Thread: id, Start: t.start, End: t.end, Comp: t.comp})
	}
	for ri := range reqs {
		r := &reqs[ri]
		if !(r.hasArrive && r.started && r.done) {
			b.Incomplete++
			continue
		}
		b.Requests = append(b.Requests, RequestBlame{
			Span: r.span, Tenant: r.tenant, Thread: r.thread,
			Arrive: r.arrive, Start: r.start, End: r.end, Comp: r.comp,
		})
	}

	// The exactness invariant, re-derived from the other side: span
	// duration computed from timestamps alone must equal the component sum.
	vi := len(events) - 1
	for i := range b.Threads {
		t := &b.Threads[i]
		if got, want := t.Comp.Sum(), t.Span(); got != want && vi >= 0 {
			report(vi, "blame of t%d sums to %v but its span is %v", t.Thread, got, want)
		}
	}
	for i := range b.Requests {
		r := &b.Requests[i]
		if got, want := r.Comp.Sum(), r.Latency(); got != want && vi >= 0 {
			report(vi, "blame of request span %d sums to %v but its latency is %v", r.Span, got, want)
		}
	}
	return b, out
}

// ---------------------------------------------------------------------------
// Aggregation: per-(machine, tenant) rows with mergeable per-component
// digests, so fleet blame composes the same way fleet latency does.

// MachineEvents is one machine's slice of a fleet trace.
type MachineEvents struct {
	Machine int
	Events  []Event
	Dropped uint64
}

// CollectMachines snapshots one ring per machine into MachineEvents.
func CollectMachines(rings []*Ring) []MachineEvents {
	out := make([]MachineEvents, len(rings))
	for i, r := range rings {
		out[i] = MachineEvents{Machine: i, Events: r.Events(), Dropped: r.Dropped()}
	}
	return out
}

// BlameRow aggregates completed requests of one (machine, tenant) pair:
// one duration digest per component plus the total-latency digest. Rows
// merge across machines (MergeBlameRows), mirroring the fleet latency
// pipeline.
type BlameRow struct {
	Machine  int // -1 for fleet-merged rows
	Tenant   int
	Requests uint64
	Comp     [NumComponents]stats.Digest
	Total    stats.Digest
}

// BlameRows buckets a machine's completed requests by tenant, in tenant
// order.
func BlameRows(machine int, b *Blame) []BlameRow {
	out := tenantRows(machine, len(b.Requests), func(i int) int { return b.Requests[i].Tenant })
	for i := range b.Requests {
		r := &b.Requests[i]
		row := rowOf(out, r.Tenant)
		row.Requests++
		for c := Component(0); c < NumComponents; c++ {
			row.Comp[c].Add(r.Comp[c])
		}
		row.Total.Add(r.Latency())
	}
	return out
}

// MergeBlameRows folds per-machine rows into per-tenant fleet rows
// (Machine = -1), merging every sub-digest pairwise.
func MergeBlameRows(rows []BlameRow) []BlameRow {
	out := tenantRows(-1, len(rows), func(i int) int { return rows[i].Tenant })
	for i := range rows {
		r := &rows[i]
		m := rowOf(out, r.Tenant)
		m.Requests += r.Requests
		for c := range m.Comp {
			m.Comp[c].Merge(&r.Comp[c])
		}
		m.Total.Merge(&r.Total)
	}
	return out
}

// tenantRows returns one empty row per distinct tenantOf(0..n-1), in
// tenant order. Rows are large (nine digests), so they are built in place
// rather than behind pointers and copied out.
func tenantRows(machine, n int, tenantOf func(int) int) []BlameRow {
	var tenants []int
	for i := 0; i < n; i++ {
		if tn := tenantOf(i); !slices.Contains(tenants, tn) {
			tenants = append(tenants, tn)
		}
	}
	slices.Sort(tenants)
	out := make([]BlameRow, len(tenants))
	for i, tn := range tenants {
		out[i].Machine, out[i].Tenant = machine, tn
	}
	return out
}

// rowOf returns the row of tenant in rows built by tenantRows.
func rowOf(rows []BlameRow, tenant int) *BlameRow {
	return &rows[sort.Search(len(rows), func(i int) bool { return rows[i].Tenant >= tenant })]
}

// ---------------------------------------------------------------------------
// Rendering.

// tenantName resolves a display name for a tenant index.
func tenantName(names []string, tenant int) string {
	if tenant >= 0 && tenant < len(names) {
		return names[tenant]
	}
	return fmt.Sprintf("tenant%d", tenant)
}

// pct renders d as a percentage of total.
func pct(d, total sim.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(d) / float64(total)
}

// WriteBlame renders the attribution as deterministic text: the per-thread
// component table, the per-tenant request table with latency shares, and
// the top-k tail report ranking components over the slowest requests of
// each tenant. names maps tenant indices to display names (nil is fine).
func WriteBlame(w io.Writer, b *Blame, names []string, topK int) error {
	if topK <= 0 {
		topK = 10
	}
	bw := &errWriter{w: w}
	bw.printf("blame: %d threads, %d completed requests (%d incomplete)\n",
		len(b.Threads), len(b.Requests), b.Incomplete)

	bw.printf("\nthread wall time by component:\n")
	bw.printf("  %-6s %12s", "thread", "span")
	for c := Component(0); c < CompQueue; c++ {
		bw.printf(" %10s", c)
	}
	bw.printf("\n")
	var ttotal Breakdown
	var tspan sim.Duration
	for i := range b.Threads {
		t := &b.Threads[i]
		bw.printf("  %-6d %12v", t.Thread, t.Span())
		for c := Component(0); c < CompQueue; c++ {
			bw.printf(" %10v", t.Comp[c])
		}
		bw.printf("\n")
		ttotal.Add(&t.Comp)
		tspan += t.Span()
	}
	bw.printf("  %-6s %12v", "total", tspan)
	for c := Component(0); c < CompQueue; c++ {
		bw.printf(" %9.1f%%", pct(ttotal[c], tspan))
	}
	bw.printf("\n")

	if len(b.Requests) > 0 {
		rows := BlameRows(0, b)
		bw.printf("\nrequest latency by component (share of total):\n")
		writeBlameRowHeader(bw)
		for i := range rows {
			writeBlameRowLine(bw, &rows[i], tenantName(names, rows[i].Tenant))
		}

		bw.printf("\np99 tail blame (top-%d slowest requests per tenant):\n", topK)
		writeTailBlame(bw, b, names, topK)
	}
	return bw.err
}

// writeBlameRowHeader prints the shared header of blame-row tables.
func writeBlameRowHeader(bw *errWriter) {
	bw.printf("  %-10s %9s", "tenant", "requests")
	for c := Component(0); c < NumComponents; c++ {
		bw.printf(" %9s", c)
	}
	bw.printf(" %10s %10s\n", "p50", "p99")
}

// writeBlameRowLine prints one aggregated row: component shares of the
// summed latency, plus p50/p99 of the total-latency digest.
func writeBlameRowLine(bw *errWriter, r *BlameRow, name string) {
	total := r.Total.Sum()
	bw.printf("  %-10s %9d", name, r.Requests)
	for c := Component(0); c < NumComponents; c++ {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.Comp[c].Sum()) / float64(total)
		}
		bw.printf(" %8.1f%%", share)
	}
	bw.printf(" %10v %10v\n", r.Total.Percentile(50), r.Total.Percentile(99))
}

// writeTailBlame aggregates the slowest topK completed requests of each
// tenant and prints their component shares: "why did the p99 tail miss".
func writeTailBlame(bw *errWriter, b *Blame, names []string, topK int) {
	byTenant := make(map[int][]*RequestBlame)
	var tenants []int
	for i := range b.Requests {
		r := &b.Requests[i]
		if _, ok := byTenant[r.Tenant]; !ok {
			tenants = append(tenants, r.Tenant)
		}
		byTenant[r.Tenant] = append(byTenant[r.Tenant], r)
	}
	sort.Ints(tenants)
	bw.printf("  %-10s %6s %12s", "tenant", "n", "worst")
	for c := Component(0); c < NumComponents; c++ {
		bw.printf(" %9s", c)
	}
	bw.printf("\n")
	for _, tn := range tenants {
		reqs := byTenant[tn]
		sort.Slice(reqs, func(i, j int) bool {
			li, lj := reqs[i].Latency(), reqs[j].Latency()
			if li != lj {
				return li > lj
			}
			return reqs[i].Span < reqs[j].Span
		})
		if len(reqs) > topK {
			reqs = reqs[:topK]
		}
		var agg Breakdown
		for _, r := range reqs {
			agg.Add(&r.Comp)
		}
		total := agg.Sum()
		bw.printf("  %-10s %6d %12v", tenantName(names, tn), len(reqs), reqs[0].Latency())
		for c := Component(0); c < NumComponents; c++ {
			bw.printf(" %8.1f%%", pct(agg[c], total))
		}
		bw.printf("\n")
	}
}

// WriteFleetBlame renders per-(machine, tenant) rows followed by the
// fleet-merged per-tenant rows.
func WriteFleetBlame(w io.Writer, machines []MachineEvents, names []string) error {
	bw := &errWriter{w: w}
	var all []BlameRow
	incomplete := 0
	for _, m := range machines {
		b := ComputeBlame(m.Events)
		incomplete += b.Incomplete
		all = append(all, BlameRows(m.Machine, b)...)
	}
	bw.printf("fleet blame: %d machines (%d incomplete spans)\n", len(machines), incomplete)
	bw.printf("\nper machine:\n")
	bw.printf("  %-8s", "machine")
	writeBlameRowHeader(bw)
	for i := range all {
		r := &all[i]
		bw.printf("  %-8d", r.Machine)
		writeBlameRowLine(bw, r, tenantName(names, r.Tenant))
	}
	bw.printf("\nfleet (merged):\n")
	bw.printf("  %-8s", "")
	writeBlameRowHeader(bw)
	merged := MergeBlameRows(all)
	for i := range merged {
		bw.printf("  %-8s", "-")
		writeBlameRowLine(bw, &merged[i], tenantName(names, merged[i].Tenant))
	}
	return bw.err
}
