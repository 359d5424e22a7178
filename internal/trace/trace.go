// Package trace records simulated-kernel scheduling events into a bounded
// ring, for debugging workloads and for tooling that wants a scheduling
// timeline (hpdc21 run -trace).
package trace

import (
	"fmt"
	"io"
	"sort"

	"oversub/internal/sim"
)

// Kind labels a scheduling event.
type Kind string

// Event kinds emitted by the kernel. Together they cover every state
// transition of the thread lifecycle (spawn → enqueue → dispatch →
// preempt/block/vblock/sleep/yield → wake/vwake → migrate → exit), the
// detector actions (BWD, PLE), and cpuset resizes; see DESIGN.md
// "Observability" for the taxonomy and each kind's Arg meaning.
const (
	Spawn     Kind = "spawn"
	Enqueue   Kind = "enqueue"
	Dispatch  Kind = "dispatch"
	Preempt   Kind = "preempt"
	Yield     Kind = "yield"
	Block     Kind = "block"
	VBlock    Kind = "vblock"
	Sleep     Kind = "sleep"
	Wake      Kind = "wake"
	VWake     Kind = "vwake"
	Migrate   Kind = "migrate"
	BWD       Kind = "bwd-deschedule"
	PLE       Kind = "ple-exit"
	Exit      Kind = "exit"
	SliceEnd  Kind = "slice-end"
	CPUResize Kind = "cpuset-resize"

	// Blame-attribution kinds (DESIGN.md §14). ReqArrive is emitted from
	// interrupt context when a request is posted to a service (Thread = -1,
	// CPU = -1); ReqStart/ReqEnd bracket its service on the worker thread.
	// All three carry SpanArg(span, tenant) in Arg. SpinSeg and MigPenalty
	// are carve-out markers emitted by the kernel when it closes a segment:
	// Arg is the wall-clock width (ns) of the busy-wait spin segment, resp.
	// the migration-warmup share of an overhead segment, that the blame
	// walker must reclassify out of the preceding on-CPU interval.
	ReqArrive  Kind = "req-arrive"
	ReqStart   Kind = "req-start"
	ReqEnd     Kind = "req-end"
	SpinSeg    Kind = "spin-seg"
	MigPenalty Kind = "mig-penalty"
)

// Block-event Arg values: the reason a thread vanilla-blocked. They mirror
// sched.BlockOther/BlockFutex/BlockIO (the kernel cannot import this
// package; blame_test pins the two lists equal).
const (
	BlockReasonOther int64 = iota
	BlockReasonFutex
	BlockReasonIO
)

// SpanArg packs a request span id and its tenant index into one trace Arg.
// Tenant is clamped to 6 bits; span ids are per-service monotone counters.
func SpanArg(span uint64, tenant int) int64 {
	if tenant < 0 {
		tenant = 0
	}
	if tenant > 63 {
		tenant = 63
	}
	return int64(span<<6) | int64(tenant)
}

// SplitSpanArg unpacks a SpanArg-encoded Arg.
func SplitSpanArg(arg int64) (span uint64, tenant int) {
	return uint64(arg) >> 6, int(arg & 63)
}

// Event is one recorded scheduling event.
type Event struct {
	At     sim.Time
	CPU    int
	Thread int // thread id, -1 when not applicable
	Kind   Kind
	// Arg is kind-specific: target CPU for migrate and spawn, runqueue
	// length after insert for enqueue, eligible count for dispatch, sleep
	// duration for sleep, skipped-peer count for bwd-deschedule, new cpuset
	// size for cpuset-resize.
	Arg int64
}

// String renders the event as one log line.
func (e Event) String() string {
	return fmt.Sprintf("%-12v cpu%-3d t%-4d %-14s %d", e.At, e.CPU, e.Thread, e.Kind, e.Arg)
}

// Ring is a bounded in-memory trace buffer implementing sched.Tracer. It
// grows on demand up to its capacity, one fixed-size chunk at a time, so a
// run pays for the events it records, not for the bound.
type Ring struct {
	chunks   [][]Event // slot i lives at chunks[i>>chunkShift][i&chunkMask]
	n        int       // events retained
	capacity int
	next     int // once wrapped: the slot of the oldest event
	dropped  uint64
	filter   map[Kind]bool
}

// Ring storage grows in chunks of chunkLen events (48 KB). Chunks are never
// copied or freed before the ring is; the last one is clamped so the slots
// total exactly the capacity.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// NewRing returns a tracer holding the most recent capacity events. It
// stores only the bound: storage is allocated as events arrive.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Ring{capacity: capacity}
}

// Only restricts recording to the given kinds. Calling it with no kinds
// restores unfiltered recording — the same behaviour as never calling it.
func (r *Ring) Only(kinds ...Kind) *Ring {
	if len(kinds) == 0 {
		r.filter = nil
		return r
	}
	r.filter = make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		r.filter[k] = true
	}
	return r
}

// slot returns the storage of ring slot i.
func (r *Ring) slot(i int) *Event { return &r.chunks[i>>chunkShift][i&chunkMask] }

// Trace implements the kernel's tracer hook.
func (r *Ring) Trace(at sim.Time, cpu, thread int, kind string, arg int64) {
	k := Kind(kind)
	if r.filter != nil && !r.filter[k] {
		return
	}
	ev := Event{At: at, CPU: cpu, Thread: thread, Kind: k, Arg: arg}
	if r.n < r.capacity {
		if r.n&chunkMask == 0 {
			r.chunks = append(r.chunks, make([]Event, min(chunkLen, r.capacity-r.n)))
		}
		*r.slot(r.n) = ev
		r.n++
		return
	}
	// Overwrite the oldest entry.
	*r.slot(r.next) = ev
	r.next = (r.next + 1) % r.capacity
	r.dropped++
}

// Events returns the recorded events in chronological order.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.n)
	out = r.appendSlots(out, r.next, r.n)
	return r.appendSlots(out, 0, r.next)
}

// appendSlots appends the events of slots [lo, hi) to out, chunk by chunk.
func (r *Ring) appendSlots(out []Event, lo, hi int) []Event {
	for lo < hi {
		seg := r.chunks[lo>>chunkShift][lo&chunkMask:]
		seg = seg[:min(len(seg), hi-lo)]
		out = append(out, seg...)
		lo += len(seg)
	}
	return out
}

// Dropped returns how many old events were overwritten.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Len returns the number of retained events.
func (r *Ring) Len() int { return r.n }

// Summary counts events by kind. Textual consumers should prefer Counts:
// ranging over the returned map prints in randomized order.
func (r *Ring) Summary() map[Kind]int {
	out := make(map[Kind]int)
	for _, e := range r.Events() {
		out[e.Kind]++
	}
	return out
}

// KindCount is one entry of an ordered event-kind tally.
type KindCount struct {
	Kind Kind
	N    int
}

// Counts tallies events by kind, sorted by kind name — the deterministic
// counterpart of Summary for rendered output.
func (r *Ring) Counts() []KindCount { return CountKinds(r.Events()) }

// CountKinds tallies an event slice by kind, sorted by kind name.
func CountKinds(events []Event) []KindCount {
	idx := make(map[Kind]int)
	var out []KindCount
	for _, e := range events {
		i, ok := idx[e.Kind]
		if !ok {
			i = len(out)
			idx[e.Kind] = i
			out = append(out, KindCount{Kind: e.Kind})
		}
		out[i].N++
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// WriteEvents dumps an event slice as text, one event per line — the
// slice-level form of Ring.WriteTo, for streams already extracted (fleet
// per-machine sections).
func WriteEvents(w io.Writer, events []Event) error {
	for _, e := range events {
		if _, err := fmt.Fprintln(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteTo dumps the trace as text, one event per line.
func (r *Ring) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, e := range r.Events() {
		m, err := fmt.Fprintln(w, e.String())
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	if r.dropped > 0 {
		m, err := fmt.Fprintf(w, "(%d older events dropped)\n", r.dropped)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
