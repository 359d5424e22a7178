package trace

import (
	"fmt"

	"oversub/internal/sim"
)

// The trace-invariant oracle validates a recorded event stream against the
// kernel's per-thread state machine. It is the dynamic counterpart of
// simlint: any scheduling bug that corrupts the thread lifecycle (a thread
// current on two CPUs, a dispatch without a preceding wake, unbalanced VB
// brackets, time running backwards) surfaces as a violation, so every
// traced workload doubles as a kernel correctness check.
//
// Invariants checked:
//
//  1. Virtual time is monotone: globally over the stream and per CPU.
//  2. A thread is never current on two CPUs, and a CPU never dispatches
//     over an already-current thread.
//  3. Every dispatch finds the thread enqueued (it followed a spawn, wake,
//     vwake, or a preemption-class requeue) — never sleeping, virtually
//     blocked, running, or exited.
//  4. VB events bracket correctly: vblock only while running, vwake only
//     while virtually blocked, and a virtually blocked thread is never
//     dispatched before its flag is cleared.
//  5. Off-CPU transitions (preempt, slice-end, yield, block, sleep,
//     vblock, bwd-deschedule, ple-exit, exit) only happen to the CPU's
//     current thread.
//
// The oracle requires a complete stream: a ring that wrapped (Dropped > 0)
// starts mid-lifecycle and cannot be validated.

// A Violation is one invariant breach found in a trace.
type Violation struct {
	// Index is the event's position in the stream.
	Index int
	// Event is the offending event.
	Event Event
	// Msg explains the breach.
	Msg string
}

// String renders the violation with its event.
func (v Violation) String() string {
	return fmt.Sprintf("event %d (%v): %s", v.Index, v.Event, v.Msg)
}

// lifeState is the oracle's per-thread state machine state.
type lifeState int

const (
	lsUnseen    lifeState = iota
	lsSpawned             // spawn seen, first enqueue pending
	lsQueued              // on a runqueue, eligible
	lsRunning             // current on a CPU
	lsOffCPU              // descheduled (preempt-class), re-enqueue pending
	lsSleeping            // vanilla-blocked or in a timed sleep
	lsWaking              // wake/vwake seen, enqueue pending
	lsVBPending           // vblock seen, tail re-enqueue pending
	lsVBlocked            // on the runqueue with thread_state set
	lsExited
)

func (s lifeState) String() string {
	switch s {
	case lsUnseen:
		return "unseen"
	case lsSpawned:
		return "spawned"
	case lsQueued:
		return "queued"
	case lsRunning:
		return "running"
	case lsOffCPU:
		return "off-cpu"
	case lsSleeping:
		return "sleeping"
	case lsWaking:
		return "waking"
	case lsVBPending:
		return "vblock-pending"
	case lsVBlocked:
		return "vblocked"
	case lsExited:
		return "exited"
	}
	return fmt.Sprintf("lifeState(%d)", int(s))
}

// CheckInvariants validates a complete chronological event stream and
// returns every invariant violation found (nil for a clean trace).
func CheckInvariants(events []Event) []Violation {
	var out []Violation
	report := func(i int, msg string, args ...any) {
		out = append(out, Violation{Index: i, Event: events[i], Msg: fmt.Sprintf(msg, args...)})
	}

	maxTID, maxCPU := -1, -1
	for _, e := range events {
		if e.Thread > maxTID {
			maxTID = e.Thread
		}
		if e.CPU > maxCPU {
			maxCPU = e.CPU
		}
	}
	states := make([]lifeState, maxTID+1)
	runningOn := make([]int, maxTID+1) // CPU the thread is current on, -1 if none
	for i := range runningOn {
		runningOn[i] = -1
	}
	curr := make([]int, maxCPU+1) // thread current on the CPU, -1 if none
	cpuClock := make([]sim.Time, maxCPU+1)
	for i := range curr {
		curr[i] = -1
		cpuClock[i] = -1
	}

	var clock sim.Time = -1
	for i, e := range events {
		// Invariant 1: monotone virtual time.
		if e.At < clock {
			report(i, "time went backwards: %v after %v", e.At, clock)
		}
		clock = e.At
		if e.CPU >= 0 {
			if e.At < cpuClock[e.CPU] {
				report(i, "cpu%d time went backwards: %v after %v", e.CPU, e.At, cpuClock[e.CPU])
			}
			cpuClock[e.CPU] = e.At
		}
		if e.Kind == CPUResize || e.Kind == ReqArrive {
			// Both are emitted outside any thread context (ReqArrive from the
			// posting interrupt); the blame walker validates span bracketing.
			continue
		}
		if e.Thread < 0 {
			report(i, "%s event without a thread", e.Kind)
			continue
		}
		st := states[e.Thread]

		// offCPU validates invariant 5 for a preempt-class event and clears
		// the CPU's current slot.
		offCPU := func() {
			if e.CPU < 0 || e.CPU > maxCPU {
				report(i, "%s on invalid cpu %d", e.Kind, e.CPU)
				return
			}
			if curr[e.CPU] != e.Thread {
				report(i, "%s of t%d but cpu%d is running t%d", e.Kind, e.Thread, e.CPU, curr[e.CPU])
				return
			}
			curr[e.CPU] = -1
			runningOn[e.Thread] = -1
		}

		switch e.Kind {
		case Spawn:
			if st != lsUnseen {
				report(i, "spawn of %s thread", st)
			}
			states[e.Thread] = lsSpawned
		case Enqueue:
			switch st {
			case lsSpawned, lsWaking, lsOffCPU, lsQueued:
				// lsQueued covers absolute repositioning without a preceding
				// dequeue event (there is none in the taxonomy).
				states[e.Thread] = lsQueued
			case lsVBPending:
				states[e.Thread] = lsVBlocked
			default:
				report(i, "enqueue of %s thread", st)
				states[e.Thread] = lsQueued
			}
		case Dispatch:
			// Invariant 3 (and the VB half of 4): only queued threads run.
			if st != lsQueued {
				report(i, "dispatch of %s thread (no wake/requeue precedes)", st)
			}
			// Invariant 2.
			if e.CPU < 0 || e.CPU > maxCPU {
				report(i, "dispatch on invalid cpu %d", e.CPU)
				break
			}
			if curr[e.CPU] >= 0 {
				report(i, "dispatch of t%d on cpu%d which is already running t%d", e.Thread, e.CPU, curr[e.CPU])
			}
			if on := runningOn[e.Thread]; on >= 0 && on != e.CPU {
				report(i, "t%d dispatched on cpu%d while still current on cpu%d", e.Thread, e.CPU, on)
			}
			curr[e.CPU] = e.Thread
			runningOn[e.Thread] = e.CPU
			states[e.Thread] = lsRunning
		case Preempt, SliceEnd, Yield, BWD, PLE:
			if st != lsRunning {
				report(i, "%s of %s thread", e.Kind, st)
			}
			offCPU()
			states[e.Thread] = lsOffCPU
		case Block, Sleep:
			if st != lsRunning {
				report(i, "%s of %s thread", e.Kind, st)
			}
			offCPU()
			states[e.Thread] = lsSleeping
		case VBlock:
			if st != lsRunning {
				report(i, "vblock of %s thread", st)
			}
			offCPU()
			states[e.Thread] = lsVBPending
		case Wake:
			if st != lsSleeping {
				report(i, "wake of %s thread", st)
			}
			states[e.Thread] = lsWaking
		case VWake:
			// Invariant 4: the flag clear must find the flag set.
			if st != lsVBlocked {
				report(i, "vwake of %s thread (unbalanced VB bracket)", st)
			}
			states[e.Thread] = lsWaking
		case Migrate:
			switch st {
			case lsQueued, lsWaking, lsOffCPU:
				// Stays in the same phase; the destination enqueue follows.
			default:
				report(i, "migrate of %s thread", st)
			}
		case Exit:
			if st != lsRunning {
				report(i, "exit of %s thread", st)
			}
			offCPU()
			states[e.Thread] = lsExited
		case ReqStart, ReqEnd, SpinSeg, MigPenalty:
			// Annotations on the running thread: they never change lifecycle
			// state, but must be emitted by the CPU's current thread.
			if st != lsRunning {
				report(i, "%s of %s thread", e.Kind, st)
			}
			if e.CPU < 0 || e.CPU > maxCPU {
				report(i, "%s on invalid cpu %d", e.Kind, e.CPU)
			} else if curr[e.CPU] != e.Thread {
				report(i, "%s of t%d but cpu%d is running t%d", e.Kind, e.Thread, e.CPU, curr[e.CPU])
			}
		default:
			report(i, "unknown event kind %q", e.Kind)
		}
	}
	return out
}

// Check validates the ring's recorded stream: the lifecycle invariants
// above plus the blame-attribution exactness invariant (CheckBlame). A
// wrapped ring cannot be validated (the stream starts mid-lifecycle); it
// reports one violation saying so rather than a cascade of spurious ones.
func (r *Ring) Check() []Violation {
	if r.Dropped() > 0 {
		return []Violation{{Index: -1, Msg: fmt.Sprintf(
			"ring wrapped (%d events dropped): grow the capacity to validate invariants", r.Dropped())}}
	}
	return CheckStream(r.Events())
}

// CheckStream runs the full oracle on a complete stream: the lifecycle
// invariants (CheckInvariants) plus the blame exactness invariant
// (CheckBlame). It is Ring.Check for a snapshot already taken.
func CheckStream(events []Event) []Violation {
	return append(CheckInvariants(events), CheckBlame(events)...)
}
