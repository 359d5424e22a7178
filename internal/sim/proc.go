package sim

import (
	"fmt"
	"iter"
)

// Proc is a coroutine running inside the simulation.
//
// A Proc's body is an ordinary Go function run as an iter.Pull coroutine:
// the owner (scheduler, client model, ...) calls Switch to run the body
// until it calls Park or returns, and each transfer is a direct coroutine
// switch rather than a trip through the Go scheduler. While the body runs,
// the owner is suspended, so at most one simulated entity executes at a
// time and determinism is preserved. Engine.Close stops the procs still
// parked when a run is abandoned.
type Proc struct {
	eng *Engine
	// next resumes the body, yield (called by Park) suspends it and stop
	// unwinds it; all three are nil until the first Switch creates the
	// coroutine.
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	body     func(*Proc)
	finished bool
	panicked any

	// Data is scratch space for the owner (e.g. the kernel request the
	// body parked on). The sim package never touches it.
	Data any
}

// procStopped is the panic value Park raises when Engine.Close stops a
// parked proc; finish swallows it. Zero-size, so raising it never
// allocates.
type procStopped struct{}

// NewProc registers a coroutine with body. The body does not run until the
// first Switch.
func (e *Engine) NewProc(body func(*Proc)) *Proc {
	p := &Proc{eng: e, body: body}
	e.procs = append(e.procs, p)
	return p
}

// Engine returns the engine the proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Finished reports whether the body has returned.
func (p *Proc) Finished() bool { return p.finished }

// Switch transfers control to the proc until it parks or finishes. It must
// be called from the engine's thread (an event callback or the code driving
// Run). If the body panicked, Switch re-panics on the caller's goroutine.
func (p *Proc) Switch() {
	if p.finished {
		panic("sim: Switch on finished proc")
	}
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.seq)
	}
	p.next()
	if p.panicked != nil {
		panic(fmt.Sprintf("sim: proc body panicked: %v", p.panicked))
	}
}

// Park suspends the body until the next Switch. It must be called from
// within the proc's body.
func (p *Proc) Park() {
	if !p.yield(struct{}{}) {
		panic(procStopped{})
	}
}

// seq is the coroutine function: Park yields through it and the body's
// return ends it.
func (p *Proc) seq(yield func(struct{}) bool) {
	p.yield = yield
	defer p.finish()
	p.body(p)
}

// finish runs deferred in the coroutine when the body returns, panics or is
// stopped: it records a genuine panic for Switch to re-raise and retires the
// proc from the registry.
func (p *Proc) finish() {
	if r := recover(); r != nil {
		if _, stopped := r.(procStopped); !stopped {
			p.panicked = r
		}
	}
	p.finished = true
	p.eng.removeProc(p)
}

// removeProc drops p from the ordered registry, preserving the
// registration order of the survivors.
func (e *Engine) removeProc(p *Proc) {
	for i, q := range e.procs {
		if q == p {
			e.procs = append(e.procs[:i], e.procs[i+1:]...)
			return
		}
	}
}

// Close stops every live proc, in registration order, so nothing the
// engine's bodies reference stays reachable once a run is over. A parked
// body unwinds from its Park without running further; a proc that never
// ran is retired without running at all. Afterwards LiveProcs is 0, and a
// second Close is a no-op. Close must be called from the engine's thread,
// never from inside a proc body.
func (e *Engine) Close() {
	live := e.procs
	e.procs = nil // stopped bodies unwind without spawning procs
	for _, p := range live {
		if p.stop == nil {
			p.finished = true
		} else {
			p.stop()
		}
	}
}

// LiveProcs returns the number of procs that have been created and not yet
// finished. Useful for detecting leaked simulated threads in tests.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// Procs returns the live procs in registration order. The copy keeps
// callers from perturbing the registry; the ordering is part of the
// determinism contract (see Engine.procs).
func (e *Engine) Procs() []*Proc {
	return append([]*Proc(nil), e.procs...)
}
