package sim

// Differential heap oracle: the engine's event queue (4-ary heap +
// fixed-delay lanes, the zero-delay lane included + pooled nodes +
// rearmable timers) is checked against a deliberately naive model — an unordered
// slice scanned for the minimum (at, seq) on every pop. The fuzzer drives
// both through the same op sequence (schedule, cancel, rearm, stop, bounded
// run, single step, chained zero-delay callbacks, lane schedules, lane-bound
// timer rearms and stops) and requires identical firing order, identical
// clocks, and an identical live-event count after every op. The model knows
// nothing of lanes: a lane event is an event at now plus the lane's delay.
// One op schedules a callback that fires an event in place with SkipTo; the
// model accepts it only when the new (t, seq) would be its next pop inside
// the running horizon, and logs the in-place firing. Any
// divergence — a tombstone popped, a sift bug, a generation check missed,
// a lane front not merged, a live-counter drift — fails immediately with
// the op index.

import "testing"

const (
	oracleStep   = Microsecond
	oracleTimers = 2
	// oracleLanes lanes, of delays 2 and 3 steps, each with one bound timer
	// (model timer oracleTimers+i).
	oracleLanes = 2
	// timerID namespaces timer firings away from plain-event ids in the log.
	oracleTimerID = 1 << 32
	// skipID namespaces in-place firings the same way.
	oracleSkipID = 1 << 33
)

type oracleFire struct {
	id uint64
	at Time
}

type oracleEvent struct {
	at    Time
	seq   uint64
	id    uint64
	chain uint8
	timer int // -1 for plain events, else the timer index
	// skip >= 0 makes the callback SkipTo now+skip once it fires.
	skip Duration
}

// oracle is the naive model: an unordered slice, linear-scan min, and the
// exact (at, seq) and run-horizon semantics the engine documents.
type oracle struct {
	now Time
	seq uint64
	evs []oracleEvent
	log []oracleFire
	// running and until mirror the Run call in progress.
	running bool
	until   Time
}

func (o *oracle) schedule(d Duration, id uint64, chain uint8) uint64 {
	return o.scheduleSkip(d, id, chain, -1)
}

func (o *oracle) scheduleSkip(d Duration, id uint64, chain uint8, skip Duration) uint64 {
	o.seq++
	o.evs = append(o.evs, oracleEvent{at: o.now.Add(d), seq: o.seq, id: id, chain: chain, timer: -1, skip: skip})
	return o.seq
}

func (o *oracle) cancel(seq uint64) {
	for i := range o.evs {
		if o.evs[i].seq == seq {
			o.evs[i] = o.evs[len(o.evs)-1]
			o.evs = o.evs[:len(o.evs)-1]
			return
		}
	}
}

func (o *oracle) rearm(timer int, d Duration) {
	o.seq++
	for i := range o.evs {
		if o.evs[i].timer == timer {
			o.evs[i].at, o.evs[i].seq = o.now.Add(d), o.seq
			return
		}
	}
	o.evs = append(o.evs, oracleEvent{at: o.now.Add(d), seq: o.seq,
		id: oracleTimerID + uint64(timer), timer: timer, skip: -1})
}

func (o *oracle) stopTimer(timer int) {
	for i := range o.evs {
		if o.evs[i].timer == timer {
			o.evs[i] = o.evs[len(o.evs)-1]
			o.evs = o.evs[:len(o.evs)-1]
			return
		}
	}
}

func (o *oracle) min() int {
	best := -1
	for i := range o.evs {
		if best < 0 || o.evs[i].at < o.evs[best].at ||
			(o.evs[i].at == o.evs[best].at && o.evs[i].seq < o.evs[best].seq) {
			best = i
		}
	}
	return best
}

func (o *oracle) fire(i int) {
	ev := o.evs[i]
	o.evs[i] = o.evs[len(o.evs)-1]
	o.evs = o.evs[:len(o.evs)-1]
	o.now = ev.at
	o.log = append(o.log, oracleFire{id: ev.id, at: ev.at})
	if ev.chain > 0 {
		o.schedule(chainDelay(ev.id), ev.id*7+1, ev.chain-1)
	}
	if ev.skip >= 0 {
		o.skipTo(ev.id, o.now.Add(ev.skip))
	}
}

// skipTo fires in place only inside Run, within its horizon, and when an
// event scheduled now for t (the next seq) would be the next pop: every
// live event sorts before it if its time is at or before t.
func (o *oracle) skipTo(id uint64, t Time) {
	if !o.running || (o.until > 0 && t > o.until) {
		return
	}
	for i := range o.evs {
		if o.evs[i].at <= t {
			return
		}
	}
	o.seq++
	o.now = t
	o.log = append(o.log, oracleFire{id: oracleSkipID + id, at: t})
}

// run mirrors Engine.Run: until <= 0 means no horizon; reaching the
// horizon advances the clock to it, draining the queue does not.
func (o *oracle) run(until Time) {
	o.running, o.until = true, until
	defer func() { o.running = false }()
	for {
		i := o.min()
		if i < 0 {
			return
		}
		if until > 0 && o.evs[i].at > until {
			o.now = until
			return
		}
		o.fire(i)
	}
}

func (o *oracle) step() {
	if i := o.min(); i >= 0 {
		o.fire(i)
	}
}

// chainDelay is the shared rule both sides use for the child an event with
// chain > 0 schedules when it fires. id%3 == 0 yields a zero delay, which
// lands the child on the engine's zero lane mid-run.
func chainDelay(id uint64) Duration {
	return Duration(id%3) * oracleStep
}

// oracleLaneDelay is lane i's delay.
func oracleLaneDelay(i int) Duration {
	return Duration(2+i) * oracleStep
}

// oracleRig is the engine-side mirror of the oracle's chain rule.
type oracleRig struct {
	eng *Engine
	log []oracleFire
}

func (r *oracleRig) schedule(d Duration, id uint64, chain uint8) Event {
	return r.eng.After(d, func() {
		r.log = append(r.log, oracleFire{id: id, at: r.eng.Now()})
		if chain > 0 {
			r.schedule(chainDelay(id), id*7+1, chain-1)
		}
	})
}

// laneFire is the callback of a lane-queued event: arg is the rig, and the
// event carries its id and chain depth inline.
func laneFire(arg any, id, chain uint64) {
	r := arg.(*oracleRig)
	r.log = append(r.log, oracleFire{id: id, at: r.eng.Now()})
	if chain > 0 {
		r.schedule(chainDelay(id), id*7+1, uint8(chain-1))
	}
}

// scheduleSkip schedules a callback that, once fired, tries to fire an
// event for skip later in place.
func (r *oracleRig) scheduleSkip(d, skip Duration, id uint64) Event {
	return r.eng.After(d, func() {
		r.log = append(r.log, oracleFire{id: id, at: r.eng.Now()})
		if t := r.eng.Now().Add(skip); r.eng.SkipTo(t) {
			r.log = append(r.log, oracleFire{id: oracleSkipID + id, at: t})
		}
	})
}

func FuzzEngineDifferential(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x04, 0x09, 0x00, 0x02, 0x01, 0x00, 0x06, 0x00})
	f.Add([]byte{0x02, 0x03, 0x02, 0x06, 0x03, 0x00, 0x02, 0x0a, 0x04, 0x04, 0x06, 0x00})
	f.Add([]byte{0x07, 0x02, 0x07, 0x05, 0x05, 0x00, 0x05, 0x00, 0x05, 0x00, 0x01, 0x01})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x03, 0x01, 0x00, 0x01, 0x01, 0x04, 0x08,
		0x02, 0x0c, 0x02, 0x0d, 0x04, 0x01, 0x03, 0x01, 0x06, 0x00})
	f.Add([]byte{0x00, 0x08, 0x04, 0x00, 0x07, 0x06, 0x07, 0x03, 0x05, 0x00, 0x01, 0x02,
		0x01, 0x02, 0x02, 0x09, 0x02, 0x04, 0x06, 0x00})
	// In-place firing: accepted when alone; refused on a tie with a pending
	// event, past the horizon, and under Step.
	f.Add([]byte{0x08, 0x08, 0x06, 0x00})
	f.Add([]byte{0x00, 0x03, 0x08, 0x0f, 0x06, 0x00})
	f.Add([]byte{0x08, 0x15, 0x04, 0x01, 0x06, 0x00})
	f.Add([]byte{0x08, 0x08, 0x05, 0x00, 0x06, 0x00})
	// The lane seeds are committed under testdata/fuzz, one file per case:
	// a lane front beats a later heap top; a lane entry at now beats a
	// zero-lane entry queued after it; SkipTo refuses with a lane front at its target;
	// a horizon puts a lane event back; cancels of a lane's front and of a
	// middle entry; a bound timer staggered into the heap, moved onto its
	// lane, rearmed there while armed, stopped, and moved between the zero
	// lane and its own.

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := NewEngine(1)
		rig := &oracleRig{eng: eng}
		model := &oracle{}

		tms := make([]*Timer, oracleTimers+oracleLanes)
		lanes := make([]*Lane, oracleLanes)
		for i := range tms {
			i := i
			fn := func() {
				rig.log = append(rig.log, oracleFire{id: oracleTimerID + uint64(i), at: eng.Now()})
			}
			if i < oracleTimers {
				tms[i] = eng.Timer(fn)
				continue
			}
			lanes[i-oracleTimers] = eng.Lane(oracleLaneDelay(i - oracleTimers))
			tms[i] = lanes[i-oracleTimers].Timer(fn)
		}

		type handle struct {
			ev  Event
			seq uint64
		}
		var handles []handle
		nextID := uint64(1)

		for pc := 0; pc+1 < len(data) && pc < 400; pc += 2 {
			// Ops 0-8 predate the lanes; the committed corpus keeps its op
			// bytes below 9 so each input decodes as it always has.
			op, param := data[pc]%12, data[pc+1]
			switch op {
			case 0: // schedule, delay 0..6 steps, chain depth 0..2
				d := Duration(param%7) * oracleStep
				id := nextID
				nextID++
				ev := rig.schedule(d, id, param%3)
				handles = append(handles, handle{ev: ev, seq: model.schedule(d, id, param%3)})
			case 1: // cancel an arbitrary prior handle (stale handles included)
				if len(handles) > 0 {
					h := handles[int(param)%len(handles)]
					h.ev.Cancel()
					model.cancel(h.seq)
				}
			case 2: // rearm a timer (re-keys in place when already armed)
				i := int(param) % oracleTimers
				d := Duration(param%5) * oracleStep
				tms[i].Rearm(d)
				model.rearm(i, d)
			case 3: // stop a timer
				i := int(param) % oracleTimers
				tms[i].Stop()
				model.stopTimer(i)
			case 4: // run with a horizon (0 steps from a zero clock = no limit)
				until := eng.Now().Add(Duration(param%9) * oracleStep)
				eng.Run(until)
				model.run(until)
			case 5: // single step
				eng.Step()
				model.step()
			case 6: // drain
				eng.Run(0)
				model.run(0)
			case 7: // zero-delay schedule (zero-lane pressure), chain 0..2
				id := nextID
				nextID++
				ev := rig.schedule(0, id, param%3)
				handles = append(handles, handle{ev: ev, seq: model.schedule(0, id, param%3)})
			case 8: // schedule a callback that fires 0..3 steps later in place
				d := Duration(param%7) * oracleStep
				skip := Duration(param/7%4) * oracleStep
				id := nextID
				nextID++
				ev := rig.scheduleSkip(d, skip, id)
				handles = append(handles, handle{ev: ev, seq: model.scheduleSkip(d, id, 0, skip)})
			case 9: // lane schedule on lane param%2, chain 0..2
				i := int(param) % oracleLanes
				chain := param / 2 % 3
				id := nextID
				nextID++
				ev := lanes[i].AfterCall(laneFire, rig, id, uint64(chain))
				handles = append(handles, handle{ev: ev, seq: model.schedule(oracleLaneDelay(i), id, chain)})
			case 10: // rearm a lane-bound timer: by its lane's delay, or by 0..4 steps
				i := int(param) % oracleLanes
				d := oracleLaneDelay(i)
				if param/2%2 == 1 {
					d = Duration(param%5) * oracleStep
				}
				tms[oracleTimers+i].Rearm(d)
				model.rearm(oracleTimers+i, d)
			case 11: // stop a lane-bound timer
				i := int(param) % oracleLanes
				tms[oracleTimers+i].Stop()
				model.stopTimer(oracleTimers + i)
			}
			if eng.Pending() != len(model.evs) {
				t.Fatalf("op %d (code %d): Pending() = %d, model has %d live events",
					pc/2, op, eng.Pending(), len(model.evs))
			}
			if eng.Now() != model.now {
				t.Fatalf("op %d (code %d): clock = %v, model clock = %v",
					pc/2, op, eng.Now(), model.now)
			}
		}

		eng.Run(0)
		model.run(0)
		if eng.Pending() != 0 {
			t.Fatalf("drained engine still reports %d pending events", eng.Pending())
		}
		if len(rig.log) != len(model.log) {
			t.Fatalf("engine fired %d events, model fired %d", len(rig.log), len(model.log))
		}
		for i := range rig.log {
			if rig.log[i] != model.log[i] {
				t.Fatalf("firing %d diverged: engine (id=%d at=%v), model (id=%d at=%v)",
					i, rig.log[i].id, rig.log[i].at, model.log[i].id, model.log[i].at)
			}
		}
	})
}
