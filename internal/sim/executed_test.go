package sim

import "testing"

func TestExecutedCountsFiredEvents(t *testing.T) {
	e := NewEngine(1)
	if e.Executed() != 0 {
		t.Fatalf("fresh engine Executed = %d, want 0", e.Executed())
	}
	for i := 0; i < 3; i++ {
		e.After(Duration(i+1)*Microsecond, func() {})
	}
	cancelled := e.After(10*Microsecond, func() { t.Error("cancelled event fired") })
	cancelled.Cancel()
	e.Run(0)
	if got := e.Executed(); got != 3 {
		t.Errorf("Executed = %d, want 3 (cancelled events never count)", got)
	}
}

func TestExecutedCountsStep(t *testing.T) {
	e := NewEngine(1)
	e.After(Microsecond, func() {})
	e.After(2*Microsecond, func() {})
	if !e.Step() {
		t.Fatal("Step found no event")
	}
	if got := e.Executed(); got != 1 {
		t.Errorf("Executed after one Step = %d, want 1", got)
	}
}

// TestSkipToFiresOnlyTheNextPop pins SkipTo's contract: inside Run it fires
// in place exactly when the event it stands for would be the next pop, and
// otherwise refuses without touching the clock, the sequence or the count.
func TestSkipToFiresOnlyTheNextPop(t *testing.T) {
	e := NewEngine(1)
	if e.SkipTo(Time(Microsecond)) {
		t.Fatal("SkipTo fired outside Run")
	}
	var got []bool
	e.After(Microsecond, func() {
		e.After(3*Microsecond, nopFn) // pending at 4 µs
		got = append(got,
			e.SkipTo(Time(2*Microsecond)), // next pop: fires, clock to 2 µs
			e.SkipTo(Time(4*Microsecond)), // ties the pending event, which has the lower seq
			e.SkipTo(Time(6*Microsecond)), // the pending event comes first
		)
		e.After(0, nopFn) // a live zero-delay event at 2 µs
		got = append(got, e.SkipTo(Time(3*Microsecond)))
	})
	e.After(10*Microsecond, func() {
		got = append(got, e.SkipTo(Time(30*Microsecond))) // past the horizon
		e.Stop()
		got = append(got, e.SkipTo(Time(11*Microsecond))) // after Stop
	})
	e.Run(Time(20 * Microsecond))
	want := []bool{true, false, false, false, false, false}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("SkipTo results = %v, want %v", got, want)
		}
	}
	if e.Executed() != 5 || e.InPlace() != 1 {
		t.Fatalf("Executed = %d, InPlace = %d; want 5 and 1", e.Executed(), e.InPlace())
	}
	if e.Now() != Time(10*Microsecond) {
		t.Fatalf("clock = %v, want 10µs", e.Now())
	}

	// A later schedule sorts after the in-place firing's consumed sequence
	// number, exactly as after its queued twin.
	var order []int
	e.After(Microsecond, func() {
		order = append(order, 1)
		if !e.SkipTo(e.Now()) {
			t.Error("zero-delay SkipTo refused on an empty queue")
		}
		e.After(0, func() { order = append(order, 2) })
	})
	e.Run(0)
	if len(order) != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

// TestPanicThroughRunDisablesSkipTo pins Run's exit: a panic unwinding out
// of Run must not leave in-place firing enabled for a later Step.
func TestPanicThroughRunDisablesSkipTo(t *testing.T) {
	e := NewEngine(1)
	e.After(Microsecond, func() { panic("boom") })
	func() {
		defer func() { _ = recover() }()
		e.Run(0)
	}()
	fired := false
	e.After(Microsecond, func() { fired = e.SkipTo(e.Now().Add(Microsecond)) })
	e.Step()
	if fired || e.InPlace() != 0 {
		t.Fatal("SkipTo fired in place under Step after a panic unwound Run")
	}
}
