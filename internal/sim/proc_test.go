package sim

import (
	"strings"
	"testing"
)

func TestProcRunsToFirstPark(t *testing.T) {
	e := NewEngine(1)
	stage := 0
	p := e.NewProc(func(p *Proc) {
		stage = 1
		p.Park()
		stage = 2
		p.Park()
		stage = 3
	})
	if stage != 0 {
		t.Fatal("proc ran before Switch")
	}
	p.Switch()
	if stage != 1 {
		t.Fatalf("stage = %d after first switch, want 1", stage)
	}
	p.Switch()
	if stage != 2 {
		t.Fatalf("stage = %d after second switch, want 2", stage)
	}
	if p.Finished() {
		t.Fatal("proc finished early")
	}
	p.Switch()
	if stage != 3 || !p.Finished() {
		t.Fatalf("stage = %d finished = %v, want 3/true", stage, p.Finished())
	}
}

func TestProcInterleavesWithEvents(t *testing.T) {
	e := NewEngine(1)
	var log []string
	p := e.NewProc(func(p *Proc) {
		log = append(log, "proc-a")
		p.Park()
		log = append(log, "proc-b")
	})
	e.At(10, func() { log = append(log, "ev10"); p.Switch() })
	e.At(20, func() { log = append(log, "ev20"); p.Switch() })
	e.Run(0)
	got := strings.Join(log, ",")
	want := "ev10,proc-a,ev20,proc-b"
	if got != want {
		t.Errorf("log = %q, want %q", got, want)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	p := e.NewProc(func(p *Proc) {
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate to Switch caller")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	p.Switch()
}

func TestSwitchOnFinishedProcPanics(t *testing.T) {
	e := NewEngine(1)
	p := e.NewProc(func(p *Proc) {})
	p.Switch()
	defer func() {
		if recover() == nil {
			t.Error("Switch on finished proc did not panic")
		}
	}()
	p.Switch()
}

func TestLiveProcs(t *testing.T) {
	e := NewEngine(1)
	p1 := e.NewProc(func(p *Proc) { p.Park() })
	p2 := e.NewProc(func(p *Proc) {})
	if got := e.LiveProcs(); got != 2 {
		t.Fatalf("LiveProcs = %d, want 2", got)
	}
	p2.Switch()
	if got := e.LiveProcs(); got != 1 {
		t.Fatalf("LiveProcs = %d after one finished, want 1", got)
	}
	p1.Switch() // runs to Park
	_ = p1
	if got := e.LiveProcs(); got != 1 {
		t.Fatalf("LiveProcs = %d, want 1 (parked procs are live)", got)
	}
}

func TestManyProcsRoundRobin(t *testing.T) {
	e := NewEngine(1)
	const n = 100
	counts := make([]int, n)
	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = e.NewProc(func(p *Proc) {
			for j := 0; j < 10; j++ {
				counts[i]++
				p.Park()
			}
		})
	}
	for round := 0; round < 10; round++ {
		for _, p := range procs {
			p.Switch()
		}
	}
	for i, c := range counts {
		if c != 10 {
			t.Fatalf("proc %d ran %d rounds, want 10", i, c)
		}
	}
	// Final switch lets every body return.
	for _, p := range procs {
		if !p.Finished() {
			p.Switch()
		}
	}
	if e.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after completion, want 0", e.LiveProcs())
	}
}

// TestCloseStopsEveryLiveProc: Close retires parked and never-started
// procs alike, runs no body past its Park, and is idempotent.
func TestCloseStopsEveryLiveProc(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	var parked []*Proc
	for i := 0; i < 3; i++ {
		p := e.NewProc(func(p *Proc) {
			ran++
			p.Park()
			ran += 100 // past Park: Close must never get here
			p.Park()
		})
		p.Switch()
		parked = append(parked, p)
	}
	e.NewProc(func(p *Proc) { ran += 100 }) // never started
	e.NewProc(func(p *Proc) {}).Switch()    // finished
	if got := e.LiveProcs(); got != 4 {
		t.Fatalf("LiveProcs = %d before Close, want 4", got)
	}
	e.Close()
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("LiveProcs = %d after Close, want 0", got)
	}
	if ran != 3 {
		t.Fatalf("bodies ran %d, want 3: Close resumed a body past Park or started one", ran)
	}
	for i, p := range parked {
		if !p.Finished() {
			t.Fatalf("stopped proc %d does not report Finished", i)
		}
	}
	e.Close() // a second Close is a no-op
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("LiveProcs = %d after second Close, want 0", got)
	}
}
