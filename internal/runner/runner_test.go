package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapMergesInSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 8} {
		p := New(workers)
		jobs := make([]Job, 64)
		for i := range jobs {
			i := i
			jobs[i] = Job{
				Label: fmt.Sprintf("j%d", i),
				Fn:    func(context.Context) (any, error) { return i * i, nil },
			}
		}
		rs := p.Map(context.Background(), jobs)
		if len(rs) != len(jobs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(rs), len(jobs))
		}
		for i, r := range rs {
			if r.Index != i || r.Label != fmt.Sprintf("j%d", i) {
				t.Fatalf("workers=%d: result %d mislabeled: %+v", workers, i, r)
			}
			if r.Err != nil || r.Value.(int) != i*i {
				t.Fatalf("workers=%d: result %d = %v, %v", workers, i, r.Value, r.Err)
			}
		}
		p.Close()
	}
}

func TestPanicIsIsolatedToItsJob(t *testing.T) {
	// Width 1 has no workers: every job, the panicking one included, runs
	// on Map's calling goroutine, which must survive the panic too.
	for _, workers := range []int{1, 4} {
		p := New(workers)
		jobs := []Job{
			{Label: "ok1", Fn: func(context.Context) (any, error) { return 1, nil }},
			{Label: "boom", Fn: func(context.Context) (any, error) { panic("kaboom") }},
			{Label: "ok2", Fn: func(context.Context) (any, error) { return 2, nil }},
		}
		rs := p.Map(context.Background(), jobs)
		if rs[0].Err != nil || rs[2].Err != nil {
			t.Fatalf("workers=%d: healthy jobs failed: %v / %v", workers, rs[0].Err, rs[2].Err)
		}
		if rs[1].Err == nil || !IsPanic(rs[1].Err) {
			t.Fatalf("workers=%d: panicking job Err = %v, want a *PanicError", workers, rs[1].Err)
		}
		var pe *PanicError
		if !errors.As(rs[1].Err, &pe) || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic not captured: %+v", workers, pe)
		}
		if !strings.Contains(rs[1].Err.Error(), "kaboom") {
			t.Fatalf("workers=%d: panic error message %q", workers, rs[1].Err.Error())
		}
		// The pool must remain usable after a panic.
		again := p.Map(context.Background(), []Job{
			{Label: "after", Fn: func(context.Context) (any, error) { return "alive", nil }},
		})
		if again[0].Err != nil || again[0].Value != "alive" {
			t.Fatalf("workers=%d: pool dead after panic: %+v", workers, again[0])
		}
		p.Close()
	}
}

func TestCancelledContextFailsUnstartedJobs(t *testing.T) {
	p := New(2)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 8)
	var ran atomic.Int64
	for i := range jobs {
		jobs[i] = Job{Fn: func(context.Context) (any, error) {
			ran.Add(1)
			return nil, nil
		}}
	}
	for _, r := range p.Map(ctx, jobs) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("Err = %v, want context.Canceled", r.Err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d job bodies ran under a cancelled context", n)
	}
}

func TestNestedMapDoesNotDeadlock(t *testing.T) {
	// A 1-wide pool has no background workers at all: the outer Map's
	// caller runs the outer job, which fans out an inner Map on the same
	// pool. Only caller-runs claiming makes this terminate.
	p := New(1)
	defer p.Close()
	outer := p.Map(context.Background(), []Job{
		{Label: "outer", Fn: func(context.Context) (any, error) {
			inner := p.Map(context.Background(), []Job{
				{Fn: func(context.Context) (any, error) { return 10, nil }},
				{Fn: func(context.Context) (any, error) { return 20, nil }},
			})
			return inner[0].Value.(int) + inner[1].Value.(int), nil
		}},
	})
	if outer[0].Err != nil || outer[0].Value.(int) != 30 {
		t.Fatalf("nested result: %+v", outer[0])
	}
}

func TestFutureWaitRunsInline(t *testing.T) {
	// No workers: the future's job can only run when Wait claims it.
	p := New(1)
	defer p.Close()
	f := p.Submit(nil, Job{Label: "lazy", Fn: func(context.Context) (any, error) {
		return 7, nil
	}})
	r := f.Wait()
	if r.Err != nil || r.Value.(int) != 7 || r.Label != "lazy" {
		t.Fatalf("future result: %+v", r)
	}
	if again := f.Wait(); again.Value.(int) != 7 {
		t.Fatalf("second Wait: %+v", again)
	}
}

func TestFuturesFromInsidePooledJob(t *testing.T) {
	p := New(4)
	defer p.Close()
	f := p.Submit(nil, Job{Label: "fanout", Fn: func(context.Context) (any, error) {
		subs := make([]*Future, 16)
		for i := range subs {
			i := i
			subs[i] = p.Submit(nil, Job{Fn: func(context.Context) (any, error) {
				return i, nil
			}})
		}
		sum := 0
		for _, s := range subs {
			r := s.Wait()
			if r.Err != nil {
				return nil, r.Err
			}
			sum += r.Value.(int)
		}
		return sum, nil
	}})
	if r := f.Wait(); r.Err != nil || r.Value.(int) != 120 {
		t.Fatalf("nested futures: %+v", r)
	}
}

func TestStatsCountsCompletedJobs(t *testing.T) {
	p := New(2)
	defer p.Close()
	p.Map(context.Background(), []Job{
		{Fn: func(context.Context) (any, error) { return nil, nil }},
		{Fn: func(context.Context) (any, error) { return nil, nil }},
		{Fn: func(context.Context) (any, error) { return nil, nil }},
	})
	s := p.Stats()
	if s.Done != 3 || s.Running != 0 || s.Queued != 0 {
		t.Fatalf("stats after drain: %+v", s)
	}
}

func TestHeartbeatFormat(t *testing.T) {
	s := Stats{Done: 3, Running: 2, Queued: 5, Slowest: "fig11/ocean", SlowestFor: 90 * time.Second}
	line := heartbeat(s, 20*time.Second)
	for _, want := range []string{"3 done", "2 running", "5 queued", "fig11/ocean", "watchdog"} {
		if !strings.Contains(line, want) {
			t.Errorf("heartbeat %q missing %q", line, want)
		}
	}
	if line := heartbeat(Stats{Done: 1, Running: 1, Slowest: "x", SlowestFor: time.Second}, time.Minute); strings.Contains(line, "watchdog") {
		t.Errorf("premature watchdog in %q", line)
	}
}
