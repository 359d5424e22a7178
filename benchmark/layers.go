package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"
	"time"

	"oversub"
	"oversub/internal/cluster"
	"oversub/internal/hw"
	"oversub/internal/mem"
	"oversub/internal/metrics"
	"oversub/internal/runner"
	"oversub/internal/sim"
	"oversub/internal/stats"
	"oversub/internal/trace"
)

// The layers pass times each layer's exported calls in isolation with
// testing.Benchmark. Every benchmark builds its own engine or system with
// a fixed seed, so the simulated work per operation never varies; only
// host time does.

func nopCall(any, uint64, uint64) {}

// layerBench is one microbenchmark: f runs b.N operations; per divides the
// time per operation (e.g. per waiter instead of per round); allocName,
// when set, also reports allocs/op under that name.
type layerBench struct {
	name      string
	unit      string // "ns" or "us"
	per       float64
	allocName string
	f         func(b *testing.B)
}

// standingEngine returns an engine whose heap holds n pending events, so
// queue operations run at working depth.
func standingEngine(n int) *sim.Engine {
	e := sim.NewEngine(1)
	for i := 0; i < n; i++ {
		e.AfterCall(sim.Duration(1+i%997)*sim.Microsecond, nopCall, nil, 0, 0)
	}
	return e
}

func mustRun(b *testing.B, sys *oversub.System) {
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

func layerBenches(fixture []trace.Event) []layerBench {
	return []layerBench{
		{name: "sim.proc_switch_ns", unit: "ns", allocName: "sim.proc_switch_allocs", f: func(b *testing.B) {
			// One Switch/Park round trip of a simulated-thread coroutine.
			e := sim.NewEngine(1)
			n := b.N
			p := e.NewProc(func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Park()
				}
			})
			p.Switch()
			b.ResetTimer()
			for i := 0; i < n; i++ {
				p.Switch()
			}
		}},
		{name: "sim.proc_spawn_ns", unit: "ns", f: func(b *testing.B) {
			// Create a coroutine, run it to completion.
			e := sim.NewEngine(1)
			for i := 0; i < b.N; i++ {
				e.NewProc(func(*sim.Proc) {}).Switch()
			}
		}},
		{name: "sim.event_push_pop_ns", unit: "ns", allocName: "sim.event_push_pop_allocs", f: func(b *testing.B) {
			// Fire one event, schedule one, 1024 pending.
			e := standingEngine(1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
				e.AfterCall(sim.Duration(1+i%997)*sim.Microsecond, nopCall, nil, 0, 0)
			}
		}},
		{name: "sim.event_cancel_ns", unit: "ns", f: func(b *testing.B) {
			// Schedule and cancel one event, 1024 pending.
			e := standingEngine(1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.AfterCall(sim.Duration(1+i%997)*sim.Microsecond, nopCall, nil, 0, 0).Cancel()
			}
		}},
		{name: "sim.timer_rearm_ns", unit: "ns", f: func(b *testing.B) {
			// Re-key an armed timer inside a 1024-event heap.
			e := standingEngine(1024)
			tm := e.Timer(func() {})
			tm.Rearm(500 * sim.Microsecond)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Rearm(sim.Duration(1+i%997) * sim.Microsecond)
			}
		}},
		{name: "sched.wake_dispatch_ns", unit: "ns", allocName: "sched.wake_dispatch_allocs", f: func(b *testing.B) {
			// Sleep, timer wake, dispatch, run: one full cycle.
			sys := oversub.NewSystem(oversub.SystemConfig{Cores: 2, Seed: 777})
			n := b.N
			sys.Spawn("sleeper", func(t *oversub.Thread) {
				for i := 0; i < n; i++ {
					t.Sleep(10 * oversub.Microsecond)
					t.Run(oversub.Microsecond)
				}
			})
			b.ResetTimer()
			mustRun(b, sys)
		}},
		{name: "futex.wait_wake_ns", unit: "ns", per: 2, f: func(b *testing.B) {
			// Two threads on one core hand a turn back and forth through a
			// futex word: per handoff, one Wait ended by one Wake.
			sys := oversub.NewSystem(oversub.SystemConfig{Cores: 1, Seed: 3})
			f := sys.Futexes().NewFutex(0)
			n := b.N
			for me := uint64(0); me < 2; me++ {
				sys.Spawn("pingpong", func(t *oversub.Thread) {
					for i := 0; i < n; i++ {
						for v := f.Word.Load(); v != me; v = f.Word.Load() {
							f.Wait(t, v)
						}
						f.Word.Store(1 - me)
						f.Wake(t, 1)
					}
				})
			}
			b.ResetTimer()
			mustRun(b, sys)
		}},
		{name: "futex.wait_wake_vb_ns", unit: "ns", per: 32, f: func(b *testing.B) {
			// VB engages only for group wakeups with at least a core's
			// worth of waiters: per waiter of a 32-waiter broadcast.
			broadcastRounds(b, true)
		}},
		{name: "futex.wake_all32_ns", unit: "ns", f: func(b *testing.B) {
			// Vanilla: one broadcast round of 32 waiters.
			broadcastRounds(b, false)
		}},
		{name: "locks.mutex_handoff_ns", unit: "ns", f: func(b *testing.B) {
			// Four threads on two cores contend one mutex: per critical
			// section.
			sys := oversub.NewSystem(oversub.SystemConfig{Cores: 2, Seed: 5})
			m := sys.NewMutex()
			for w := 0; w < 4; w++ {
				ops := b.N / 4
				if w == 0 {
					ops += b.N % 4
				}
				sys.Spawn("locker", func(t *oversub.Thread) {
					for i := 0; i < ops; i++ {
						m.Lock(t)
						t.Run(oversub.Microsecond)
						m.Unlock(t)
						t.Run(oversub.Microsecond)
					}
				})
			}
			b.ResetTimer()
			mustRun(b, sys)
		}},
		{name: "locks.barrier32_ns", unit: "ns", f: func(b *testing.B) {
			// 32 threads on 8 cores, vanilla: per barrier round.
			sys := oversub.NewSystem(oversub.SystemConfig{Cores: 8, Seed: 6})
			bar := sys.NewBarrier(32)
			n := b.N
			for w := 0; w < 32; w++ {
				sys.Spawn("party", func(t *oversub.Thread) {
					for i := 0; i < n; i++ {
						bar.Await(t)
					}
				})
			}
			b.ResetTimer()
			mustRun(b, sys)
		}},
		{name: "epoll.post_wait_ns", unit: "ns", f: func(b *testing.B) { postWait(b, false) }},
		{name: "epoll.post_wait_vb_ns", unit: "ns", f: func(b *testing.B) { postWait(b, true) }},
		{name: "bwd.window_ns", unit: "ns", f: func(b *testing.B) {
			// One compute thread under BWD: per 100 us window (timer,
			// window sync into the hw counters, LBR check).
			sys := oversub.NewSystem(oversub.SystemConfig{Cores: 1, Detect: oversub.DetectBWD, Seed: 8})
			span := oversub.Duration(b.N) * 100 * oversub.Microsecond
			sys.Spawn("compute", func(t *oversub.Thread) { t.Run(span) })
			b.ResetTimer()
			mustRun(b, sys)
		}},
		{name: "hw.account_compute_ns", unit: "ns", f: func(b *testing.B) {
			c := hw.NewCores(1)[0]
			rng := sim.NewRand(1)
			p := hw.PaperMeanProfile()
			for i := 0; i < b.N; i++ {
				c.AccountCompute(100*sim.Microsecond, p, rng)
			}
		}},
		{name: "hw.account_spin_ns", unit: "ns", f: func(b *testing.B) {
			c := hw.NewCores(1)[0]
			sig := hw.NewSpinSig(0x1000, 4, false)
			for i := 0; i < b.N; i++ {
				c.AccountSpin(100*sim.Microsecond, sig)
			}
		}},
		{name: "hw.lbr_scan_ns", unit: "ns", f: func(b *testing.B) {
			// Fill the LBR with a loop branch and scan it, as a BWD window
			// does.
			var l hw.LBR
			br := hw.BranchRecord{From: 0x2000, To: 0x1000}
			spins := 0
			for i := 0; i < b.N; i++ {
				l.RecordRepeated(br, hw.LBREntries)
				if l.AllIdenticalBackward() {
					spins++
				}
			}
			if spins != b.N {
				b.Fatal("LBR scan missed the loop branch")
			}
		}},
		{name: "mem.switch_cost_ns", unit: "ns", f: func(b *testing.B) {
			m := mem.NewModel(hw.PaperCaches())
			f := mem.Footprint{Pattern: mem.RndRead, Bytes: 128 << 10}
			var total sim.Duration
			for i := 0; i < b.N; i++ {
				total += m.PerSwitchCost(f)
			}
			if total < 0 {
				b.Fatal("negative switch cost")
			}
		}},
		{name: "trace.emit_ns", unit: "ns", f: func(b *testing.B) {
			r := trace.NewRing(1 << 16)
			for i := 0; i < b.N; i++ {
				r.Trace(sim.Time(i), i&7, i&31, "dispatch", int64(i))
			}
		}},
		{name: "trace.oracle_ns_per_event", unit: "ns", per: float64(len(fixture)), f: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if vs := trace.CheckInvariants(fixture); len(vs) > 0 {
					b.Fatal(vs[0].String())
				}
			}
		}},
		{name: "trace.blame_ns_per_event", unit: "ns", per: float64(len(fixture)), f: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				trace.ComputeBlame(fixture)
			}
		}},
		{name: "metrics.sample_ns", unit: "ns", f: func(b *testing.B) {
			k := busyKernel()
			s := metrics.NewSampler(metrics.Config{})
			for i := 0; i < b.N; i++ {
				s.Sample(k, sim.Time(i+1)*sim.Time(100*sim.Microsecond))
			}
		}},
		{name: "metrics.export_us", unit: "us", f: func(b *testing.B) {
			// Export a full 4096-window series as JSON.
			k := busyKernel()
			s := metrics.NewSampler(metrics.Config{})
			for i := 0; i < 4096; i++ {
				s.Sample(k, sim.Time(i+1)*sim.Time(100*sim.Microsecond))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.WriteJSON(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{name: "stats.digest_add_ns", unit: "ns", f: func(b *testing.B) {
			var d stats.Digest
			for i := 0; i < b.N; i++ {
				d.Add(sim.Duration(1000 + (i*7919)%100000))
			}
		}},
		{name: "stats.latency_add_ns", unit: "ns", f: func(b *testing.B) {
			// Amortized over fresh 4096-sample series, growth included.
			var l *stats.Latency
			for i := 0; i < b.N; i++ {
				if i%4096 == 0 {
					l = &stats.Latency{}
				}
				l.Add(sim.Duration(1000 + (i*7919)%100000))
			}
		}},
		{name: "cluster.arrival_next_ns", unit: "ns", f: func(b *testing.B) {
			p, err := cluster.NewProcess("poisson", 50000)
			if err != nil {
				b.Fatal(err)
			}
			rng := sim.NewRand(1)
			var now sim.Time
			for i := 0; i < b.N; i++ {
				now = now.Add(p.Next(now, rng))
			}
		}},
		{name: "cluster.dispatch_ns", unit: "ns", f: func(b *testing.B) {
			// Pick, send, complete on a 4-machine jsq dispatcher.
			d, err := cluster.NewDispatcher("jsq", 4)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				m := d.Pick()
				d.Sent(m)
				d.Done(m, 50*sim.Microsecond)
			}
		}},
		{name: "runner.job_overhead_us", unit: "us", f: func(b *testing.B) {
			// Per empty job through Map on a pool of nproc executors.
			pool := runner.New(runtime.NumCPU())
			defer pool.Close()
			jobs := make([]runner.Job, b.N)
			for i := range jobs {
				jobs[i] = runner.Job{Label: "nop", Fn: func(context.Context) (any, error) { return nil, nil }}
			}
			b.ResetTimer()
			pool.Map(context.Background(), jobs)
		}},
	}
}

// broadcastRounds: 32 threads on 8 cores wait on one futex word; a waker
// polls until all are queued, bumps the word and wakes them all.
func broadcastRounds(b *testing.B, vb bool) {
	const waiters = 32
	sys := oversub.NewSystem(oversub.SystemConfig{Cores: 8, Features: oversub.Features{VB: vb}, Seed: 4})
	f := sys.Futexes().NewFutex(0)
	n := uint64(b.N)
	for w := 0; w < waiters; w++ {
		sys.Spawn("waiter", func(t *oversub.Thread) {
			for r := uint64(1); r <= n; r++ {
				for v := f.Word.Load(); v < r; v = f.Word.Load() {
					f.Wait(t, v)
				}
			}
		})
	}
	sys.Spawn("waker", func(t *oversub.Thread) {
		for r := uint64(1); r <= n; r++ {
			for f.Waiters() < waiters {
				t.Run(500 * oversub.Nanosecond)
			}
			f.Word.Store(r)
			f.WakeAll(t)
		}
	})
	b.ResetTimer()
	mustRun(b, sys)
}

// postWait: one thread on one core blocks in epoll_wait; an interrupt
// posts an event every 5 us. Per post→wait cycle.
func postWait(b *testing.B, vb bool) {
	sys := oversub.NewSystem(oversub.SystemConfig{Cores: 1, Features: oversub.Features{VB: vb}, Seed: 7})
	p := sys.NewPoll()
	n := b.N
	sys.Spawn("loop", func(t *oversub.Thread) {
		for i := 0; i < n; i++ {
			p.Wait(t)
		}
	})
	eng := sys.Engine()
	sent := 0
	var post func()
	post = func() {
		p.Post(sent)
		if sent++; sent < n {
			eng.After(5*oversub.Microsecond, post)
		}
	}
	eng.After(5*oversub.Microsecond, post)
	b.ResetTimer()
	mustRun(b, sys)
}

// busyKernel is a 4-core kernel with 16 runnable threads, the state a
// sampler snapshots.
func busyKernel() *oversub.Kernel {
	sys := oversub.NewSystem(oversub.SystemConfig{Cores: 4, Seed: 9})
	for i := 0; i < 16; i++ {
		sys.Spawn("worker", func(t *oversub.Thread) { t.Run(oversub.Millisecond) })
	}
	return sys.Kernel()
}

// preemptNS: two CPU-bound threads share one core, so every slice expiry
// is an involuntary switch. Host ns per preemption.
func preemptNS(spans int) float64 {
	sys := oversub.NewSystem(oversub.SystemConfig{Cores: 1, Seed: 2})
	work := oversub.Duration(spans) * oversub.Millisecond
	for i := 0; i < 2; i++ {
		sys.Spawn("hog", func(t *oversub.Thread) { t.Run(work) })
	}
	start := time.Now() //simlint:allow walltime -- host cost per preemption, a per-layer metric
	if err := sys.Run(); err != nil {
		panic(err)
	}
	ns := float64(time.Since(start).Nanoseconds()) //simlint:allow walltime -- host cost per preemption, a per-layer metric
	if n := sys.Metrics().InvolCS; n > 0 {
		return ns / float64(n)
	}
	return 0
}

// resizeUS: 16 compute threads on an 8-core machine whose cpuset flips
// between 8 and 4 cores every 50 us. Host us spent inside each resize
// (evacuation, migration, kicks).
func resizeUS(resizes int) float64 {
	sys := oversub.NewSystem(oversub.SystemConfig{Cores: 8, MaxCores: 8, Seed: 10})
	done := false
	for i := 0; i < 16; i++ {
		sys.Spawn("worker", func(t *oversub.Thread) {
			for !done {
				t.Run(20 * oversub.Microsecond)
			}
		})
	}
	eng := sys.Engine()
	var inside time.Duration
	n := 0
	var flip func()
	flip = func() {
		cores := 4
		if n%2 == 1 {
			cores = 8
		}
		start := time.Now() //simlint:allow walltime -- host cost per cpuset resize, a per-layer metric
		sys.SetCores(cores)
		inside += time.Since(start) //simlint:allow walltime -- host cost per cpuset resize, a per-layer metric
		if n++; n < resizes {
			eng.After(50*oversub.Microsecond, flip)
		} else {
			done = true
		}
	}
	eng.After(50*oversub.Microsecond, flip)
	if err := sys.Run(); err != nil {
		panic(err)
	}
	return float64(inside.Nanoseconds()) / 1000 / float64(resizes)
}

// traceFixture records one traced 1-machine fleet for the oracle and
// blame benchmarks.
func traceFixture(quick bool) ([]trace.Event, error) {
	cfg := cluster.FleetConfig{Machines: 1, QPS: 40000, Duration: 20 * sim.Millisecond, Seed: 1}
	if quick {
		cfg.Duration = 2 * sim.Millisecond
	}
	cfg.Machine.Feat.VB = true
	rings := cluster.AttachTracers(&cfg, 1<<18)
	if _, err := cluster.Run(cfg); err != nil {
		return nil, err
	}
	m := trace.CollectMachines(rings)[0]
	if m.Dropped > 0 {
		return nil, fmt.Errorf("fixture ring wrapped")
	}
	return m.Events, nil
}

// hostSeconds times f once.
func hostSeconds(f func() error) (float64, error) {
	start := time.Now() //simlint:allow walltime -- host time of a speed-up measurement, a per-layer metric
	err := f()
	return time.Since(start).Seconds(), err //simlint:allow walltime -- host time of a speed-up measurement, a per-layer metric
}

func medianOf3(f func() error) (float64, error) {
	var ts []float64
	for i := 0; i < 3; i++ {
		t, err := hostSeconds(f)
		if err != nil {
			return 0, err
		}
		ts = append(ts, t)
	}
	sort.Float64s(ts)
	return ts[1], nil
}

// shardSpeedup: one 4-machine rr fleet, serial versus split across
// GOMAXPROCS shard engines (byte-identical results by contract).
func shardSpeedup(quick bool) (float64, error) {
	cfg := cluster.FleetConfig{Machines: 4, Policy: "rr", QPS: 50000, Duration: 100 * sim.Millisecond, Seed: 1}
	if quick {
		cfg.Duration = 5 * sim.Millisecond
	}
	run := func(shards int) func() error {
		return func() error {
			c := cfg
			c.Shards = shards
			_, err := cluster.Run(c)
			return err
		}
	}
	serial, err := medianOf3(run(0))
	if err != nil {
		return 0, err
	}
	sharded, err := medianOf3(run(runtime.GOMAXPROCS(0)))
	if err != nil {
		return 0, err
	}
	return serial / sharded, nil
}

// runnerSpeedup: one cell of every blocking configuration, serially and
// on a pool of nproc executors.
func runnerSpeedup(quick bool) (float64, error) {
	var cells []cell
	for _, c := range findWorkload("blocking").cells(1, quick) {
		if len(cells) == c.config {
			cells = append(cells, c)
		}
	}
	jobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		jobs[i] = runner.Job{Label: c.id, Fn: func(context.Context) (any, error) {
			_, err := runCell(c, nil)
			return nil, err
		}}
	}
	serial, err := hostSeconds(func() error {
		for _, c := range cells {
			if _, err := runCell(c, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	pool := runner.New(runtime.NumCPU())
	defer pool.Close()
	parallel, err := hostSeconds(func() error {
		for _, r := range pool.Map(context.Background(), jobs) {
			if r.Err != nil {
				return r.Err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return serial / parallel, nil
}

// runLayers runs the layers pass and returns every layer metric.
func runLayers(quick bool) ([]metricValue, error) {
	testing.Init()
	benchtime := "50ms"
	if quick {
		benchtime = "1ms"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	fixture, err := traceFixture(quick)
	if err != nil {
		return nil, err
	}
	var out []metricValue
	for _, lb := range layerBenches(fixture) {
		r := testing.Benchmark(lb.f)
		if r.N == 0 {
			return nil, fmt.Errorf("layer benchmark %s failed", lb.name)
		}
		per := lb.per
		if per == 0 {
			per = 1
		}
		v := float64(r.T.Nanoseconds()) / float64(r.N) / per
		if lb.unit == "us" {
			v /= 1000
		}
		out = append(out, metricValue{Name: lb.name, Value: v, Unit: lb.unit})
		if lb.allocName != "" {
			out = append(out, metricValue{Name: lb.allocName, Value: float64(r.MemAllocs) / float64(r.N), Unit: "allocs/op"})
		}
	}
	spans, resizes := 2000, 2000
	if quick {
		spans, resizes = 50, 50
	}
	out = append(out,
		metricValue{Name: "sched.preempt_ns", Value: preemptNS(spans), Unit: "ns"},
		metricValue{Name: "sched.resize_us", Value: resizeUS(resizes), Unit: "us"})
	shard, err := shardSpeedup(quick)
	if err != nil {
		return nil, err
	}
	speedup, err := runnerSpeedup(quick)
	if err != nil {
		return nil, err
	}
	out = append(out,
		metricValue{Name: "cluster.shard_speedup", Value: shard, Unit: "x"},
		metricValue{Name: "runner.speedup", Value: speedup, Unit: "x"})
	return out, nil
}
