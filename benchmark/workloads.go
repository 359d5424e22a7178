package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"time"
	"unsafe"

	"oversub"
	"oversub/internal/cluster"
	"oversub/internal/metrics"
	"oversub/internal/sched"
	"oversub/internal/sim"
	"oversub/internal/sweep"
	"oversub/internal/trace"
)

// A workload is a fixed list of cells, each one independent simulation.
// Every distinct configuration runs reps times with seeds drawn from the
// benchmark seed, so the list's size and mix never depend on the seed.
type workload struct {
	name string
	why  string
	// configs returns the distinct configurations and the repetitions of
	// each; quick shrinks both for tests.
	configs func(quick bool) ([]config, int)
}

type config struct {
	id  string
	run func(seed uint64, o *observer) (cellOut, error)
}

type cell struct {
	id     string
	config int // index of the configuration; warm-up runs one cell per config
	seed   uint64
	run    func(seed uint64, o *observer) (cellOut, error)
}

// cellOut is what one cell reports. Only digest is a simulated output;
// the rest are counts and host costs for the per-layer metrics.
type cellOut struct {
	digest string
	events uint64 // engine events executed
	simNS  int64  // simulated span

	futexWaits, futexWakes, epollWaits, epollPosts uint64
	bwd                                            oversub.DetectorStats

	// Observed cells only: events recorded by the cell's own rings, ring
	// memory, host time of the post-run analysis, and (counted pass) host
	// time of the same fleet run bare.
	ringEvents uint64
	ringBytes  int64
	analysisNS int64
	bareNS     int64
}

func (c *cellOut) addKernel(m sched.Metrics) {
	c.futexWaits += m.FutexWaits
	c.futexWakes += m.FutexWakes
	c.epollWaits += m.EpollWaits
	c.epollPosts += m.EpollPosts
}

func (c *cellOut) addBWD(s oversub.DetectorStats) {
	c.bwd.Windows += s.Windows
	c.bwd.Detections += s.Detections
	c.bwd.TruePositive += s.TruePositive
	c.bwd.FalsePositive += s.FalsePositive
}

func workloads() []*workload {
	return []*workload{
		{
			name:    "blocking",
			why:     "futex and epoll sleep/wake thousands of times per cell, vanilla and VB: coroutine handoff and the kernel wake path",
			configs: blockingConfigs,
		},
		{
			name:    "preempt",
			why:     "threads lose the CPU only to slice expiry or detector deschedules: event engine, timers, hw accounting, BWD windows; no futex",
			configs: preemptConfigs,
		},
		{
			name:    "fleet",
			why:     "open-loop service traffic over several kernels in one engine: deepest event heap, cluster dispatch, stats digests",
			configs: fleetConfigs,
		},
		{
			name:    "observed",
			why:     "1-machine fleets traced with 2M-entry rings, sampled, oracle- and blame-checked: the cost of observation",
			configs: observedConfigs,
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// cells expands the workload into its cell list for one benchmark seed.
// A cell's seed depends only on the benchmark seed, its configuration and
// its repetition, never on its position in the list.
func (w *workload) cells(seed uint64, quick bool) []cell {
	cfgs, reps := w.configs(quick)
	out := make([]cell, 0, len(cfgs)*reps)
	for rep := 0; rep < reps; rep++ {
		for ci, c := range cfgs {
			out = append(out, cell{
				id:     fmt.Sprintf("%s#%d", c.id, rep),
				config: ci,
				seed:   cellSeed(seed, c.id, rep),
				run:    c.run,
			})
		}
	}
	return out
}

func cellSeed(seed uint64, id string, rep int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	z := seed*0x9E3779B97F4A7C15 + h.Sum64() + uint64(rep)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) >> 1 // positive as int64, for readable JSON
}

// runCell runs one cell, turning a panic anywhere in the simulation into
// the cell's error.
func runCell(c cell, o *observer) (out cellOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return c.run(c.seed, o)
}

// digest hashes a simulated output. Host-cost fields (engine event counts)
// are zeroed by the callers first, so a change that only makes the
// simulator faster keeps every digest.
func digest(v any, extra ...[]byte) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: digest: %v", err))
	}
	h := sha256.New()
	h.Write(b)
	for _, e := range extra {
		h.Write(e)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func variantLabel(vb bool) string {
	if vb {
		return "vb"
	}
	return "vanilla"
}

// blockingConfigs: Figs 9/10/12 and Table 1. Suite barrier/condvar
// programs at 8 and 32 threads on 8 cores, the Figure 10 primitive stress
// at 32 threads on 1 and 8 cores, and memcached with 4 and 16 workers, each
// under vanilla and VB.
func blockingConfigs(quick bool) ([]config, int) {
	progs := []string{"streamcluster", "cg", "ua", "ocean", "radix", "freqmine", "bodytrack"}
	threads := []int{8, 32}
	prims := []string{"mutex", "cond", "barrier"}
	coreCounts := []int{1, 8}
	workers := []int{4, 16}
	scale, iters, requests, reps := 0.01, 120, 1500, 3
	if quick {
		progs, threads, prims, coreCounts, workers = progs[:1], threads[1:], prims[2:], coreCounts[1:], workers[1:]
		scale, iters, requests, reps = 0.002, 10, 200, 1
	}
	var out []config
	for _, p := range progs {
		for _, n := range threads {
			for _, vb := range []bool{false, true} {
				out = append(out, suiteConfig(fmt.Sprintf("suite/%s/%dT/%s", p, n, variantLabel(vb)), p,
					oversub.BenchConfig{Threads: n, Cores: 8, WorkScale: scale, Feat: oversub.Features{VB: vb}}))
			}
		}
	}
	for _, p := range prims {
		for _, c := range coreCounts {
			for _, vb := range []bool{false, true} {
				out = append(out, stressConfig(p, c, vb, iters))
			}
		}
	}
	for _, w := range workers {
		for _, vb := range []bool{false, true} {
			out = append(out, memcachedConfig(w, vb, requests))
		}
	}
	return out, reps
}

// preemptConfigs: Figs 1/13/14 and Tables 2/3. The custom-spin programs lu
// and volrend at 32 threads on 8 cores with detection off, BWD, and PLE in
// a VM, plus the synchronization-free ep (tight loops: BWD false-positive
// material), canneal and swaptions under BWD as true negatives.
func preemptConfigs(quick bool) ([]config, int) {
	type det struct {
		label  string
		vm     bool
		detect oversub.DetectMode
	}
	dets := []det{
		{"container/off", false, oversub.DetectOff},
		{"container/bwd", false, oversub.DetectBWD},
		{"vm/off", true, oversub.DetectOff},
		{"vm/ple", true, oversub.DetectPLE},
		{"vm/bwd", true, oversub.DetectBWD},
	}
	spinners := []string{"lu", "volrend"}
	negatives := []string{"ep", "canneal", "swaptions"}
	// The negatives run 4x the work: spin-free, they cost few events per
	// simulated millisecond, and the BWD windows they give are the point.
	scale, reps := 0.4, 24
	if quick {
		dets, negatives = dets[1:2], negatives[:1]
		scale, reps = 0.02, 1
	}
	var out []config
	for _, p := range spinners {
		for _, d := range dets {
			out = append(out, suiteConfig(fmt.Sprintf("spin/%s/%s", p, d.label), p, oversub.BenchConfig{
				Threads: 32, Cores: 8, WorkScale: scale, Feat: oversub.Features{VM: d.vm}, Detect: d.detect,
			}))
		}
	}
	for _, p := range negatives {
		out = append(out, suiteConfig(fmt.Sprintf("negative/%s/bwd", p), p, oversub.BenchConfig{
			Threads: 32, Cores: 8, WorkScale: 4 * scale, Detect: oversub.DetectBWD,
		}))
	}
	return out, reps
}

// fleetConfigs: the hpdc21 fleet grid, untraced. Dispatcher x kernel
// variant x machine count at 50k QPS poisson with the standard tenant mix
// and batch threads.
func fleetConfigs(quick bool) ([]config, int) {
	policies := []string{"rr", "jsq", "ewma"}
	variants := sweep.FleetVariants()
	machines := []int{1, 2, 4}
	dur, reps := 80*sim.Millisecond, 3
	if quick {
		policies, variants, machines = policies[1:2], []sweep.Variant{variants[0], variants[3]}, machines[1:2]
		dur, reps = 5*sim.Millisecond, 1
	}
	var out []config
	for _, pol := range policies {
		for _, v := range variants {
			for _, m := range machines {
				cfg := cluster.FleetConfig{Machines: m, Policy: pol, QPS: 50000, Duration: dur}
				cfg.Machine.Feat = v.Feat
				cfg.Machine.Detect = v.Detect
				out = append(out, fleetConfig(fmt.Sprintf("fleet/%s/%s/%dm", pol, v.Label, m), cfg))
			}
		}
	}
	return out, reps
}

// observedConfigs: the hpdc21 -blame / blame_policies path plus -metrics.
// Each cell is a 1-machine fleet under one scheduling policy and kernel
// variant, traced with the rings the CLIs use.
func observedConfigs(quick bool) ([]config, int) {
	policies := oversub.PolicyNames()
	variants := sweep.FleetVariants()
	dur, reps := 20*sim.Millisecond, 7
	if quick {
		policies, variants = []string{"cfs", "shinjuku"}, []sweep.Variant{variants[0], variants[3]}
		dur, reps = 5*sim.Millisecond, 1
	}
	var out []config
	for _, pol := range policies {
		for _, v := range variants {
			cfg := cluster.FleetConfig{Machines: 1, QPS: 40000, Duration: dur}
			cfg.Machine.SchedPolicy = pol
			cfg.Machine.Feat = v.Feat
			cfg.Machine.Detect = v.Detect
			out = append(out, observedConfig(fmt.Sprintf("observed/%s/%s", pol, v.Label), cfg))
		}
	}
	return out, reps
}

func suiteConfig(id, prog string, base oversub.BenchConfig) config {
	spec := oversub.FindBenchmark(prog)
	if spec == nil {
		panic("benchmark: program " + prog + " missing from the suite")
	}
	return config{id: id, run: func(seed uint64, o *observer) (cellOut, error) {
		cfg := base
		cfg.Seed = seed
		if o != nil {
			cfg.Tracer = o
		}
		r := oversub.RunBenchmark(spec, cfg)
		if r.Err != nil {
			return cellOut{}, r.Err
		}
		out := cellOut{events: r.Events, simNS: int64(r.ExecTime)}
		out.addKernel(r.Metrics)
		out.addBWD(r.BWD)
		r.Events = 0
		out.digest = digest(r)
		return out, nil
	}}
}

// stressConfig is the Figure 10 primitive stress rebuilt on the System
// API: 32 threads hammer one mutex, condition variable or barrier with a
// few microseconds of work in between, so the sleep/wake path dominates.
func stressConfig(prim string, cores int, vb bool, iters int) config {
	const threads = 32
	id := fmt.Sprintf("stress/%s/%dc/%s", prim, cores, variantLabel(vb))
	return config{id: id, run: func(seed uint64, o *observer) (cellOut, error) {
		sys := oversub.NewSystem(oversub.SystemConfig{Cores: cores, Features: oversub.Features{VB: vb}, Seed: seed})
		if o != nil {
			sys.Kernel().SetTracer(o)
		}
		think := 3 * oversub.Microsecond
		switch prim {
		case "mutex":
			m := sys.NewMutex()
			for i := 0; i < threads; i++ {
				sys.Spawn("m", func(t *oversub.Thread) {
					for j := 0; j < iters; j++ {
						m.Lock(t)
						t.Run(oversub.Microsecond)
						m.Unlock(t)
						t.Run(think)
					}
				})
			}
		case "cond":
			m, c := sys.NewMutex(), sys.NewCond()
			count, gen := 0, 0
			for i := 0; i < threads; i++ {
				sys.Spawn("c", func(t *oversub.Thread) {
					for j := 0; j < iters; j++ {
						t.Run(think)
						m.Lock(t)
						count++
						if count == threads {
							count = 0
							gen++
							c.Broadcast(t)
							m.Unlock(t)
							continue
						}
						for g := gen; gen == g; {
							c.Wait(t, m)
						}
						m.Unlock(t)
					}
				})
			}
		case "barrier":
			b := sys.NewBarrier(threads)
			for i := 0; i < threads; i++ {
				sys.Spawn("b", func(t *oversub.Thread) {
					for j := 0; j < iters; j++ {
						t.Run(think)
						b.Await(t)
					}
				})
			}
		default:
			panic("benchmark: unknown primitive " + prim)
		}
		if err := sys.Run(); err != nil {
			return cellOut{}, err
		}
		out := cellOut{events: sys.Engine().Executed(), simNS: int64(sys.Now())}
		out.addKernel(sys.Metrics())
		out.digest = digest(struct {
			ExecTime oversub.Time
			Metrics  oversub.Metrics
		}{sys.Now(), sys.Metrics()})
		return out, nil
	}}
}

func memcachedConfig(workers int, vb bool, requests int) config {
	id := fmt.Sprintf("memcached/%dw/%s", workers, variantLabel(vb))
	return config{id: id, run: func(seed uint64, o *observer) (cellOut, error) {
		cfg := oversub.MemcachedConfig{Workers: workers, Cores: 4, VB: vb, Requests: requests, Seed: seed}
		if o != nil {
			cfg.Tracer = o
		}
		r := oversub.RunMemcached(cfg)
		if r.Served != requests {
			return cellOut{}, fmt.Errorf("served %d of %d requests", r.Served, requests)
		}
		out := cellOut{events: r.Events, simNS: int64(r.ExecTime)}
		out.addKernel(r.Metrics)
		r.Events = 0
		out.digest = digest(r)
		return out, nil
	}}
}

// fleetOut folds a fleet result into a cell output and digests it.
func fleetOut(r *cluster.FleetResult, dur sim.Duration, extra ...[]byte) cellOut {
	out := cellOut{events: r.Events, simNS: int64(dur)}
	for _, m := range r.PerMachine {
		out.addKernel(m.Metrics)
		out.addBWD(m.BWD)
	}
	r.Events = 0
	out.digest = digest(r, extra...)
	return out
}

func fleetConfig(id string, base cluster.FleetConfig) config {
	return config{id: id, run: func(seed uint64, o *observer) (cellOut, error) {
		cfg := base
		cfg.Seed = seed
		if o != nil {
			cfg.TracerFor = func(int) sched.Tracer { return o }
		}
		r, err := cluster.Run(cfg)
		if err != nil {
			return cellOut{}, err
		}
		return fleetOut(r, cfg.Duration), nil
	}}
}

// ringCapacity is the trace ring size hpdc21 -blame and blame_policies use.
const ringCapacity = 1 << 21

// observation holds one observed fleet's hooks: the per-machine trace
// rings, as cluster.AttachTracers builds them, and the metrics sampler.
//
// A fleet run abandons its threads when the clock stops, and their parked
// goroutines keep the kernel and the fleet's configuration reachable for
// the life of the process. detach cuts every path from there to the
// 100 MB rings, so a pass frees each cell's rings instead of retaining
// them all; the rest of the abandoned fleet stays, as in the CLIs.
type observation struct {
	rings   []*trace.Ring
	sampler *metrics.Sampler
	k       *sched.Kernel // observed fleets have one machine
}

func (ob *observation) attach(cfg *cluster.FleetConfig) {
	ob.rings = make([]*trace.Ring, cfg.WithDefaults().Machines)
	for i := range ob.rings {
		ob.rings[i] = trace.NewRing(ringCapacity)
	}
	ob.sampler = metrics.NewSampler(metrics.Config{})
	cfg.TracerFor = func(m int) sched.Tracer { return ob.rings[m] }
	cfg.SamplerFor = func(int) sched.Sampler { return ob }
}

func (ob *observation) SampleInterval() sim.Duration { return ob.sampler.SampleInterval() }

func (ob *observation) Sample(k *sched.Kernel, at sim.Time) {
	ob.k = k
	ob.sampler.Sample(k, at)
}

func (ob *observation) detach() {
	if ob.k != nil {
		ob.k.SetTracer(nil)
		ob.k.SetSampler(nil)
	}
	ob.rings = nil
}

// observedConfig runs one fleet with every observation hook the CLIs
// attach, then checks and renders what they recorded. With an observer
// (the counted pass) it also counts the rings' events and times the same
// fleet run without hooks, the reference for the observation overhead.
func observedConfig(id string, base cluster.FleetConfig) config {
	return config{id: id, run: func(seed uint64, o *observer) (cellOut, error) {
		cfg := base
		cfg.Seed = seed
		ob := &observation{}
		ob.attach(&cfg)
		defer ob.detach()
		rings, sampler := ob.rings, ob.sampler
		r, err := cluster.Run(cfg)
		if err != nil {
			return cellOut{}, err
		}

		start := time.Now() //simlint:allow walltime -- host cost of the trace analysis, a per-layer metric; never a simulation input
		var report bytes.Buffer
		var recorded uint64
		for _, m := range trace.CollectMachines(rings) {
			if m.Dropped > 0 {
				return cellOut{}, fmt.Errorf("machine %d: trace ring wrapped (%d events dropped)", m.Machine, m.Dropped)
			}
			if vs := append(trace.CheckInvariants(m.Events), trace.CheckBlame(m.Events)...); len(vs) > 0 {
				return cellOut{}, fmt.Errorf("machine %d: %d trace-invariant violations (first: %s)", m.Machine, len(vs), vs[0])
			}
			if err := trace.WriteBlame(&report, trace.ComputeBlame(m.Events), cfg.TenantNames(), 10); err != nil {
				return cellOut{}, err
			}
			recorded += uint64(len(m.Events))
		}
		if err := sampler.WriteJSON(&report); err != nil {
			return cellOut{}, err
		}
		analysis := time.Since(start).Nanoseconds() //simlint:allow walltime -- host cost of the trace analysis, a per-layer metric; never a simulation input

		out := fleetOut(r, cfg.Duration, report.Bytes())
		out.ringEvents = recorded
		out.ringBytes = int64(len(rings)) * ringCapacity * int64(unsafe.Sizeof(trace.Event{}))
		out.analysisNS = analysis
		if o != nil {
			for _, ring := range rings {
				for _, ev := range ring.Events() {
					o.Trace(ev.At, ev.CPU, ev.Thread, string(ev.Kind), ev.Arg)
				}
			}
			bare := base
			bare.Seed = seed
			start := time.Now() //simlint:allow walltime -- host time of the unobserved reference run, a per-layer metric
			br, err := cluster.Run(bare)
			out.bareNS = time.Since(start).Nanoseconds() //simlint:allow walltime -- host time of the unobserved reference run, a per-layer metric
			if err != nil {
				return cellOut{}, err
			}
			if br.Events = 0; digest(br) != digest(r) {
				return cellOut{}, errors.New("observation changed the fleet's outcome")
			}
		}
		return out, nil
	}}
}
