// Package cluster simulates a fleet of oversubscribed machines under one
// deterministic event engine: N independent simulated kernels (each with
// its own VB/BWD configuration), heterogeneous service tenants replicated
// on every machine, an open-loop load generator with pluggable arrival
// processes, and a front-end dispatcher routing each request to a machine.
//
// It answers the capacity-planning question the paper's single-machine
// results imply: if virtual blocking and busy-waiting detection recover
// the latency lost to oversubscription, how many fewer machines does a
// fleet need to meet a tail-latency SLO at a given offered load?
//
// Everything — arrivals, dispatch decisions, per-kernel scheduling — runs
// in one event-ordered simulation, so identical seeds produce
// byte-identical fleet reports regardless of host parallelism.
package cluster

import (
	"fmt"

	"oversub/internal/bwd"
	"oversub/internal/locks"
	"oversub/internal/sched"
	"oversub/internal/sim"
	"oversub/internal/stats"
	"oversub/internal/workload"
)

// MachineConfig describes one machine's hardware and kernel features.
// Every machine in a fleet is identical; heterogeneity lives in the
// tenant mix, not the hardware.
type MachineConfig struct {
	// Cores is the number of physical cores (default 4).
	Cores int
	// SMT is hyper-threads per core (0/1 = HT off).
	SMT int
	// Feat selects kernel features (VB, pinning).
	Feat sched.Features
	// Detect selects the spin detector (BWD/PLE).
	Detect bwd.Mode
	// SchedPolicy selects the scheduling policy every machine's kernel
	// runs ("" = cfs); FleetConfig.MachinePolicies overrides it
	// per-machine. It is distinct from FleetConfig.Policy, which names the
	// front-end dispatcher.
	SchedPolicy string
}

// FleetConfig describes one fleet experiment.
type FleetConfig struct {
	// Machines is the fleet size (default 1).
	Machines int
	// Machine configures every machine.
	Machine MachineConfig
	// Tenants is the service mix (default StandardMix).
	Tenants []TenantSpec
	// BatchThreads is the number of CPU-bound background threads
	// co-located on every machine (default 2, -1 = none). They model the
	// batch tier that motivates oversubscription in the first place:
	// with them the cores are never idle, so service wakeups always
	// contend with running compute — the regime where VB's cheap wakeup
	// path and BWD's spin eviction pay off.
	BatchThreads int
	// Policy selects the dispatcher: "rr", "jsq", "ewma" (default rr).
	Policy string
	// MachinePolicies, when non-empty, assigns scheduling policies round
	// robin across the fleet: machine m runs MachinePolicies[m %
	// len(MachinePolicies)], overriding Machine.SchedPolicy. This models
	// heterogeneous fleets (e.g. half cfs, half shinjuku) under one
	// dispatcher. Entries must name registered policies; "" means cfs.
	MachinePolicies []string
	// Arrival selects the arrival process: "poisson", "mmpp", "diurnal"
	// (default poisson).
	Arrival string
	// QPS is the fleet-wide offered load in requests per second
	// (default 50000). It does not scale with Machines: the experiment
	// holds load fixed and asks how many machines absorb it.
	QPS float64
	// Duration is the simulated run length (default 2s).
	Duration sim.Duration
	// Warmup discards completions arriving before this offset from the
	// latency accounting (default Duration/10).
	Warmup sim.Duration
	// Seed makes the run reproducible: equal seeds give byte-identical
	// results.
	Seed uint64
	// Shards is ignored: every fleet runs on one engine (DESIGN.md §15).
	// The field stays only because benchmark/layers.go still sets it; it
	// goes with that code at the next change to benchmark/ (ROADMAP
	// carry-over). Nothing else may set it.
	Shards int `json:"-"`
	// TracerFor, when non-nil, supplies a per-machine tracer (nil return
	// = untraced machine). Observation-only.
	TracerFor func(machine int) sched.Tracer `json:"-"`
	// SamplerFor, when non-nil, supplies a per-machine metrics sampler.
	SamplerFor func(machine int) sched.Sampler `json:"-"`
}

// WithDefaults returns the configuration with every zero field resolved
// to its default, exactly as Run resolves them — so report headers can
// name the effective configuration.
func (cfg FleetConfig) WithDefaults() FleetConfig {
	cfg.defaults()
	return cfg
}

func (cfg *FleetConfig) defaults() {
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	if cfg.Machine.Cores <= 0 {
		cfg.Machine.Cores = 4
	}
	if cfg.Machine.SMT <= 0 {
		cfg.Machine.SMT = 1
	}
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = StandardMix()
	}
	if cfg.BatchThreads == 0 {
		cfg.BatchThreads = 2
	}
	if cfg.BatchThreads < 0 {
		cfg.BatchThreads = 0
	}
	if cfg.QPS <= 0 {
		cfg.QPS = 50000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * sim.Second
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = cfg.Duration / 10
	}
	if cfg.Warmup >= cfg.Duration {
		cfg.Warmup = cfg.Duration / 2
	}
}

// MachineResult is one machine's view of the run.
type MachineResult struct {
	Machine int
	// SchedPolicy names the scheduling policy this machine's kernel ran
	// (heterogeneous fleets differ per machine).
	SchedPolicy string
	// Issued counts requests the dispatcher routed here; Done counts
	// completions; Backlog is the difference — requests still queued or
	// in service when the clock stopped.
	Issued  uint64
	Done    uint64
	Backlog uint64
	// UtilPct is mean CPU utilization over the run in percent-of-one-core
	// units summed over the cpuset.
	UtilPct float64
	// P50 and P99 summarize recorded (post-warmup) response latency.
	P50, P99 sim.Duration
	Metrics  sched.Metrics
	BWD      bwd.Stats
}

// TenantResult aggregates one tenant across all machines.
type TenantResult struct {
	Name string
	// Issued counts arrivals; Recorded counts post-warmup completions
	// that entered the latency accounting.
	Issued   uint64
	Done     uint64
	Recorded uint64
	Mean     sim.Duration
	P50      sim.Duration
	P99      sim.Duration
	P999     sim.Duration
}

// FleetResult is the outcome of one fleet run.
type FleetResult struct {
	Machines int
	Policy   string
	Arrival  string
	// OfferedQPS is the configured load; GoodputQPS is recorded
	// completions divided by the measurement window. A saturated fleet
	// shows goodput well below offered.
	OfferedQPS float64
	GoodputQPS float64
	// Fleet-wide recorded response latency (merged across machines and
	// tenants via stats.Digest).
	Mean sim.Duration
	P50  sim.Duration
	P99  sim.Duration
	P999 sim.Duration
	Max  sim.Duration
	// UtilMeanPct and UtilSpreadPct summarize load placement: the mean
	// per-machine utilization and the max-min gap (a dispatcher quality
	// signal).
	UtilMeanPct   float64
	UtilSpreadPct float64
	// Backlog is the fleet-wide count of requests issued but not
	// completed when the clock stopped.
	Backlog uint64
	// Events is the engine's executed-event count (host-cost measure).
	Events uint64

	PerMachine []MachineResult
	PerTenant  []TenantResult
}

// SLOMet reports whether the run met a p99 SLO: the tail is under the
// bound and the fleet actually absorbed the load (goodput within 5% of
// offered — a saturated fleet can show a fine p99 over the few requests
// it manages to serve while its backlog grows without bound).
func (r *FleetResult) SLOMet(slo sim.Duration) bool {
	return r.P99 <= slo && r.GoodputQPS >= 0.95*r.OfferedQPS
}

// machine bundles one simulated machine's kernel and per-tenant services.
type machine struct {
	k    *sched.Kernel
	det  *bwd.Detector
	smp  sched.Sampler
	svcs []*workload.Service // one per tenant
	recs []*stats.Digest     // one per tenant, post-warmup latency
}

// fleet is the in-flight run state shared by the generator trampolines.
type fleet struct {
	cfg      FleetConfig
	eng      *sim.Engine
	machines []*machine
	disp     Dispatcher
	end      sim.Time
	warmEnd  sim.Time
	issued   [][]uint64 // [machine][tenant]
}

// tenantGen drives one tenant's open-loop arrival stream.
type tenantGen struct {
	f    *fleet
	idx  int
	spec *TenantSpec
	proc Process
	rng  *sim.Rand
	lane int
}

// batchBody is the co-located compute tier: an endless CPU burn in
// scheduler-quantum-sized chunks. It never blocks, so the fair scheduler
// time-slices it against the service workers — the thread never exits and
// is simply abandoned when the clock stops at the horizon.
func batchBody(t *sched.Thread) {
	for {
		t.Run(500 * sim.Microsecond)
	}
}

func genArrive(arg any, _, _ uint64) {
	g := arg.(*tenantGen)
	now := g.f.eng.Now()
	if now >= g.f.end {
		return // horizon reached: the stream stops, backlog is counted
	}
	g.emit(now)
	g.f.eng.AfterCall(g.proc.Next(now, g.rng), genArrive, g, 0, 0)
}

// emit builds one request, routes it, and posts it. Open loop: issuance
// never waits for completions, so overload shows up as backlog and
// latency, exactly as it would at a real front end.
func (g *tenantGen) emit(now sim.Time) {
	m := g.f.disp.Pick()
	g.f.disp.Sent(m)
	g.f.issued[m][g.idx]++
	g.lane++
	req := &workload.Request{
		Work:    g.spec.workFor(g.rng),
		Lane:    g.lane,
		Machine: m,
		Tenant:  g.idx,
		Skip:    now < g.f.warmEnd,
	}
	g.f.machines[m].svcs[g.idx].Post(req)
}

// validate rejects configurations Run cannot execute.
func (cfg *FleetConfig) validate() error {
	for i := range cfg.Tenants {
		if cfg.Tenants[i].Share <= 0 {
			return fmt.Errorf("cluster: tenant %q needs a positive share", cfg.Tenants[i].Name)
		}
	}
	if !sched.ValidPolicy(cfg.Machine.SchedPolicy) {
		return fmt.Errorf("cluster: unknown scheduling policy %q", cfg.Machine.SchedPolicy)
	}
	for _, p := range cfg.MachinePolicies {
		if !sched.ValidPolicy(p) {
			return fmt.Errorf("cluster: unknown scheduling policy %q", p)
		}
	}
	return nil
}

// Run executes one fleet experiment: every machine runs on one event
// engine, so the returned result is a pure function of cfg's value fields.
func Run(cfg FleetConfig) (*FleetResult, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	eng := sim.NewEngine(cfg.Seed*0x9E3779B97F4A7C15 + 0xF1EE7)
	f, err := buildFleet(cfg, eng)
	if err != nil {
		return nil, err
	}
	f.start()
	eng.Run(f.end)
	f.stop()
	res := f.collect()
	eng.Close()
	return res, nil
}

// buildFleet constructs the run state on eng. Construction order is part
// of the run's definition: the engine-RNG draw sequence is one service
// split per machine x tenant, then one generator split per tenant.
func buildFleet(cfg FleetConfig, eng *sim.Engine) (*fleet, error) {
	totalShare := 0.0
	for i := range cfg.Tenants {
		totalShare += cfg.Tenants[i].Share
	}

	disp, err := NewDispatcher(cfg.Policy, cfg.Machines)
	if err != nil {
		return nil, err
	}

	f := &fleet{
		cfg:     cfg,
		eng:     eng,
		disp:    disp,
		end:     sim.Time(0).Add(cfg.Duration),
		warmEnd: sim.Time(0).Add(cfg.Warmup),
		issued:  make([][]uint64, cfg.Machines),
	}

	// Build machines in index order (RNG splits, thread spawn order).
	for m := 0; m < cfg.Machines; m++ {
		f.issued[m] = make([]uint64, len(cfg.Tenants))
		spec := workload.MachineSpec{
			Cores: cfg.Machine.Cores, SMT: cfg.Machine.SMT, Feat: cfg.Machine.Feat,
			Policy: cfg.Machine.SchedPolicy, Seed: cfg.Seed + uint64(m)*1000 + 99,
			Detect: cfg.Machine.Detect,
		}
		if len(cfg.MachinePolicies) > 0 {
			spec.Policy = cfg.MachinePolicies[m%len(cfg.MachinePolicies)]
		}
		if cfg.TracerFor != nil {
			spec.Tracer = cfg.TracerFor(m)
		}
		if cfg.SamplerFor != nil {
			spec.Sampler = cfg.SamplerFor(m)
		}
		wm := workload.NewMachine(eng, spec)
		k, tbl := wm.K, wm.Futexes
		mc := &machine{k: k, smp: spec.Sampler, det: wm.Det}
		for ti := range cfg.Tenants {
			ts := &cfg.Tenants[ti]
			shards := make([]locks.Locker, ts.Shards)
			for s := range shards {
				if ts.SpinLocks {
					shards[s] = locks.NewTTAS(k)
				} else {
					shards[s] = locks.NewMutex(tbl)
				}
			}
			rec := &stats.Digest{}
			mc.recs = append(mc.recs, rec)
			mc.svcs = append(mc.svcs, workload.NewService(k, workload.ServiceConfig{
				Name:    fmt.Sprintf("m%d-%s", m, ts.Name),
				Workers: ts.Workers,
				Shards:  shards,
				Parse:   3 * sim.Microsecond,
				Lookup:  1500 * sim.Nanosecond,
				Send:    3 * sim.Microsecond,
				Latency: rec,
				OnDone: func(req *workload.Request, lat sim.Duration) {
					f.disp.Done(req.Machine, lat)
				},
			}))
		}
		for b := 0; b < cfg.BatchThreads; b++ {
			k.Spawn(fmt.Sprintf("m%d-batch-%d", m, b), batchBody)
		}
		f.machines = append(f.machines, mc)
	}

	// One generator per tenant, each with its own RNG split (split order
	// = tenant order) and arrival process at its share of fleet QPS.
	for ti := range cfg.Tenants {
		ts := &cfg.Tenants[ti]
		rate := cfg.QPS * ts.Share / totalShare
		proc, err := NewProcess(cfg.Arrival, rate)
		if err != nil {
			return nil, err
		}
		g := &tenantGen{f: f, idx: ti, spec: ts, proc: proc, rng: eng.Rand().Split()}
		eng.AfterCall(proc.Next(0, g.rng), genArrive, g, 0, 0)
	}
	return f, nil
}

// start arms the per-machine detectors.
func (f *fleet) start() {
	for _, mc := range f.machines {
		if mc.det != nil {
			mc.det.Start()
		}
	}
}

// stop disarms detectors and flushes samplers, mirroring
// RunToCompletion's end-of-run sampler flush.
func (f *fleet) stop() {
	for _, mc := range f.machines {
		if mc.det != nil {
			mc.det.Stop()
		}
	}
	for _, mc := range f.machines {
		if mc.smp != nil {
			mc.smp.Sample(mc.k, f.eng.Now())
		}
	}
}

// collect reduces the run state into a FleetResult. All aggregation is
// digest merges and integer sums — deterministic in any order, iterated in
// index order anyway.
func (f *fleet) collect() *FleetResult {
	cfg := f.cfg
	measure := cfg.Duration - cfg.Warmup

	res := &FleetResult{
		Machines:   cfg.Machines,
		Policy:     f.disp.Policy(),
		Arrival:    cfg.Arrival,
		OfferedQPS: cfg.QPS,
		Events:     f.eng.Executed(),
	}
	if res.Arrival == "" {
		res.Arrival = "poisson"
	}

	var fleetDigest stats.Digest
	utilMin, utilMax := -1.0, -1.0
	for m, mc := range f.machines {
		var md stats.Digest
		var issued, done uint64
		for ti := range cfg.Tenants {
			md.Merge(mc.recs[ti])
			issued += f.issued[m][ti]
			done += mc.svcs[ti].Done()
		}
		util := float64(mc.k.TotalBusy()) / float64(cfg.Duration) * 100
		mr := MachineResult{
			Machine:     m,
			SchedPolicy: mc.k.PolicyName(),
			Issued:      issued,
			Done:        done,
			Backlog:     issued - done,
			UtilPct:     util,
			P50:         md.Percentile(50),
			P99:         md.Percentile(99),
			Metrics:     mc.k.Metrics,
		}
		if mc.det != nil {
			mr.BWD = mc.det.Stats
		}
		res.PerMachine = append(res.PerMachine, mr)
		res.Backlog += mr.Backlog
		res.UtilMeanPct += util
		if utilMin < 0 || util < utilMin {
			utilMin = util
		}
		if util > utilMax {
			utilMax = util
		}
		fleetDigest.Merge(&md)
	}
	res.UtilMeanPct /= float64(cfg.Machines)
	if utilMax >= 0 {
		res.UtilSpreadPct = utilMax - utilMin
	}

	for ti := range cfg.Tenants {
		var td stats.Digest
		var issued, done uint64
		for m, mc := range f.machines {
			td.Merge(mc.recs[ti])
			issued += f.issued[m][ti]
			done += mc.svcs[ti].Done()
		}
		res.PerTenant = append(res.PerTenant, TenantResult{
			Name:     cfg.Tenants[ti].Name,
			Issued:   issued,
			Done:     done,
			Recorded: td.Count(),
			Mean:     td.Mean(),
			P50:      td.Percentile(50),
			P99:      td.Percentile(99),
			P999:     td.Percentile(99.9),
		})
	}

	res.Mean = fleetDigest.Mean()
	res.P50 = fleetDigest.Percentile(50)
	res.P99 = fleetDigest.Percentile(99)
	res.P999 = fleetDigest.Percentile(99.9)
	res.Max = fleetDigest.Max()
	res.GoodputQPS = float64(fleetDigest.Count()) / measure.Seconds()
	return res
}
