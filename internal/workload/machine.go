package workload

import (
	"oversub/internal/bwd"
	"oversub/internal/futex"
	"oversub/internal/hw"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// MachineSpec describes one simulated machine: the paper's two-socket
// host, sized for its largest cpuset, running vanilla or VB wakeups and at
// most one spin detector.
type MachineSpec struct {
	// Cores is the initial cpuset size in physical cores.
	Cores int
	// MaxCores sizes the machine for later cpuset growth (below Cores
	// means Cores). The cores split evenly over two sockets.
	MaxCores int
	// SMT is hyper-threads per core (0/1 = HT off).
	SMT int
	// Feat selects kernel features (VB, pinning, VM).
	Feat sched.Features
	// Costs overrides the kernel cost table (nil = sched.DefaultCosts).
	Costs *sched.Costs
	// Policy selects the scheduling policy ("" = cfs).
	Policy string
	// Seed seeds the kernel's random source. The engine is the caller's,
	// seeded by the caller.
	Seed uint64
	// Detect selects the spin detector.
	Detect bwd.Mode
	// Tracer and Sampler, when non-nil, observe the kernel. Installing a
	// sampler arms its tick on the engine.
	Tracer  sched.Tracer
	Sampler sched.Sampler
}

// Machine is one simulated machine: its kernel, its futex table, and its
// spin detector.
type Machine struct {
	K       *sched.Kernel
	Futexes *futex.Table
	// Det is the detector spec.Detect asks for, or nil. It is not started:
	// Start arms its per-core timers, so where a caller starts it is part
	// of that caller's event order.
	Det *bwd.Detector
}

// NewMachine builds the machine spec describes on eng.
func NewMachine(eng *sim.Engine, spec MachineSpec) *Machine {
	smt := spec.SMT
	if smt <= 0 {
		smt = 1
	}
	maxCores := spec.MaxCores
	if maxCores < spec.Cores {
		maxCores = spec.Cores
	}
	perSocket := (maxCores + 1) / 2
	if perSocket < 1 {
		perSocket = 1
	}
	costs := sched.DefaultCosts()
	if spec.Costs != nil {
		costs = *spec.Costs
	}
	k := sched.New(eng, sched.Config{
		Topo:   hw.Topology{Sockets: 2, CoresPerSocket: perSocket, ThreadsPerCore: smt},
		NCPUs:  spec.Cores * smt,
		Costs:  costs,
		Feat:   spec.Feat,
		Seed:   spec.Seed,
		Policy: spec.Policy,
	})
	if spec.Tracer != nil {
		k.SetTracer(spec.Tracer)
	}
	if spec.Sampler != nil {
		k.SetSampler(spec.Sampler)
	}
	m := &Machine{K: k, Futexes: futex.NewTable(k, 0)}
	if spec.Detect != bwd.ModeOff {
		m.Det = bwd.New(k, bwd.Config{Mode: spec.Detect})
	}
	return m
}
