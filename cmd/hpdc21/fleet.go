package main

import (
	"oversub/internal/cluster"
	"oversub/internal/sim"
	"oversub/internal/sweep"
)

// fleet is the capacity-planning experiment the single-machine figures
// imply: a fleet of oversubscribed machines (service tenants co-located
// with batch compute) under fixed open-loop load, swept over dispatch
// policy x kernel variant x machine count, and judged against a p99 SLO.
// The summary answers "how many machines does each variant need?" —
// VB+BWD meets the SLO with fewer machines than vanilla. A failed cell
// fails the experiment.
func fleet(e *env) {
	rep, err := sweep.RunFleetOn(e.pool, fleetSweep(e.o))
	if err != nil {
		panic(err) // runExperiments reports the failed experiment and exits 1
	}
	rep.WriteTable(e.out) // an in-memory buffer: the write cannot fail
}

// fleetSweep is the fleet experiment's grid; -policy sets every machine's
// scheduling policy.
func fleetSweep(o options) sweep.FleetSweep {
	fs := sweep.FleetSweep{
		Base: cluster.FleetConfig{
			QPS:      50000,
			Duration: 500 * sim.Millisecond,
			Seed:     o.seed,
		},
		Machines: []int{1, 2, 4},
		Policies: []string{"rr", "jsq", "ewma"},
		Variants: sweep.FleetVariants(),
		SLO:      400 * sim.Microsecond,
	}
	if o.quick {
		fs.Machines = []int{1, 2}
		fs.Policies = []string{"jsq"}
	}
	fs.Base.Machine.SchedPolicy = o.policy
	return fs
}
