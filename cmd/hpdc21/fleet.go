package main

import (
	"fmt"
	"os"

	"oversub/internal/cluster"
	"oversub/internal/sim"
	"oversub/internal/sweep"
)

// fleetRun schedules one fleet cell on the pool, cached under the full
// fleet configuration fingerprint: machine count, machine topology and
// features, tenant mix, dispatch policy, arrival process, load, and seed
// all key the entry, so changing any of them — in particular the fleet
// topology — can never serve a stale result.
func (e *env) fleetRun(cfg cluster.FleetConfig) future[cluster.FleetResult] {
	cfg = cfg.WithDefaults()
	key := fingerprint("fleet", cfg)
	label := fmt.Sprintf("fleet/%s/%s/%dm", cfg.Policy, variantLabel(cfg.Machine), cfg.Machines)
	return submit(e, label, key, func() cluster.FleetResult {
		r, err := cluster.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpdc21: %s: %v\n", label, err)
			return cluster.FleetResult{}
		}
		e.pool.ReportSim(int64(cfg.Duration))
		return *r
	})
}

// variantLabel names a machine configuration the way the sweep layer does.
func variantLabel(m cluster.MachineConfig) string {
	for _, v := range sweep.FleetVariants() {
		if v.Feat == m.Feat && v.Detect == m.Detect {
			return v.Label
		}
	}
	return "custom"
}

// fleet is the capacity-planning experiment the single-machine figures
// imply: a fleet of oversubscribed machines (service tenants co-located
// with batch compute) under fixed open-loop load, swept over dispatch
// policy x kernel variant x machine count, and judged against a p99 SLO.
// The summary answers "how many machines does each variant need?" —
// VB+BWD meets the SLO with fewer machines than vanilla.
func fleet(e *env) {
	const sloUs = 400
	base := cluster.FleetConfig{
		QPS:      50000,
		Duration: 500 * sim.Millisecond,
		Seed:     e.o.seed,
	}
	machines := []int{1, 2, 4}
	policies := []string{"rr", "jsq", "ewma"}
	if e.o.quick {
		machines = []int{1, 2}
		policies = []string{"jsq"}
	}
	variants := sweep.FleetVariants()

	type point struct {
		policy string
		v      sweep.Variant
		m      int
	}
	var pts []point
	var futs []future[cluster.FleetResult]
	for _, policy := range policies {
		for _, v := range variants {
			for _, m := range machines {
				cfg := base
				cfg.Machines = m
				cfg.Policy = policy
				cfg.Machine.Feat = v.Feat
				cfg.Machine.Detect = v.Detect
				pts = append(pts, point{policy, v, m})
				futs = append(futs, e.fleetRun(cfg))
			}
		}
	}

	resolved := base.WithDefaults()
	rep := &cluster.Report{
		SchemaName: cluster.Schema,
		Arrival:    "poisson",
		QPS:        resolved.QPS,
		SLOUs:      sloUs,
		DurationMs: resolved.Duration.Millis(),
		WarmupMs:   resolved.Warmup.Millis(),
		Seed:       resolved.Seed,
	}
	for i, pt := range pts {
		r := futs[i].wait()
		rep.Cells = append(rep.Cells, cluster.CellFor(pt.policy, pt.v.Label, &r, sloUs*sim.Microsecond))
	}
	rep.SLO = cluster.BuildSLO(rep.Cells)
	if err := rep.WriteTable(e.out); err != nil {
		fmt.Fprintf(os.Stderr, "hpdc21: fleet table: %v\n", err)
	}
}
