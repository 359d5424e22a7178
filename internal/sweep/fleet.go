package sweep

import (
	"context"
	"fmt"

	"oversub/internal/cluster"
	"oversub/internal/runner"
	"oversub/internal/sched"
	"oversub/internal/sim"
	"oversub/internal/workload"
)

// FleetVariants returns the fleet comparison set: the four kernel
// configurations whose machine counts the capacity question contrasts.
// Pinning is omitted — a dispatcher already spreads load, so the
// interesting axis is the blocking/spinning machinery.
func FleetVariants() []Variant {
	return []Variant{
		{Label: "vanilla"},
		{Label: "vb", Feat: sched.Features{VB: true}},
		// StandardVariants has no BWD-only point; the fleet's spin-lock
		// tenant makes it informative here.
		{Label: "bwd", Detect: workload.DetectBWD},
		{Label: "vb+bwd", Feat: sched.Features{VB: true}, Detect: workload.DetectBWD},
	}
}

// FleetSweep describes a fleet capacity sweep: policy x variant x
// machine-count at fixed offered load, judged against a p99 SLO.
type FleetSweep struct {
	// Base carries the per-run configuration (QPS, tenants, arrival,
	// duration, seed). Machines, Policy, and Machine.Feat/Detect are
	// overwritten per cell; a Variant with a non-empty Policy also
	// overrides Machine.SchedPolicy.
	Base cluster.FleetConfig
	// Machines are the fleet sizes swept, ascending.
	Machines []int
	// Policies are the dispatch policies swept.
	Policies []string
	// Variants are the kernel configurations swept.
	Variants []Variant
	// SLO is the p99 response-latency bound.
	SLO sim.Duration
}

// RunFleetOn executes the sweep with cells fanned out on pool p
// (runner.New(1) runs them serially). Each cell builds its own engine and
// fleet; results merge back in grid order, so the report is identical for
// every pool width. The first failed cell, in grid order, fails the sweep.
func RunFleetOn(p *runner.Pool, cfg FleetSweep) (*cluster.Report, error) {
	if len(cfg.Machines) == 0 {
		cfg.Machines = []int{1, 2, 4}
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []string{"rr"}
	}
	if len(cfg.Variants) == 0 {
		cfg.Variants = FleetVariants()
	}
	type point struct {
		policy string
		v      Variant
		m      int
	}
	var pts []point
	for _, policy := range cfg.Policies {
		for _, v := range cfg.Variants {
			for _, m := range cfg.Machines {
				pts = append(pts, point{policy, v, m})
			}
		}
	}
	jobs := make([]runner.Job, len(pts))
	for i, pt := range pts {
		jobs[i] = runner.Job{
			Label: fmt.Sprintf("fleet/%s/%s/%dm", pt.policy, pt.v.Label, pt.m),
			Fn: func(context.Context) (any, error) {
				c := cfg.Base
				c.Machines = pt.m
				c.Policy = pt.policy
				c.Machine.Feat = pt.v.Feat
				c.Machine.Detect = pt.v.Detect
				if pt.v.Policy != "" {
					c.Machine.SchedPolicy = pt.v.Policy
				}
				return cluster.Run(c)
			},
		}
	}
	results := make([]*cluster.FleetResult, len(pts))
	for i, r := range p.Map(context.Background(), jobs) {
		if r.Err != nil {
			return nil, fmt.Errorf("fleet cell %s: %w", jobs[i].Label, r.Err)
		}
		results[i] = r.Value.(*cluster.FleetResult)
	}

	base := cfg.Base.WithDefaults()
	rep := &cluster.Report{
		SchemaName: cluster.Schema,
		Arrival:    base.Arrival,
		QPS:        base.QPS,
		SLOUs:      cfg.SLO.Micros(),
		DurationMs: base.Duration.Millis(),
		WarmupMs:   base.Warmup.Millis(),
		Seed:       base.Seed,
	}
	if rep.Arrival == "" {
		rep.Arrival = "poisson"
	}
	for i, pt := range pts {
		rep.Cells = append(rep.Cells, cluster.CellFor(pt.policy, pt.v.Label, results[i], cfg.SLO))
	}
	rep.SLO = cluster.BuildSLO(rep.Cells)
	return rep, nil
}
