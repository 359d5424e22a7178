package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"oversub"
	"oversub/internal/cluster"
	"oversub/internal/runner"
	"oversub/internal/sched"
	"oversub/internal/sweep"
	"oversub/internal/trace"
)

// fleetFlags holds the -fleet* option group of `hpdc21 run`.
type fleetFlags struct {
	machines  string
	qps       float64
	duration  int
	warmup    int
	policies  string
	variants  string
	arrival   string
	sloUs     int
	outJSON   string
	schedList string
}

func (ff *fleetFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&ff.machines, "fleet", "", "fleet capacity sweep over these machine counts (e.g. \"1,2,4\"); ignores -bench")
	fs.Float64Var(&ff.qps, "fleet-qps", 50000, "fleet: offered load, requests/sec fleet-wide")
	fs.IntVar(&ff.duration, "fleet-duration", 500, "fleet: simulated run length in ms")
	fs.IntVar(&ff.warmup, "fleet-warmup", 0, "fleet: warmup excluded from latency accounting, ms (0 = duration/10)")
	fs.StringVar(&ff.policies, "fleet-policies", "rr,jsq,ewma", "fleet: dispatch policies to sweep (rr,jsq,ewma)")
	fs.StringVar(&ff.variants, "fleet-variants", "", "fleet: kernel variants to sweep (default vanilla,vb,bwd,vb+bwd)")
	fs.StringVar(&ff.arrival, "fleet-arrival", "poisson", "fleet: arrival process (poisson, mmpp, diurnal)")
	fs.IntVar(&ff.sloUs, "fleet-slo", 400, "fleet: p99 SLO in microseconds")
	fs.StringVar(&ff.outJSON, "fleet-out", "", "fleet: also write the oversub-fleet/v1 JSON report to this file")
	fs.StringVar(&ff.schedList, "fleet-sched", "", "fleet: per-machine scheduling policies assigned round robin (e.g. \"cfs,shinjuku\"); overrides -policy")
}

// splitList parses a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseMachines parses the -fleet machine-count list.
func parseMachines(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-fleet: bad machine count %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fleet: empty machine-count list")
	}
	return out, nil
}

// selectVariants resolves -fleet-variants labels against the standard set.
func selectVariants(s string) ([]sweep.Variant, error) {
	all := sweep.FleetVariants()
	if s == "" {
		return all, nil
	}
	var out []sweep.Variant
	for _, label := range splitList(s) {
		found := false
		for _, v := range all {
			if v.Label == label {
				out = append(out, v)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("-fleet-variants: unknown variant %q (want vanilla, vb, bwd, or vb+bwd)", label)
		}
	}
	return out, nil
}

// fleetSweep resolves the -fleet* flags into a policy x variant x
// machine-count capacity sweep at fixed offered load. Every error is a
// usage error, reported before anything runs; that includes asking
// -trace, -blame or -metrics to record a grid of more than one cell.
func (f *runFlags) fleetSweep() (sweep.FleetSweep, error) {
	ff := &f.fleet
	machines, err := parseMachines(ff.machines)
	if err != nil {
		return sweep.FleetSweep{}, err
	}
	variants, err := selectVariants(ff.variants)
	if err != nil {
		return sweep.FleetSweep{}, err
	}
	policies := splitList(ff.policies)
	if len(policies) == 0 {
		policies = []string{"rr"}
	}
	schedList := splitList(ff.schedList)
	for _, p := range schedList {
		if !oversub.ValidPolicy(p) {
			return sweep.FleetSweep{}, fmt.Errorf("-fleet-sched: unknown scheduling policy %q (want one of %v)", p, oversub.PolicyNames())
		}
	}
	if cells := len(machines) * len(policies) * len(variants); cells != 1 && f.observed() {
		return sweep.FleetSweep{}, fmt.Errorf("-trace/-blame/-metrics record a single run; the fleet grid has %d cells (narrow -fleet, -fleet-policies, -fleet-variants)", cells)
	}
	cfg := sweep.FleetSweep{
		Base: cluster.FleetConfig{
			QPS:             ff.qps,
			Arrival:         ff.arrival,
			Duration:        oversub.Duration(ff.duration) * oversub.Millisecond,
			Warmup:          oversub.Duration(ff.warmup) * oversub.Millisecond,
			Seed:            f.seed,
			MachinePolicies: schedList,
			Shards:          f.shards,
		},
		Machines: machines,
		Policies: policies,
		Variants: variants,
		SLO:      oversub.Duration(ff.sloUs) * oversub.Microsecond,
	}
	cfg.Base.Machine.SchedPolicy = f.policy
	return cfg, nil
}

// observed reports whether the run records any trace, blame or metrics
// artifact.
func (f *runFlags) observed() bool {
	return f.traceTo != "" || f.blameTo != "" || f.metricsTo != ""
}

// runFleet executes the -fleet sweep, printed as a table and optionally
// written as a schema-validated oversub-fleet/v1 JSON report. With a
// single grid cell, -trace and -blame attach a tracer to EVERY machine of
// that run (per-machine rings merged into one fleet artifact), and
// -metrics attaches the time-series sampler to machine 0.
func runFleet(pool *runner.Pool, cfg sweep.FleetSweep, f *runFlags, stdout, stderr io.Writer) error {
	var rings []*oversub.TraceRing
	var sampler *oversub.MetricsSampler
	if f.observed() {
		if f.traceTo != "" || f.blameTo != "" {
			// Every machine gets its own ring — a fleet trace that silently
			// covers only machine 0 is not a fleet trace.
			cfg.Base.Machines = cfg.Machines[0]
			rings = cluster.AttachTracers(&cfg.Base, traceCapacity(f.blameTo))
		}
		if f.metricsTo != "" {
			sampler = oversub.NewMetricsSampler(oversub.MetricsConfig{})
			cfg.Base.SamplerFor = func(m int) sched.Sampler {
				if m == 0 {
					return sampler
				}
				return nil
			}
		}
		pool = nil // observed runs stay in-process
	}

	rep, err := sweep.RunFleetOn(pool, cfg)
	if err != nil {
		return err
	}
	if err := rep.WriteTable(stdout); err != nil {
		return err
	}
	if out := f.fleet.outJSON; out != "" {
		if err := writeFile(out, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nwrote %s (%s)\n", out, cluster.Schema)
	}
	if rings != nil {
		ms := trace.CollectMachines(rings)
		if err := checkFleetTrace(ms, stderr); err != nil {
			return err
		}
		if f.traceTo != "" {
			if err := emitFleetTrace(ms, f.traceTo, f.traceFmt); err != nil {
				return err
			}
		}
		if f.blameTo != "" {
			if err := emitFleetBlame(ms, f.blameTo, cfg.Base.TenantNames()); err != nil {
				return err
			}
		}
	}
	if sampler != nil {
		return emitMetrics(sampler, f.metricsTo, f.metricsFmt)
	}
	return nil
}

// checkFleetTrace runs the trace oracle (lifecycle plus blame exactness)
// over every machine's stream. A wrapped ring only warns, matching
// single-machine -trace behaviour; oracle violations are fatal.
func checkFleetTrace(ms []trace.MachineEvents, stderr io.Writer) error {
	bad := 0
	for _, m := range ms {
		if m.Dropped > 0 {
			fmt.Fprintf(stderr, "hpdc21: machine %d trace ring wrapped (%d events dropped); invariant oracle skipped\n", m.Machine, m.Dropped)
			continue
		}
		vs := append(trace.CheckInvariants(m.Events), trace.CheckBlame(m.Events)...)
		bad += reportViolations(stderr, fmt.Sprintf("machine %d: ", m.Machine), vs, 10)
	}
	if bad > 0 {
		return fmt.Errorf("hpdc21: %d trace-invariant violations across the fleet", bad)
	}
	return nil
}

// emitFleetTrace writes the merged fleet trace: text and summary render
// per-machine sections, json emits one Chrome/Perfetto document with one
// process per machine.
func emitFleetTrace(ms []trace.MachineEvents, path, format string) error {
	return writeFile(path, func(w io.Writer) error {
		if format == "json" {
			return trace.WriteFleetChromeTrace(w, ms)
		}
		for _, m := range ms {
			if _, err := fmt.Fprintf(w, "=== machine %d: %d events (%d dropped) ===\n", m.Machine, len(m.Events), m.Dropped); err != nil {
				return err
			}
			var err error
			if format == "text" {
				err = trace.WriteEvents(w, m.Events)
			} else {
				err = trace.WriteSummary(w, m.Events, m.Dropped)
			}
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		return nil
	})
}

// emitFleetBlame writes the fleet blame report: per-machine rows plus the
// digest-merged fleet rows. Wrapped rings are fatal here — attribution
// needs complete streams.
func emitFleetBlame(ms []trace.MachineEvents, path string, names []string) error {
	for _, m := range ms {
		if m.Dropped > 0 {
			return fmt.Errorf("hpdc21: machine %d trace ring wrapped (%d events dropped); blame needs the complete stream — shorten -fleet-duration", m.Machine, m.Dropped)
		}
	}
	return writeFile(path, func(w io.Writer) error { return trace.WriteFleetBlame(w, ms, names) })
}
