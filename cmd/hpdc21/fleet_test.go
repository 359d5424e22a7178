package main

import "testing"

// TestFleetSweepAppliesPolicy pins that -policy reaches every machine of
// the fleet experiment, as it does for `run -fleet`, and that the default
// leaves the machines on cfs.
func TestFleetSweepAppliesPolicy(t *testing.T) {
	for _, policy := range []string{"", "shinjuku"} {
		for _, quick := range []bool{false, true} {
			o := options{quick: quick}
			o.policy = policy
			if got := fleetSweep(o).Base.Machine.SchedPolicy; got != policy {
				t.Errorf("policy %q quick=%v: Base.Machine.SchedPolicy = %q", policy, quick, got)
			}
		}
	}
}
