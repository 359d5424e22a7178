package trace_test

import (
	"fmt"
	"testing"

	"oversub/internal/bwd"
	"oversub/internal/sched"
	"oversub/internal/workload"
)

// TestOraclePolicyFeatureMatrix generalizes the trace-invariant oracle
// across the policy zoo: the lifecycle state machine (no double-current,
// dispatch-requires-enqueue, balanced VB brackets, monotone time) is a
// property of the kernel's mechanisms, so it must hold for every scheduling
// policy under every feature combination — including the µs-preemption and
// deadline policies whose dispatch patterns look nothing like CFS.
func TestOraclePolicyFeatureMatrix(t *testing.T) {
	type cell struct {
		feat   sched.Features
		detect bwd.Mode
		label  string
	}
	cells := []cell{
		{label: "vanilla"},
		{feat: sched.Features{VB: true}, label: "vb"},
		{detect: bwd.ModeBWD, label: "bwd"},
		{feat: sched.Features{VB: true}, detect: bwd.ModeBWD, label: "vb+bwd"},
	}
	for _, pol := range sched.PolicyNames() {
		for _, cl := range cells {
			t.Run(fmt.Sprintf("%s/%s", pol, cl.label), func(t *testing.T) {
				r := runTraced(t, "streamcluster", workload.RunConfig{
					Threads: 16, Cores: 4, Seed: 3, WorkScale: 0.05,
					Feat: cl.feat, Detect: cl.detect, Policy: pol,
				})
				checkClean(t, r)
				if len(r.Events()) == 0 {
					t.Fatal("no events recorded")
				}
			})
		}
	}
}

// TestOraclePolicySpinRing runs the spin-wavefront pipeline (the workload
// that livelocks naive policies: a busy-waiter must never starve the thread
// whose flag it polls) under every policy with BWD active, oracle-checked.
func TestOraclePolicySpinRing(t *testing.T) {
	for _, pol := range sched.PolicyNames() {
		t.Run(pol, func(t *testing.T) {
			r := runTraced(t, "lu", workload.RunConfig{
				Threads: 16, Cores: 4, Seed: 5, WorkScale: 0.02,
				Detect: bwd.ModeBWD, Policy: pol,
			})
			checkClean(t, r)
		})
	}
}
