package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"
	"time"

	"oversub/internal/bwd"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

func smallFleet(machines int, seed uint64) FleetConfig {
	return FleetConfig{
		Machines: machines,
		Policy:   "jsq",
		QPS:      20000,
		Duration: 200 * sim.Millisecond,
		Seed:     seed,
	}
}

// TestFleetDeterminism is the package's headline contract: identical seeds
// produce identical results — as Go values and as serialized bytes.
func TestFleetDeterminism(t *testing.T) {
	a, err := Run(smallFleet(2, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallFleet(2, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different fleet results")
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("identical seeds produced different serialized results")
	}
	c, err := Run(smallFleet(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fleet results")
	}
}

// TestFleetAccounting checks conservation: issued = done + backlog, on
// every machine and for every tenant, and the dispatcher touched every
// machine.
func TestFleetAccounting(t *testing.T) {
	r, err := Run(smallFleet(3, 11))
	if err != nil {
		t.Fatal(err)
	}
	var totIssued, totDone uint64
	for _, m := range r.PerMachine {
		if m.Issued != m.Done+m.Backlog {
			t.Errorf("machine %d: issued %d != done %d + backlog %d", m.Machine, m.Issued, m.Done, m.Backlog)
		}
		if m.Issued == 0 {
			t.Errorf("machine %d received no requests", m.Machine)
		}
		totIssued += m.Issued
		totDone += m.Done
	}
	if totIssued != totDone+r.Backlog {
		t.Errorf("fleet: issued %d != done %d + backlog %d", totIssued, totDone, r.Backlog)
	}
	var tenIssued uint64
	for _, ten := range r.PerTenant {
		if ten.Recorded > ten.Done {
			t.Errorf("tenant %s: recorded %d exceeds done %d", ten.Name, ten.Recorded, ten.Done)
		}
		tenIssued += ten.Issued
	}
	if tenIssued != totIssued {
		t.Errorf("tenant issued sum %d != machine issued sum %d", tenIssued, totIssued)
	}
	if r.GoodputQPS <= 0 || r.P99 <= 0 {
		t.Errorf("degenerate fleet stats: goodput %.0f p99 %v", r.GoodputQPS, r.P99)
	}
	if r.P50 > r.P99 || r.P99 > r.P999 || r.P999 > r.Max {
		t.Errorf("percentiles out of order: p50 %v p99 %v p999 %v max %v", r.P50, r.P99, r.P999, r.Max)
	}
}

// TestFleetOpenLoopOverload pins the open-loop property: offered load far
// beyond capacity keeps arriving, so the backlog grows and goodput
// saturates below offered — the run must NOT degenerate into a closed
// loop where arrivals politely wait.
func TestFleetOpenLoopOverload(t *testing.T) {
	cfg := smallFleet(1, 5)
	cfg.QPS = 400000 // far beyond one 4-core machine
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.GoodputQPS >= 0.80*cfg.QPS {
		t.Errorf("goodput %.0f suspiciously close to impossible offered %.0f", r.GoodputQPS, cfg.QPS)
	}
	if r.Backlog < 100 {
		t.Errorf("overloaded fleet backlog %d, want a growing queue", r.Backlog)
	}
	if r.SLOMet(10 * sim.Second) {
		t.Error("saturated fleet must fail any SLO via the goodput guard")
	}
}

// TestFleetVBBWDBeatsVanilla reproduces the capacity headline on one
// machine: with co-located batch compute, VB+BWD's tail is several times
// lower than vanilla's at equal load, which is why it meets the SLO with
// fewer machines.
func TestFleetVBBWDBeatsVanilla(t *testing.T) {
	base := FleetConfig{
		Machines: 1,
		QPS:      50000,
		Duration: 500 * sim.Millisecond,
		Seed:     11,
	}
	van, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	both := base
	both.Machine = MachineConfig{Feat: sched.Features{VB: true}, Detect: bwd.ModeBWD}
	vb, err := Run(both)
	if err != nil {
		t.Fatal(err)
	}
	if vb.P99 >= van.P99 {
		t.Errorf("vb+bwd p99 %v not below vanilla %v", vb.P99, van.P99)
	}
	if vb.P99*2 >= van.P99 {
		t.Errorf("vb+bwd p99 %v less than 2x below vanilla %v — calibration drifted", vb.P99, van.P99)
	}
}

// TestFleetWarmupExcluded checks warmup completions are served but not
// recorded.
func TestFleetWarmupExcluded(t *testing.T) {
	cfg := smallFleet(1, 3)
	cfg.Warmup = 100 * sim.Millisecond // half the run
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var done, recorded uint64
	for _, ten := range r.PerTenant {
		done += ten.Done
		recorded += ten.Recorded
	}
	if recorded >= done {
		t.Errorf("recorded %d should be well below done %d with a 50%% warmup", recorded, done)
	}
	if recorded == 0 {
		t.Error("nothing recorded after warmup")
	}
}

// TestFleetArrivalKinds runs each arrival process end to end; equal mean
// rate, different burstiness, all deterministic.
func TestFleetArrivalKinds(t *testing.T) {
	var p99s []sim.Duration
	for _, kind := range ArrivalKinds() {
		cfg := smallFleet(2, 9)
		cfg.Arrival = kind
		// Long enough to average over MMPP dwells and a full diurnal
		// period; a short window would legitimately catch one regime.
		cfg.Duration = 1200 * sim.Millisecond
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		off := r.GoodputQPS / cfg.QPS
		if off < 0.7 || off > 1.3 {
			t.Errorf("%s: goodput %.0f far from offered %.0f", kind, r.GoodputQPS, cfg.QPS)
		}
		p99s = append(p99s, r.P99)
	}
	// The bursty process must stress the tail harder than the smooth one.
	if p99s[1] <= p99s[0] {
		t.Errorf("mmpp p99 %v not above poisson p99 %v", p99s[1], p99s[0])
	}
}

// TestFleetConfigErrors pins input validation.
func TestFleetConfigErrors(t *testing.T) {
	cfg := smallFleet(1, 1)
	cfg.Policy = "nope"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown policy accepted")
	}
	cfg = smallFleet(1, 1)
	cfg.Arrival = "nope"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown arrival process accepted")
	}
	cfg = smallFleet(1, 1)
	cfg.Tenants = []TenantSpec{{Name: "zero", Share: 0}}
	if _, err := Run(cfg); err == nil {
		t.Error("zero tenant share accepted")
	}
}

// TestRunReleasesThreadGoroutines: Run stops the simulated threads still
// parked at the horizon, so a process that runs many fleets does not
// accumulate their coroutines (and with them every fleet's kernels).
func TestRunReleasesThreadGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		cfg := smallFleet(2, uint64(i+1))
		cfg.Duration = 20 * sim.Millisecond
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 4 fleets, %d before: parked threads leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
