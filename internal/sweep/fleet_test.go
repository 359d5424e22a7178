package sweep

import (
	"bytes"
	"testing"

	"oversub/internal/cluster"
	"oversub/internal/runner"
	"oversub/internal/sim"
)

func fleetSweepCfg() FleetSweep {
	return FleetSweep{
		Base: cluster.FleetConfig{
			QPS:      20000,
			Duration: 200 * sim.Millisecond,
			Seed:     7,
		},
		Machines: []int{1, 2},
		Policies: []string{"rr", "jsq"},
		Variants: []Variant{FleetVariants()[0], FleetVariants()[3]},
		SLO:      400 * sim.Microsecond,
	}
}

// TestRunFleetParallelMatchesSerial is the fleet determinism gate at the
// sweep layer: a work-stealing pool must produce a byte-identical report
// to a serial (1-wide) sweep.
func TestRunFleetParallelMatchesSerial(t *testing.T) {
	serial, err := RunFleetOn(serialPool(t), fleetSweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	pool := runner.New(4)
	defer pool.Close()
	parallel, err := RunFleetOn(pool, fleetSweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("parallel fleet sweep differs from serial")
	}
}

// TestRunFleetReport checks grid shape, defaults resolution in the
// header, and that the report validates.
func TestRunFleetReport(t *testing.T) {
	rep, err := RunFleetOn(serialPool(t), fleetSweepCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2*2*2 {
		t.Fatalf("got %d cells, want 8", len(rep.Cells))
	}
	if rep.Arrival != "poisson" || rep.WarmupMs <= 0 {
		t.Errorf("defaults not resolved into header: arrival=%q warmup=%.0f", rep.Arrival, rep.WarmupMs)
	}
	if len(rep.SLO) != 2*2 {
		t.Fatalf("got %d slo rows, want 4", len(rep.SLO))
	}
}

func TestFleetVariants(t *testing.T) {
	vs := FleetVariants()
	want := []string{"vanilla", "vb", "bwd", "vb+bwd"}
	if len(vs) != len(want) {
		t.Fatalf("got %d variants, want %d", len(vs), len(want))
	}
	for i, v := range vs {
		if v.Label != want[i] {
			t.Errorf("variant %d = %q, want %q", i, v.Label, want[i])
		}
	}
}
