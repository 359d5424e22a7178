package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"oversub/internal/bwd"
	"oversub/internal/metrics"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

// drivenFleet runs cfg's fleet to its horizon and renders everything the run
// observed: the fleet result (per-machine sched.Metrics and detector stats
// included), every machine's trace text and metrics series. A sentinel event
// at the horizon stops the engine, so both drivers execute the same events:
// eng.Run, which may fire compute completions in place, and a Step loop,
// which never does.
func drivenFleet(t *testing.T, cfg FleetConfig, step bool) (string, *sim.Engine) {
	t.Helper()
	cfg.defaults()
	rings := AttachTracers(&cfg, 1<<21)
	samplers := make([]*metrics.Sampler, cfg.Machines)
	cfg.SamplerFor = func(m int) sched.Sampler {
		samplers[m] = metrics.NewSampler(metrics.Config{})
		return samplers[m]
	}
	eng := sim.NewEngine(cfg.Seed*0x9E3779B97F4A7C15 + 0xF1EE7)
	f, err := buildFleet(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	f.start()
	done := false
	eng.At(f.end, func() {
		done = true
		eng.Stop()
	})
	if step {
		for !done && eng.Step() {
		}
	} else {
		eng.Run(0)
	}
	f.stop()
	res := f.collect()
	eng.Close()

	var b bytes.Buffer
	fmt.Fprintf(&b, "%+v\n", *res)
	for m := range rings {
		if rings[m].Dropped() > 0 {
			t.Fatalf("machine %d ring wrapped; grow the test ring", m)
		}
		if _, err := rings[m].WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if err := samplers[m].WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String(), eng
}

// TestInPlaceMatchesQueued is the differential oracle for in-place compute:
// every cell must observe byte-identical traces, metrics, detector stats and
// event counts whether its compute completions fire in place (eng.Run) or
// through the event queue (a Step loop). The BWD cell is the one that
// catches a missing SyncWindow guard: there a detector tick can resume a
// body whose next Run would otherwise move the clock before the tick reads
// its window.
func TestInPlaceMatchesQueued(t *testing.T) {
	cells := []struct {
		name string
		cfg  FleetConfig
	}{
		{"bwd-vb", FleetConfig{Machines: 1, Machine: MachineConfig{Feat: sched.Features{VB: true}, Detect: bwd.ModeBWD}}},
		{"bwd-vanilla", FleetConfig{Machines: 2, Machine: MachineConfig{Detect: bwd.ModeBWD}}},
		{"vb-smt", FleetConfig{Machines: 2, Machine: MachineConfig{SMT: 2, Feat: sched.Features{VB: true}}}},
		{"ple-vm", FleetConfig{Machines: 1, Machine: MachineConfig{Feat: sched.Features{VM: true}, Detect: bwd.ModePLE}}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.QPS, cfg.Duration, cfg.Seed = 30000*float64(cfg.Machines), 40*sim.Millisecond, 1
			ran, runEng := drivenFleet(t, cfg, false)
			stepped, stepEng := drivenFleet(t, cfg, true)
			if runEng.InPlace() == 0 {
				t.Fatal("eng.Run fired no compute in place; the fast path is not exercised")
			}
			if stepEng.InPlace() != 0 {
				t.Fatalf("a Step loop fired %d events in place", stepEng.InPlace())
			}
			if runEng.Executed() != stepEng.Executed() {
				t.Errorf("Executed: Run %d, Step %d", runEng.Executed(), stepEng.Executed())
			}
			if ran != stepped {
				a, b := strings.Split(ran, "\n"), strings.Split(stepped, "\n")
				for i := 0; i < len(a) && i < len(b); i++ {
					if a[i] != b[i] {
						t.Fatalf("line %d differs:\n Run:  %s\n Step: %s", i, a[i], b[i])
					}
				}
				t.Fatalf("outputs differ in length: Run %d lines, Step %d", len(a), len(b))
			}
			t.Logf("%d of %d events fired in place", runEng.InPlace(), runEng.Executed())
		})
	}
}
