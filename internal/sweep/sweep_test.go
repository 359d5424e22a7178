package sweep

import (
	"strings"
	"testing"

	"oversub/internal/runner"
	"oversub/internal/workload"
)

func smallGrid(t *testing.T) *Grid {
	t.Helper()
	return RunOn(serialPool(t), Config{
		Spec:     workload.Find("streamcluster"),
		Threads:  []int{8, 32},
		Cores:    []int{8},
		Variants: StandardVariants(),
		Seed:     1,
		Scale:    0.25,
	})
}

func TestSweepCoversGrid(t *testing.T) {
	g := smallGrid(t)
	if len(g.Cells) != 2*1*4 {
		t.Fatalf("cells = %d, want 8", len(g.Cells))
	}
	for _, c := range g.Cells {
		if c.Result.Err != nil {
			t.Errorf("%d/%d/%s failed: %v", c.Threads, c.Cores, c.Variant, c.Result.Err)
		}
	}
	if got := g.Variants(); len(got) != 4 || got[0] != "vanilla" {
		t.Errorf("Variants = %v", got)
	}
}

func TestSweepLookupAndSpeedup(t *testing.T) {
	g := smallGrid(t)
	if g.Lookup(8, 8, "vanilla") == nil || g.Lookup(99, 8, "vanilla") != nil {
		t.Error("Lookup wrong")
	}
	// At 32 threads on 8 cores, VB beats vanilla for streamcluster.
	if sp := g.Speedup(32, 8, "vanilla", "vb"); sp <= 1.0 {
		t.Errorf("vanilla/vb speedup = %.2f, want > 1", sp)
	}
	if sp := g.Speedup(32, 8, "vanilla", "missing"); sp != 0 {
		t.Errorf("missing variant speedup = %v, want 0", sp)
	}
}

func TestSweepBest(t *testing.T) {
	g := smallGrid(t)
	best := g.Best(32, 8)
	if best == nil {
		t.Fatal("no best cell")
	}
	if best.Variant == "vanilla" {
		t.Errorf("best at 32T/8c is vanilla; expected an optimized variant (got %s)", best.Variant)
	}
}

// serialPool returns a 1-wide pool, the strictly serial baseline: it
// starts no workers and runs every job on the waiting goroutine.
func serialPool(t *testing.T) *runner.Pool {
	p := runner.New(1)
	t.Cleanup(p.Close)
	return p
}

// TestSweepParallelIsByteIdenticalToSerial is the determinism contract of
// the runner's merge step: a representative sweep rendered after -jobs 8
// style execution must produce a byte-identical table to the serial
// -jobs 1 path.
func TestSweepParallelIsByteIdenticalToSerial(t *testing.T) {
	cfg := Config{
		Spec:     workload.Find("streamcluster"),
		Threads:  []int{8, 32},
		Cores:    []int{4, 8},
		Variants: StandardVariants(),
		Seed:     7,
		Scale:    0.15,
	}
	render := func(g *Grid) string {
		var sb strings.Builder
		if err := g.WriteTable(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	serial := render(RunOn(serialPool(t), cfg))
	p := runner.New(8)
	defer p.Close()
	if got := render(RunOn(p, cfg)); got != serial {
		t.Fatalf("-jobs 8 table differs from serial:\n--- serial ---\n%s--- jobs=8 ---\n%s", serial, got)
	}
}

func TestSweepWriteTable(t *testing.T) {
	g := smallGrid(t)
	var sb strings.Builder
	if err := g.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	outStr := sb.String()
	for _, want := range []string{"cores", "threads", "vanilla", "vb+bwd"} {
		if !strings.Contains(outStr, want) {
			t.Errorf("table missing %q:\n%s", want, outStr)
		}
	}
	if len(strings.Split(strings.TrimSpace(outStr), "\n")) != 3 {
		t.Errorf("table should have header + 2 rows:\n%s", outStr)
	}
}
