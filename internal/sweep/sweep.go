// Package sweep runs grids of benchmark configurations and organizes the
// results for comparison — the machinery behind "how does X scale across
// thread counts, core counts, and kernel features" questions that the
// paper's evaluation asks over and over.
package sweep

import (
	"context"
	"fmt"
	"io"
	"sort"

	"oversub/internal/runner"
	"oversub/internal/sched"
	"oversub/internal/sim"
	"oversub/internal/workload"
)

// Axis is one sweep dimension.
type Axis struct {
	// Name labels the dimension in output ("threads", "cores", ...).
	Name string
	// Values are the points swept.
	Values []int
}

// Variant is one kernel configuration under comparison.
type Variant struct {
	Label  string
	Feat   sched.Features
	Detect workload.Detection
	// Policy selects the scheduling policy ("" = cfs), so a sweep can
	// compare policies as variants the same way it compares features.
	Policy string
}

// StandardVariants returns the paper's four standard comparisons.
func StandardVariants() []Variant {
	return []Variant{
		{Label: "vanilla"},
		{Label: "pinned", Feat: sched.Features{Pinned: true}},
		{Label: "vb", Feat: sched.Features{VB: true}},
		{Label: "vb+bwd", Feat: sched.Features{VB: true}, Detect: workload.DetectBWD},
	}
}

// Config describes a sweep of one benchmark over threads x cores for a set
// of kernel variants.
type Config struct {
	Spec     *workload.Spec
	Threads  []int
	Cores    []int
	Variants []Variant
	Seed     uint64
	Scale    float64
	// Horizon bounds each run (0 = the workload default).
	Horizon sim.Duration
}

// Cell is one grid point's outcome.
type Cell struct {
	Threads int
	Cores   int
	Variant string
	Result  workload.Result
}

// Grid holds the full sweep outcome.
type Grid struct {
	Spec  string
	Cells []Cell
}

// RunOn executes the sweep with its grid cells fanned out as independent
// jobs on pool p (runner.New(1) runs them serially). Each cell constructs
// its own engine and kernel, and results are merged back in grid order, so
// the returned Grid is identical for every pool width. A cell whose run
// panics or is cancelled becomes a failed cell (non-nil Result.Err)
// instead of killing the sweep.
func RunOn(p *runner.Pool, cfg Config) *Grid {
	type point struct {
		th, co int
		v      Variant
	}
	var pts []point
	for _, th := range cfg.Threads {
		for _, co := range cfg.Cores {
			for _, v := range cfg.Variants {
				pts = append(pts, point{th, co, v})
			}
		}
	}
	jobs := make([]runner.Job, len(pts))
	for i, pt := range pts {
		jobs[i] = runner.Job{
			Label: fmt.Sprintf("%s/%dT/%dc/%s", cfg.Spec.Name, pt.th, pt.co, pt.v.Label),
			Fn: func(context.Context) (any, error) {
				return workload.Run(cfg.Spec, workload.RunConfig{
					Threads: pt.th, Cores: pt.co,
					Feat: pt.v.Feat, Detect: pt.v.Detect, Policy: pt.v.Policy,
					Seed: cfg.Seed, WorkScale: cfg.Scale,
					Horizon: cfg.Horizon,
				}), nil
			},
		}
	}
	results := make([]workload.Result, len(pts))
	for i, r := range p.Map(context.Background(), jobs) {
		if r.Err != nil {
			results[i] = workload.Result{
				Spec: cfg.Spec.Name, Threads: pts[i].th, Cores: pts[i].co, Err: r.Err,
			}
		} else {
			results[i] = r.Value.(workload.Result)
		}
	}
	g := &Grid{Spec: cfg.Spec.Name}
	for i, pt := range pts {
		g.Cells = append(g.Cells, Cell{Threads: pt.th, Cores: pt.co, Variant: pt.v.Label, Result: results[i]})
	}
	return g
}

// Lookup returns the cell for a grid point, or nil.
func (g *Grid) Lookup(threads, cores int, variant string) *Cell {
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Threads == threads && c.Cores == cores && c.Variant == variant {
			return c
		}
	}
	return nil
}

// Best returns the fastest completed variant at a grid point, or nil.
func (g *Grid) Best(threads, cores int) *Cell {
	var best *Cell
	for i := range g.Cells {
		c := &g.Cells[i]
		if c.Threads != threads || c.Cores != cores || c.Result.Err != nil {
			continue
		}
		if best == nil || c.Result.ExecTime < best.Result.ExecTime {
			best = c
		}
	}
	return best
}

// Speedup returns variant a's time divided by variant b's at a point
// (how much faster b is), or 0 if either is missing or failed.
func (g *Grid) Speedup(threads, cores int, a, b string) float64 {
	ca, cb := g.Lookup(threads, cores, a), g.Lookup(threads, cores, b)
	if ca == nil || cb == nil || ca.Result.Err != nil || cb.Result.Err != nil ||
		cb.Result.ExecTime == 0 {
		return 0
	}
	return float64(ca.Result.ExecTime) / float64(cb.Result.ExecTime)
}

// Variants lists the variant labels present, in first-seen order.
func (g *Grid) Variants() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range g.Cells {
		if !seen[c.Variant] {
			seen[c.Variant] = true
			out = append(out, c.Variant)
		}
	}
	return out
}

// points lists the distinct (threads, cores) pairs, sorted.
func (g *Grid) points() [][2]int {
	seen := map[[2]int]bool{}
	var out [][2]int
	for _, c := range g.Cells {
		p := [2]int{c.Threads, c.Cores}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][1] != out[j][1] {
			return out[i][1] < out[j][1]
		}
		return out[i][0] < out[j][0]
	})
	return out
}

// WriteTable renders the grid as an execution-time table (ms), one row per
// (cores, threads) point and one column per variant; failed runs print as
// "hang".
func (g *Grid) WriteTable(w io.Writer) error {
	vars := g.Variants()
	if _, err := fmt.Fprintf(w, "%-8s %-8s", "cores", "threads"); err != nil {
		return err
	}
	for _, v := range vars {
		if _, err := fmt.Fprintf(w, " %12s", v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, p := range g.points() {
		if _, err := fmt.Fprintf(w, "%-8d %-8d", p[1], p[0]); err != nil {
			return err
		}
		for _, v := range vars {
			cell := g.Lookup(p[0], p[1], v)
			s := "-"
			if cell != nil {
				if cell.Result.Err != nil {
					s = "hang"
				} else {
					s = fmt.Sprintf("%.1f", cell.Result.ExecTime.Millis())
				}
			}
			if _, err := fmt.Fprintf(w, " %12s", s); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
