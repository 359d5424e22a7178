// Command hpdc21 regenerates every table and figure of "Towards Exploiting
// CPU Elasticity via Efficient Thread Oversubscription" (HPDC '21) on the
// simulated kernel.
//
// Usage:
//
//	hpdc21 [flags] <experiment>...
//	hpdc21 all
//	hpdc21 run [flags]
//	hpdc21 diff [-format text|json] [-o file] <a> <b>
//
// Experiments: fig1 fig2 fig3 fig4 fig9 fig10 tab1 fig11 fig12 fig13 fig14
// tab2 tab3 fig15.
//
// Runs fan out across -jobs OS threads (every simulation run is an
// independent single-threaded engine), and results are merged back in
// submission order, so output is byte-identical to a serial run. Completed
// runs are cached under results/cache keyed by their full configuration;
// rerunning recomputes only what changed (-nocache to disable). Progress
// heartbeats go to stderr.
//
// The run subcommand (hpdc21 run -bench <name> | -fleet <list> [flags])
// executes one workload, a repetition batch, a sweep grid, or a fleet
// capacity sweep under a chosen kernel configuration, with optional
// trace, blame and metrics artifacts; hpdc21 run -list names the
// workloads. The diff subcommand (hpdc21 diff [-format text|json] <a> <b>)
// compares two run artifacts into an oversub-diff/v1 report with diff(1)
// exit codes: identical inputs produce no output and exit 0. -cpuprofile
// and -memprofile write pprof profiles of whatever the invocation ran.
//
// Absolute times are model outputs at a compressed scale (~1000x smaller
// problems than the paper's testbed); the comparisons of interest — who
// wins, by what factor, where crossovers fall — are what the tool reports.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"oversub"
	"oversub/internal/diff"
	"oversub/internal/runner"
)

type options struct {
	sharedFlags
	quick   bool
	outDir  string
	timeout time.Duration
}

// sharedFlags are the flags the experiment runner and `hpdc21 run` both
// take, registered by one helper so their names, defaults and meanings
// cannot drift apart.
type sharedFlags struct {
	seed       uint64
	scale      float64
	policy     string
	shards     int
	jobs       int
	cpuprofile string
	memprofile string
}

func (s *sharedFlags) register(fs *flag.FlagSet) {
	fs.Uint64Var(&s.seed, "seed", 1, "random seed")
	fs.Float64Var(&s.scale, "scale", 1.0, "work scale factor for suite benchmarks")
	fs.StringVar(&s.policy, "policy", "", "scheduling policy for every run: cfs, edf, shinjuku, or oracle (default cfs)")
	fs.IntVar(&s.shards, "shards", 0, "split each fleet run across this many concurrently executing shard engines (results stay byte-identical; 0/1 = serial)")
	fs.IntVar(&s.jobs, "jobs", 0, "parallel simulation runs (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&s.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	fs.StringVar(&s.memprofile, "memprofile", "", "write a pprof heap profile to this file on exit")
}

// validPolicy reports whether -policy names a known policy, explaining
// the rejection on w.
func (s *sharedFlags) validPolicy(w io.Writer) bool {
	if oversub.ValidPolicy(s.policy) {
		return true
	}
	fmt.Fprintf(w, "unknown -policy %q (want one of %v)\n", s.policy, oversub.PolicyNames())
	return false
}

type experiment struct {
	name  string
	title string
	run   func(e *env)
}

var experiments = []experiment{
	{"fig1", "Figure 1: oversubscription across the 32-benchmark suite", fig1},
	{"fig2", "Figure 2: direct cost of context switching", fig2},
	{"fig3", "Figure 3: interval between synchronizations", fig3},
	{"fig4", "Figure 4: indirect cost of context switches", fig4},
	{"fig9", "Figure 9: virtual blocking on blocking-synchronization benchmarks", fig9},
	{"fig10", "Figure 10: virtual blocking on pthreads primitives", fig10},
	{"tab1", "Table 1: runtime statistics under oversubscription", tab1},
	{"fig11", "Figure 11: runtime adaptation (CPU elasticity)", fig11},
	{"fig12", "Figure 12: memcached service metrics", fig12},
	{"fig13", "Figure 13: BWD applicability to various spinlocks", fig13},
	{"fig14", "Figure 14: BWD on user-customized spinning (lu, volrend)", fig14},
	{"tab2", "Table 2: BWD true-positive rate", tab2},
	{"tab3", "Table 3: BWD false-positive rate", tab3},
	{"fig15", "Figure 15: comparison with SHFLLOCK and spin-then-park locks", fig15},
	{"fleet", "Fleet capacity: machines needed to meet a p99 SLO, by kernel variant", fleet},
	{"policies", "Policy zoo: wake-to-dispatch latency across scheduling policies", policies},
	{"blame_policies", "Blame attribution: where request latency goes, by policy x kernel variant", blamePolicies},
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "diff":
			os.Exit(diff.Main("hpdc21", os.Args[2:], os.Stdout, os.Stderr))
		case "run":
			os.Exit(runMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	o := options{}
	var (
		nocache  bool
		cacheDir string
	)
	o.register(flag.CommandLine)
	flag.BoolVar(&o.quick, "quick", false, "reduced problem sizes for a fast pass")
	flag.StringVar(&o.outDir, "out", "", "also write each experiment's output to <dir>/<name>.txt")
	flag.DurationVar(&o.timeout, "timeout", 0, "per-run host wall-clock budget (0 = unbounded)")
	flag.BoolVar(&nocache, "nocache", false, "ignore and do not write the result cache")
	flag.StringVar(&cacheDir, "cache", filepath.Join("results", "cache"), "result cache directory")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if !o.validPolicy(os.Stderr) {
		os.Exit(2)
	}
	var selected []experiment
	if len(args) == 1 && args[0] == "all" {
		selected = experiments
	} else {
		for _, a := range args {
			found := false
			for _, e := range experiments {
				if e.name == a {
					selected = append(selected, e)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", a)
				os.Exit(2)
			}
		}
	}

	var cache *runner.Cache
	if !nocache {
		c, err := runner.OpenCache(cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hpdc21: cache disabled: %v\n", err)
		} else {
			cache = c
		}
	}
	pool := runner.New(o.jobs)
	rep := runner.StartReporter(pool, os.Stderr, 2*time.Second)
	os.Exit(func() int {
		defer pool.Close()
		defer rep.Stop()
		stopProf, err := startProfiles(o.cpuprofile, o.memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer stopProf()
		return runExperiments(selected, o, pool, cache)
	}())
}

// runExperiments renders every selected experiment into its own buffer on
// the shared pool (each experiment further fans its runs out on the same
// pool) and prints the buffers in selection order — parallel execution,
// byte-identical output. An experiment that fails is reported on stderr
// and skipped without stopping its siblings.
func runExperiments(selected []experiment, o options, pool *runner.Pool, cache *runner.Cache) int {
	bufs := make([]*bytes.Buffer, len(selected))
	futs := make([]*runner.Future, len(selected))
	for i, ex := range selected {
		ex := ex
		buf := &bytes.Buffer{}
		bufs[i] = buf
		futs[i] = pool.Submit(nil, runner.Job{Label: ex.name, Fn: func(context.Context) (any, error) {
			banner(buf, ex.title)
			ex.run(&env{o: o, out: buf, pool: pool, cache: cache})
			return nil, nil
		}})
	}
	exit := 0
	for i, ex := range selected {
		if r := futs[i].Wait(); r.Err != nil {
			fmt.Fprintf(os.Stderr, "hpdc21: experiment %s failed: %v\n", ex.name, r.Err)
			exit = 1
			continue
		}
		if err := emit(ex, o, bufs[i].Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
		}
	}
	if cache != nil {
		h, m := cache.Counts()
		fmt.Fprintf(os.Stderr, "hpdc21: cache %d hits, %d misses (%s)\n", h, m, cache.Dir())
	}
	return exit
}

// emit prints one experiment's rendered output and, under -out, tees it to
// <dir>/<name>.txt, creating the directory and naming the experiment and
// path in any error.
func emit(e experiment, o options, data []byte) error {
	os.Stdout.Write(data)
	if o.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("hpdc21: %s: create output directory %s: %w", e.name, o.outDir, err)
	}
	path := filepath.Join(o.outDir, e.name+".txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("hpdc21: %s: write output file %s: %w", e.name, path, err)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: hpdc21 [flags] <experiment>...|all\n")
	fmt.Fprintf(os.Stderr, "       hpdc21 run [flags]   (hpdc21 run -h lists them)\n")
	fmt.Fprintf(os.Stderr, "       hpdc21 diff [-format text|json] [-o file] <a> <b>\n\nexperiments:\n")
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-6s %s\n", e.name, e.title)
	}
	fmt.Fprintf(os.Stderr, "  %-6s %s\n", "run",
		"run one workload or fleet sweep under a chosen kernel configuration")
	fmt.Fprintf(os.Stderr, "  %-6s %s\n", "diff",
		"compare two run artifacts -> oversub-diff/v1 (exit 0 identical, 1 differs)")
	fmt.Fprintf(os.Stderr, "\nflags:\n")
	flag.PrintDefaults()
}

func banner(w io.Writer, title string) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", len(title)))
}
