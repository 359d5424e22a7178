// Command benchmark measures how fast the oversub simulator runs, end to
// end and layer by layer, on four workloads: blocking, preempt, fleet and
// observed. See README.md for the metrics, the workloads and the run
// protocol.
//
//	go run .                      # every workload, 5 interleaved passes each
//	go run . -workload fleet -seconds 20
//	go run . -trace 1             # per-layer metrics
//	go run . compare a1.json b1.json a2.json b2.json ...
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workloads []*workload
	seed      uint64
	passes    int
	seconds   float64
	quick     bool
}

// Adaptive pass counts (-seconds): never fewer than minPasses per
// workload, however slow a pass, nor more than maxPasses.
const (
	minPasses = 3
	maxPasses = 30
)

// goldenSeed is the seed the committed golden digests were taken at.
const goldenSeed = 1

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: blocking, preempt, fleet, observed or all")
	seed := fs.Uint64("seed", 1, "seed the cell seeds are drawn from")
	passes := fs.Int("passes", 5, "timed passes per workload")
	seconds := fs.Float64("seconds", 0, "if > 0, run timed passes until this many seconds are measured per workload (at least 3)")
	traceLevel := fs.Int("trace", 0, "1 = measure the per-layer metrics instead of the end-to-end ones")
	traced := fs.Bool("traced", false, "same as -trace 1")
	quick := fs.Bool("quick", false, "small cell lists, for tests")
	out := fs.String("out", "", "write the self-describing result to this JSON file")
	updateGolden := fs.Bool("update-golden", false, "rewrite testdata/golden.json from one pass at the golden seed")
	child := fs.String("child", "", "internal: run one pass of this kind and print its result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		if err := runChild(*child, *name, *seed, *quick, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark child: %v\n", err)
			return 1
		}
		return 0
	}

	opts := options{seed: *seed, passes: *passes, seconds: *seconds, quick: *quick}
	if *name == "all" {
		opts.workloads = workloads()
	} else if w := findWorkload(*name); w != nil {
		opts.workloads = []*workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if *updateGolden {
		if err := writeGolden(filepath.Join(benchDir(), "testdata", "golden.json")); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	sp := &spawner{exe: exe, procs: procs, seed: opts.seed, quick: opts.quick, stderr: stderr}
	res := &result{
		Schema:  resultSchema,
		Version: resultVersion,
		Seed:    opts.seed,
		Quick:   opts.quick,
		Traced:  *traceLevel == 1 || *traced,
		Host:    describeHost(procs),
	}
	var golden map[string]map[string]string
	if opts.seed == goldenSeed && !opts.quick {
		if golden, err = readGolden(filepath.Join(benchDir(), "testdata", "golden.json")); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if res.Traced {
		err = tracedRun(context.Background(), sp, opts, golden, res)
	} else {
		err = timedRun(context.Background(), sp, opts, golden, res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	for i := range res.Workloads {
		printWorkload(stdout, &res.Workloads[i])
	}
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if len(res.Workloads) == 1 {
		if err := printContract(stdout, &res.Workloads[0]); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return 0
}

// timedRun runs the timed passes, round-robin across workloads with the
// starting workload rotating each round, so a slow phase of the host hits
// every workload once.
func timedRun(ctx context.Context, sp *spawner, opts options, golden map[string]map[string]string, res *result) error {
	passes := make([][]passResult, len(opts.workloads))
	wantsMore := func(i int) bool {
		n := len(passes[i])
		if opts.seconds <= 0 {
			return n < opts.passes
		}
		if n < minPasses {
			return true
		}
		var spent float64
		for _, p := range passes[i] {
			for _, c := range p.Cells {
				spent += float64(c.NS) / 1e9
			}
		}
		return n < maxPasses && spent+spent/float64(n) <= opts.seconds
	}
	for round := 0; ; round++ {
		ran := false
		for j := range opts.workloads {
			i := (round + j) % len(opts.workloads)
			if !wantsMore(i) {
				continue
			}
			p, err := sp.run(ctx, passTimed, opts.workloads[i].name)
			if err != nil {
				return err
			}
			passes[i] = append(passes[i], p)
			ran = true
		}
		if !ran {
			break
		}
	}
	for i, w := range opts.workloads {
		cells := w.cells(opts.seed, opts.quick)
		wr := newWorkloadResult(w, cells, passes[i], goldenFor(golden, w.name))
		endToEnd(&wr, cells, passes[i])
		res.Workloads = append(res.Workloads, wr)
	}
	return nil
}

// tracedRun measures the per-layer metrics: one layers pass, then a
// counted and a profiled pass per workload.
func tracedRun(ctx context.Context, sp *spawner, opts options, golden map[string]map[string]string, res *result) error {
	layers, err := sp.run(ctx, passLayers, "")
	if err != nil {
		return err
	}
	for _, w := range opts.workloads {
		counted, err := sp.run(ctx, passCounted, w.name)
		if err != nil {
			return err
		}
		profiled, err := sp.run(ctx, passProfiled, w.name)
		if err != nil {
			return err
		}
		cells := w.cells(opts.seed, opts.quick)
		wr := newWorkloadResult(w, cells, []passResult{counted, profiled}, goldenFor(golden, w.name))
		wr.Metrics = perLayer(layers.Values, counted, profiled, w.name == "observed")
		res.Workloads = append(res.Workloads, wr)
	}
	return nil
}

// benchDir is the benchmark's own directory. The benchmark runs from the
// repository root (run.sh) or from its directory (go run ., go test).
func benchDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return "benchmark"
	}
	return "."
}

// describeHost records what the numbers depend on. The revision is read
// only inside a git checkout.
func describeHost(procs int) hostInfo {
	h := hostInfo{GOMAXPROCS: procs, NProc: runtime.NumCPU(), Go: runtime.Version(), Revision: "unknown"}
	root := filepath.Join(benchDir(), "..")
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return h
	}
	if rev, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Revision = strings.TrimSpace(string(rev))
	}
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
		h.Dirty = len(strings.TrimSpace(string(st))) > 0
	}
	return h
}

type goldenFile struct {
	Seed      uint64           `json:"seed"`
	Workloads []goldenWorkload `json:"workloads"`
}

type goldenWorkload struct {
	Name  string       `json:"name"`
	Cells []goldenCell `json:"cells"`
}

type goldenCell struct {
	ID     string `json:"id"`
	Digest string `json:"digest"`
}

// readGolden loads the golden digests, per workload and cell.
func readGolden(path string) (map[string]map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	if g.Seed != goldenSeed {
		return nil, fmt.Errorf("golden digests were taken at seed %d, want %d", g.Seed, goldenSeed)
	}
	out := map[string]map[string]string{}
	for _, w := range g.Workloads {
		out[w.Name] = map[string]string{}
		for _, c := range w.Cells {
			out[w.Name][c.ID] = c.Digest
		}
	}
	return out, nil
}

// goldenFor returns one workload's golden digests: nil when none apply,
// empty when the file lacks the workload (every cell then mismatches).
func goldenFor(golden map[string]map[string]string, name string) map[string]string {
	if golden == nil {
		return nil
	}
	if g, ok := golden[name]; ok {
		return g
	}
	return map[string]string{}
}

// writeGolden runs every full-size cell once at the golden seed, in this
// process, and records its digest.
func writeGolden(path string) error {
	g := goldenFile{Seed: goldenSeed}
	for _, w := range workloads() {
		gw := goldenWorkload{Name: w.name}
		for _, c := range w.cells(goldenSeed, false) {
			out, err := runCell(c, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", c.id, err)
			}
			gw.Cells = append(gw.Cells, goldenCell{ID: c.id, Digest: out.digest})
		}
		g.Workloads = append(g.Workloads, gw)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
