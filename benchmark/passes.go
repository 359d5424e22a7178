package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"oversub"
	"oversub/internal/sim"
	"oversub/internal/trace"
)

// Pass kinds. Each pass runs in a fresh child process of the benchmark
// binary; the parent only spawns, reads and aggregates.
const (
	passTimed    = "timed"    // untraced: the end-to-end metrics
	passCounted  = "counted"  // a counting tracer on every kernel
	passProfiled = "profiled" // untraced under the CPU profiler
	passLayers   = "layers"   // per-layer microbenchmarks, no cells
)

// childEnv marks a process as a pass child. The benchmark binary reads its
// flags either way; the test binary needs it to route into the child.
const childEnv = "OVERSUB_BENCHMARK_CHILD"

// childTimeout bounds one child; a pass takes seconds.
const childTimeout = 150 * time.Second

type cellResult struct {
	ID     string `json:"id"`
	NS     int64  `json:"ns"`
	Digest string `json:"digest,omitempty"`
	Err    string `json:"err,omitempty"`
}

// passResult is the one JSON line a child prints when its pass ends.
type passResult struct {
	Kind          string        `json:"kind"`
	CalibrationMS float64       `json:"calibration_ms"`
	AllocMB       float64       `json:"alloc_mb"`
	PeakRSSMB     float64       `json:"peak_rss_mb"`
	Cells         []cellResult  `json:"cells,omitempty"`
	Counted       *countedStats `json:"counted,omitempty"`
	Values        []metricValue `json:"values,omitempty"` // host shares or layer costs
	SetupS        float64       `json:"-"`                // measured by the parent
}

// Scheduling-event kinds the counted pass tallies, in metric order.
var countedKinds = [...]trace.Kind{
	trace.Dispatch, trace.Enqueue, trace.Wake, trace.VWake, trace.Block,
	trace.VBlock, trace.Preempt, trace.Migrate, trace.BWD, trace.PLE,
	trace.SliceEnd,
}

// countedNames are the metric names of countedKinds.
var countedNames = [len(countedKinds)]string{
	"sched.dispatch", "sched.enqueue", "sched.wake", "sched.vwake", "sched.block",
	"sched.vblock", "sched.preempt", "sched.migrate", "sched.bwd_deschedule", "sched.ple_exit",
	"sched.slice_end",
}

// observer is the counted pass's sched.Tracer: it tallies events by kind
// and keeps nothing else.
type observer struct {
	kinds [len(countedKinds)]uint64
	total uint64
}

func (o *observer) Trace(_ sim.Time, _, _ int, kind string, _ int64) {
	o.total++
	for i, k := range countedKinds {
		if string(k) == kind {
			o.kinds[i]++
			return
		}
	}
}

// countedStats sums one counted pass: event counts from the observers and
// the result structs, plus the host times the derived metrics need. Every
// cell runs twice, with the observer and plain (exactly as in a timed
// pass); observed cells also time their fleet without any hooks.
type countedStats struct {
	Kinds       [len(countedKinds)]uint64 `json:"kinds"`
	TraceEvents uint64                    `json:"trace_events"`
	Events      uint64                    `json:"events"`
	SimNS       int64                     `json:"sim_ns"`
	FutexWaits  uint64                    `json:"futex_waits"`
	FutexWakes  uint64                    `json:"futex_wakes"`
	EpollWaits  uint64                    `json:"epoll_waits"`
	EpollPosts  uint64                    `json:"epoll_posts"`
	BWD         oversub.DetectorStats     `json:"bwd"`
	CountedNS   int64                     `json:"counted_ns"`
	PlainNS     int64                     `json:"plain_ns"`
	BareNS      int64                     `json:"bare_ns"`
	AnalysisNS  int64                     `json:"analysis_ns"`
	RingBytes   int64                     `json:"ring_bytes"`
	// Analyzed counts the events the observed cells' analysis walked.
	Analyzed uint64 `json:"analyzed"`
	Cells    int    `json:"cells"`
}

func (s *countedStats) add(c cellOut, o *observer, countedNS int64, plain cellOut, plainNS int64) {
	for i, n := range o.kinds {
		s.Kinds[i] += n
	}
	s.TraceEvents += o.total
	s.Events += c.events
	s.SimNS += c.simNS
	s.FutexWaits += c.futexWaits
	s.FutexWakes += c.futexWakes
	s.EpollWaits += c.epollWaits
	s.EpollPosts += c.epollPosts
	s.BWD.Windows += c.bwd.Windows
	s.BWD.Detections += c.bwd.Detections
	s.BWD.TruePositive += c.bwd.TruePositive
	s.BWD.FalsePositive += c.bwd.FalsePositive
	s.CountedNS += countedNS
	s.PlainNS += plainNS
	s.BareNS += c.bareNS
	s.AnalysisNS += plain.analysisNS
	s.RingBytes += c.ringBytes
	s.Analyzed += c.ringEvents
	s.Cells++
}

// runChild is a pass child: warm up, report ready, run the pass, print
// the result.
func runChild(kind, name string, seed uint64, quick bool, stdout io.Writer) error {
	res := passResult{Kind: kind}
	if kind == passLayers {
		fmt.Fprintln(stdout, "ready")
		var err error
		if res.Values, err = runLayers(quick); err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(res)
	}
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	cells := w.cells(seed, quick)
	warmed := map[int]bool{}
	for _, c := range cells {
		if !warmed[c.config] {
			warmed[c.config] = true
			_, _ = runCell(c, nil) // a failing configuration fails again, timed
		}
	}
	runtime.GC()
	fmt.Fprintln(stdout, "ready")

	res.CalibrationMS = calibrate()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	switch kind {
	case passTimed:
		res.Cells = runPass(cells, nil)
	case passCounted:
		res.Counted = &countedStats{}
		res.Cells = runPass(cells, res.Counted)
	case passProfiled:
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		res.Cells = runPass(cells, nil)
		pprof.StopCPUProfile()
		var err error
		if res.Values, err = hostShares(prof.Bytes()); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown pass kind %q", kind)
	}
	runtime.ReadMemStats(&after)
	res.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	res.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(stdout).Encode(res)
}

// runPass runs every cell once, in list order, timing each. A counted
// pass also reruns each cell plain; the two digests must agree.
func runPass(cells []cell, st *countedStats) []cellResult {
	out := make([]cellResult, len(cells))
	for i, c := range cells {
		var o *observer
		if st != nil {
			o = &observer{}
		}
		co, ns, err := timeCell(c, o)
		if err == nil && st != nil {
			plain, plainNS, perr := timeCell(c, nil)
			switch {
			case perr != nil:
				err = perr
			case plain.digest != co.digest:
				err = errors.New("the counting tracer changed the outcome")
			default:
				st.add(co, o, ns, plain, plainNS)
			}
		}
		out[i] = cellResult{ID: c.id, NS: ns, Digest: co.digest}
		if err != nil {
			out[i].Err = err.Error()
			out[i].Digest = ""
		}
	}
	return out
}

func timeCell(c cell, o *observer) (cellOut, int64, error) {
	start := time.Now() //simlint:allow walltime -- per-cell host time is the benchmark's measurement; never a simulation input
	co, err := runCell(c, o)
	return co, time.Since(start).Nanoseconds(), err //simlint:allow walltime -- per-cell host time is the benchmark's measurement; never a simulation input
}

// calibrate times fixed work outside the simulator: a diagnostic of host
// speed before the pass, never folded into a metric.
func calibrate() float64 {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	start := time.Now() //simlint:allow walltime -- host-speed calibration diagnostic
	for i := 0; i < 64; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	return float64(time.Since(start).Microseconds()) / 1000 //simlint:allow walltime -- host-speed calibration diagnostic
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// spawner starts pass children, one at a time.
type spawner struct {
	exe    string
	procs  int // GOMAXPROCS of every child
	seed   uint64
	quick  bool
	stderr io.Writer
}

// run starts one child and waits for it. Setup time runs from the start
// of the child process to its ready line, which it prints after warm-up
// and GC, just before its first timed cell.
func (s *spawner) run(ctx context.Context, kind, name string) (passResult, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{"-child", kind, "-seed", strconv.FormatUint(s.seed, 10)}
	if name != "" {
		args = append(args, "-workload", name)
	}
	if s.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, s.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(s.procs))
	cmd.Stderr = s.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return passResult{}, err
	}
	start := time.Now() //simlint:allow walltime -- set-up time of the child, an end-to-end metric
	if err := cmd.Start(); err != nil {
		return passResult{}, err
	}
	res, readErr := readChild(stdout, start)
	_, _ = io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return passResult{}, fmt.Errorf("%s pass of %q: %w", kind, name, err)
	}
	if readErr != nil {
		return passResult{}, fmt.Errorf("%s pass of %q: %w", kind, name, readErr)
	}
	return res, nil
}

func readChild(stdout io.Reader, start time.Time) (passResult, error) {
	var res passResult
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	if !sc.Scan() || sc.Text() != "ready" {
		return res, errors.New("child did not report ready")
	}
	setup := time.Since(start).Seconds() //simlint:allow walltime -- set-up time of the child, an end-to-end metric
	if !sc.Scan() {
		return res, errors.New("child printed no result")
	}
	if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
		return res, fmt.Errorf("child result: %w", err)
	}
	res.SetupS = setup
	return res, nil
}
