package cluster

// The sharded-execution differential battery: every output surface of a
// sharded fleet run — result JSON, report table and JSON, per-machine
// trace summaries, fleet blame tables, metrics exports — must be
// byte-identical to the serial run of the same configuration. The
// workload matrix lives in testdata/shard_corpus.json as a checked-in
// regression corpus; TestShardCorpusCoverage guards it against rot.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"oversub/internal/metrics"
	"oversub/internal/sched"
	"oversub/internal/sim"
	"oversub/internal/trace"
)

// loadShardCorpus reads the checked-in differential corpus. Each entry is
// a serializable FleetConfig (host-only fields like Shards and the
// observation hooks are json:"-" and stay zero).
func loadShardCorpus(t *testing.T) []FleetConfig {
	t.Helper()
	b, err := os.ReadFile("testdata/shard_corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []FleetConfig
	if err := json.Unmarshal(b, &cfgs); err != nil {
		t.Fatalf("corpus does not parse as []FleetConfig: %v", err)
	}
	if len(cfgs) < 4 {
		t.Fatalf("corpus has %d entries; the matrix needs at least 4", len(cfgs))
	}
	return cfgs
}

// resultBytes runs cfg at the given shard count and serializes the result.
func resultBytes(t *testing.T, cfg FleetConfig, shards int) []byte {
	t.Helper()
	cfg.Shards = shards
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardCorpusCoverage pins what the corpus must exercise, so future
// edits cannot quietly shrink the differential matrix: all three arrival
// processes, vanilla and VB and a detector, a heterogeneous-policy fleet,
// SMT, an uneven machines/shards split, and several fleet sizes.
func TestShardCorpusCoverage(t *testing.T) {
	cfgs := loadShardCorpus(t)
	arrivals := map[string]bool{}
	machines := map[int]bool{}
	var vb, det, hetero, smt, uneven bool
	for _, cfg := range cfgs {
		d := cfg.WithDefaults()
		a := d.Arrival
		if a == "" {
			a = "poisson"
		}
		arrivals[a] = true
		machines[d.Machines] = true
		vb = vb || d.Machine.Feat.VB
		det = det || d.Machine.Detect != 0
		hetero = hetero || len(d.MachinePolicies) > 1
		smt = smt || d.Machine.SMT > 1
		uneven = uneven || d.Machines%4 != 0
	}
	for _, a := range []string{"poisson", "mmpp", "diurnal"} {
		if !arrivals[a] {
			t.Errorf("corpus lost its %s arrival entry", a)
		}
	}
	if len(machines) < 3 {
		t.Errorf("corpus covers only %d fleet sizes, want >= 3", len(machines))
	}
	if !vb {
		t.Error("corpus lost its virtual-blocking entry")
	}
	if !det {
		t.Error("corpus lost its spin-detector entry")
	}
	if !hetero {
		t.Error("corpus lost its heterogeneous-policy entry")
	}
	if !smt {
		t.Error("corpus lost its SMT entry")
	}
	if !uneven {
		t.Error("corpus lost its uneven machines-per-shard entry")
	}
}

// TestShardedMatchesSerial is the core differential oracle: for every
// corpus entry, the sharded run's serialized FleetResult must be
// byte-identical to the serial run's at every shard count — including
// shards=1 (the explicit serial spelling) and a shard count above the
// machine count (clamped). Events is part of the serialization, so the
// de-duplicated executed-event merge is checked here too.
func TestShardedMatchesSerial(t *testing.T) {
	for ci, cfg := range loadShardCorpus(t) {
		serial := resultBytes(t, cfg, 0)
		for _, k := range []int{1, 2, 4, cfg.Machines + 3} {
			if got := resultBytes(t, cfg, k); !bytes.Equal(got, serial) {
				t.Errorf("corpus[%d] (%d machines, %s, seed %d): shards=%d diverged from serial\nserial:  %s\nsharded: %s",
					ci, cfg.Machines, cfg.Arrival, cfg.Seed, k, serial, got)
			}
		}
	}
}

// TestShardedReportMatchesSerial renders a two-cell fleet report from
// serial and sharded runs of the same sweep and byte-compares both the
// JSON envelope and the human table.
func TestShardedReportMatchesSerial(t *testing.T) {
	cfgs := loadShardCorpus(t)[:2]
	build := func(shards int) *Report {
		r := &Report{
			SchemaName: Schema,
			Arrival:    "mixed",
			QPS:        cfgs[0].QPS,
			SLOUs:      500,
			DurationMs: cfgs[0].Duration.Millis(),
			WarmupMs:   cfgs[0].WithDefaults().Warmup.Millis(),
			Seed:       cfgs[0].Seed,
		}
		for i, cfg := range cfgs {
			cfg.Shards = shards
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Cells = append(r.Cells, CellFor(res.Policy, fmt.Sprintf("v%d", i), res, 500*sim.Microsecond))
		}
		r.SLO = BuildSLO(r.Cells)
		return r
	}
	serial, sharded := build(0), build(4)
	var sj, kj, st, kt bytes.Buffer
	if err := serial.WriteJSON(&sj); err != nil {
		t.Fatal(err)
	}
	if err := sharded.WriteJSON(&kj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj.Bytes(), kj.Bytes()) {
		t.Errorf("sharded report JSON diverged from serial:\nserial:\n%s\nsharded:\n%s", sj.String(), kj.String())
	}
	if err := serial.WriteTable(&st); err != nil {
		t.Fatal(err)
	}
	if err := sharded.WriteTable(&kt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Bytes(), kt.Bytes()) {
		t.Errorf("sharded report table diverged from serial:\nserial:\n%s\nsharded:\n%s", st.String(), kt.String())
	}
}

// tracedRun executes cfg with every machine traced and returns the
// per-machine rendered trace summaries plus the fleet blame table.
func tracedRun(t *testing.T, cfg FleetConfig, shards int) ([][]byte, []byte) {
	t.Helper()
	cfg.Shards = shards
	rings := AttachTracers(&cfg, 1<<21)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	sums := make([][]byte, len(rings))
	for m, r := range rings {
		if r.Dropped() > 0 {
			t.Fatalf("machine %d ring wrapped (%d dropped); grow the test ring", m, r.Dropped())
		}
		var buf bytes.Buffer
		if err := trace.WriteSummary(&buf, r.Events(), r.Dropped()); err != nil {
			t.Fatal(err)
		}
		sums[m] = buf.Bytes()
	}
	var blame bytes.Buffer
	if err := trace.WriteFleetBlame(&blame, trace.CollectMachines(rings), cfg.TenantNames()); err != nil {
		t.Fatal(err)
	}
	return sums, blame.Bytes()
}

// TestShardedTraceMatchesSerial extends the differential to the trace
// pipeline: every machine's rendered trace summary and the aggregated
// fleet blame table must be byte-identical between serial and sharded
// execution of a traced fleet.
func TestShardedTraceMatchesSerial(t *testing.T) {
	cfg := loadShardCorpus(t)[0]
	serialSums, serialBlame := tracedRun(t, cfg, 0)
	shardSums, shardBlame := tracedRun(t, cfg, 3)
	for m := range serialSums {
		if len(serialSums[m]) == 0 {
			t.Fatalf("machine %d summary is empty: traced run recorded nothing", m)
		}
		if !bytes.Equal(serialSums[m], shardSums[m]) {
			t.Errorf("machine %d trace summary diverged under sharding:\nserial:\n%s\nsharded:\n%s",
				m, serialSums[m], shardSums[m])
		}
	}
	if !bytes.Equal(serialBlame, shardBlame) {
		t.Errorf("fleet blame table diverged under sharding:\nserial:\n%s\nsharded:\n%s", serialBlame, shardBlame)
	}
}

// sampledRun executes cfg with a metrics sampler on every machine and
// returns each machine's JSON and CSV exports.
func sampledRun(t *testing.T, cfg FleetConfig, shards int) [][]byte {
	t.Helper()
	cfg.Shards = shards
	n := cfg.WithDefaults().Machines
	samplers := make([]*metrics.Sampler, n)
	for m := range samplers {
		samplers[m] = metrics.NewSampler(metrics.Config{})
	}
	cfg.SamplerFor = func(m int) sched.Sampler { return samplers[m] }
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for m, s := range samplers {
		if s.Len() == 0 {
			t.Fatalf("machine %d sampler recorded nothing", m)
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		out[m] = buf.Bytes()
	}
	return out
}

// TestShardedMetricsMatchSerial extends the differential to the metrics
// subsystem: every machine's sampled time series must export byte-
// identically from serial and sharded runs, including the end-of-run
// partial-window flush (which reads the shard clock — all shard clocks
// must land exactly on the horizon for this to hold).
func TestShardedMetricsMatchSerial(t *testing.T) {
	cfg := loadShardCorpus(t)[1]
	serial := sampledRun(t, cfg, 0)
	sharded := sampledRun(t, cfg, 2)
	for m := range serial {
		if !bytes.Equal(serial[m], sharded[m]) {
			t.Errorf("machine %d metrics export diverged under sharding:\nserial:\n%s\nsharded:\n%s",
				m, serial[m], sharded[m])
		}
	}
}

// panicSampler panics on its first sample, naming its machine.
type panicSampler struct{ m int }

func (p panicSampler) SampleInterval() sim.Duration { return 100 * sim.Microsecond }

func (p panicSampler) Sample(*sched.Kernel, sim.Time) {
	panic(fmt.Sprintf("sampler panic on machine %d", p.m))
}

// TestShardedPanicPropagates: a panic on a shard engine must surface from
// Run rather than crash an anonymous goroutine, and when several shards
// fail, the lowest-index shard's panic is the one re-raised.
func TestShardedPanicPropagates(t *testing.T) {
	cfg := smallFleet(3, 5)
	cfg.Policy = "rr"
	cfg.Duration = 20 * sim.Millisecond
	cfg.Shards = 3
	cfg.SamplerFor = func(m int) sched.Sampler {
		if m == 0 {
			return nil
		}
		return panicSampler{m}
	}
	const want = "sampler panic on machine 1"
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want %q", r, want)
		}
	}()
	_, _ = Run(cfg)
}

// TestNonReplicableDispatcherFallsBack: jsq and ewma picks depend on
// completion feedback that only the owning shard observes, so sharding
// must silently fall back to serial — same bytes, no error — rather than
// let the replicas diverge.
func TestNonReplicableDispatcherFallsBack(t *testing.T) {
	for _, policy := range []string{"jsq", "ewma"} {
		cfg := smallFleet(3, 17)
		cfg.Policy = policy
		serial := resultBytes(t, cfg, 0)
		if got := resultBytes(t, cfg, 4); !bytes.Equal(got, serial) {
			t.Errorf("policy %s: sharded run diverged from serial instead of falling back", policy)
		}
	}
}

// TestEffectiveShards pins the shard-count resolution rules.
func TestEffectiveShards(t *testing.T) {
	cases := []struct {
		shards, machines int
		policy           string
		want             int
	}{
		{0, 4, "rr", 1},   // unset: serial
		{1, 4, "rr", 1},   // explicit serial
		{3, 4, "", 3},     // default dispatcher is replicable
		{4, 4, "rr", 4},   // one shard per machine
		{8, 4, "rr", 4},   // clamped to the machine count
		{4, 1, "rr", 1},   // single machine: nothing to shard
		{4, 4, "jsq", 1},  // stateful dispatcher: serial fallback
		{4, 4, "ewma", 1}, // stateful dispatcher: serial fallback
	}
	for _, c := range cases {
		cfg := FleetConfig{Machines: c.machines, Policy: c.policy, Shards: c.shards}
		if got := cfg.effectiveShards(); got != c.want {
			t.Errorf("effectiveShards(shards=%d machines=%d policy=%q) = %d, want %d",
				c.shards, c.machines, c.policy, got, c.want)
		}
	}
}

// TestShardedValidationMatchesSerial: invalid configurations must fail
// identically whether or not sharding is requested.
func TestShardedValidationMatchesSerial(t *testing.T) {
	bad := smallFleet(2, 1)
	bad.Policy = "rr"
	bad.Machine.SchedPolicy = "no-such-policy"
	_, serialErr := Run(bad)
	bad.Shards = 2
	_, shardErr := Run(bad)
	if serialErr == nil || shardErr == nil {
		t.Fatalf("invalid policy accepted: serial=%v sharded=%v", serialErr, shardErr)
	}
	if serialErr.Error() != shardErr.Error() {
		t.Errorf("serial and sharded runs reject differently:\nserial:  %v\nsharded: %v", serialErr, shardErr)
	}
}
