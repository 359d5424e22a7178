#!/bin/sh
# ci.sh — the repo's gate: formatting, vet, simlint, build, tests, the race
# detector (the runner fans simulation runs across OS threads, so every
# test also runs under -race), and a determinism smoke test proving that a
# parallel experiment fleet is byte-identical to a serial one, and a
# results oracle: every committed results/*.txt regenerates byte for byte.
# One benchmark pass at the golden seed checks every workload cell's
# output digest against benchmark/testdata/golden.json.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

detdir=$(mktemp -d)
trap 'rm -rf "$detdir"' EXIT

echo "== simlint =="
# The determinism contract, machine-checked: no wall-clock reads, global
# math/rand, map iteration, multi-case selects, or goroutines in the
# simulated kernel; no time-domain mixing, mixed atomics, or unthreaded
# engine seeds; no package state shared across concurrent engines, tainted RNG seeds,
# allocations on //simlint:hotpath functions, inexhaustive enum switches,
# or inline schema tags. See DESIGN.md "Determinism rules" and "Analyzer
# architecture". The tree must be clean with every pass enabled.
go build -o "$detdir/simlint" ./cmd/simlint
"$detdir/simlint" ./...
echo "clean."

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

echo "== determinism smoke: parallel == serial =="
# The same quick experiments, serial (-jobs 1) and parallel (-jobs 8); the
# rendered outputs must be byte-identical.
go build -o "$detdir/hpdc21" ./cmd/hpdc21
"$detdir/hpdc21" -quick -jobs 1 fig2 fig9 tab2 fleet >"$detdir/serial.txt" 2>/dev/null
"$detdir/hpdc21" -quick -jobs 8 fig2 fig9 tab2 fleet >"$detdir/parallel.txt" 2>/dev/null
if ! cmp -s "$detdir/serial.txt" "$detdir/parallel.txt"; then
    echo "determinism smoke FAILED: parallel output differs from serial" >&2
    diff "$detdir/serial.txt" "$detdir/parallel.txt" >&2 || true
    exit 1
fi
echo "parallel output byte-identical to serial."

echo "== results oracle: committed results regenerate byte for byte =="
# Every full-scale experiment must reproduce its committed results/*.txt
# exactly: the model's outputs are part of the tree, so a change that
# moves a figure must regenerate and commit it.
if ! "$detdir/hpdc21" -jobs 8 -out "$detdir/results" all >/dev/null 2>"$detdir/results.err"; then
    echo "results oracle FAILED: an experiment failed" >&2
    cat "$detdir/results.err" >&2
    exit 1
fi
for f in results/*.txt "$detdir"/results/*.txt; do
    name=$(basename "$f")
    if ! cmp -s "results/$name" "$detdir/results/$name"; then
        echo "results oracle FAILED: $name differs from (or is missing in) results/" >&2
        diff "results/$name" "$detdir/results/$name" >&2 || true
        exit 1
    fi
done
echo "all results/*.txt regenerate byte-identical."

echo "== trace smoke: oracle + summary determinism =="
# A quick traced workload runs through the trace-invariant oracle (hpdc21
# run exits nonzero on any lifecycle violation), and two identical-seed
# runs must produce byte-identical analytics summaries.
"$detdir/hpdc21" run -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
    -trace "$detdir/trace1.txt" -trace-format summary >/dev/null
"$detdir/hpdc21" run -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
    -trace "$detdir/trace2.txt" -trace-format summary >/dev/null
if ! cmp -s "$detdir/trace1.txt" "$detdir/trace2.txt"; then
    echo "trace smoke FAILED: identical seeds produced different summaries" >&2
    diff "$detdir/trace1.txt" "$detdir/trace2.txt" >&2 || true
    exit 1
fi
echo "trace oracle clean; summary byte-identical across identical seeds."

echo "== policy smoke: policy x feature matrix, oracle + determinism =="
# Every scheduling policy runs the headline workload under every feature
# cell with full tracing — hpdc21 run validates each stream against the
# trace-invariant oracle and exits nonzero on any lifecycle violation —
# and each policy's repetition batch must be byte-identical between a
# serial (-jobs 1) and a parallel (-jobs 8) pool.
for pol in cfs edf shinjuku oracle; do
    for feat in "" "-vb" "-bwd" "-vb -bwd"; do
        # shellcheck disable=SC2086 -- $feat is a flag list, split wanted
        "$detdir/hpdc21" run -bench streamcluster -threads 16 -cores 4 $feat \
            -scale 0.05 -policy "$pol" \
            -trace "$detdir/poltrace.txt" -trace-format summary >/dev/null
    done
    "$detdir/hpdc21" run -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
        -policy "$pol" -reps 4 -jobs 1 >"$detdir/pol-$pol-serial.txt"
    "$detdir/hpdc21" run -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
        -policy "$pol" -reps 4 -jobs 8 >"$detdir/pol-$pol-par.txt"
    if ! cmp -s "$detdir/pol-$pol-serial.txt" "$detdir/pol-$pol-par.txt"; then
        echo "policy smoke FAILED: $pol parallel reps differ from serial" >&2
        diff "$detdir/pol-$pol-serial.txt" "$detdir/pol-$pol-par.txt" >&2 || true
        exit 1
    fi
done
echo "all policies oracle-clean on every feature cell; reps byte-identical across pool widths."

echo "== metrics smoke: time-series determinism =="
# Two identical-seed runs with the time-series sampler attached must
# export byte-identical series, as a summary and as the
# oversub-metrics/v1 JSON document: sampling is driven purely by sim time
# and the export is a pure function of the sample stream.
for format in summary json; do
    for n in 1 2; do
        "$detdir/hpdc21" run -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
            -metrics "$detdir/metrics$n.$format" -metrics-format "$format" >/dev/null
    done
    if ! cmp -s "$detdir/metrics1.$format" "$detdir/metrics2.$format"; then
        echo "metrics smoke FAILED: identical seeds produced different $format series" >&2
        diff "$detdir/metrics1.$format" "$detdir/metrics2.$format" >&2 || true
        exit 1
    fi
done
echo "metrics summary and JSON byte-identical across identical seeds."

echo "== event-queue fuzz oracle: seed corpus =="
# The differential heap oracle (internal/sim/heapfuzz_test.go) replays its
# checked-in seed corpus: the engine's pooled 4-ary-heap/FIFO-ring queue
# must fire byte-identically to a naive sorted-slice model on every
# schedule/cancel/rearm/run interleaving. (Open-ended fuzzing is a local
# tool: go test ./internal/sim -fuzz FuzzEngineDifferential.)
go test ./internal/sim -run FuzzEngineDifferential -count=1 >/dev/null
echo "fuzz seed corpus clean."

echo "== alloc gate: steady state is allocation-free =="
# The AllocsPerRun pins must hold (pooled schedule/cancel, closure-free
# schedule/fire, both rearm shapes, the proc Switch/Park round trip, a Run
# completed in place without either), and the end-to-end kernel sleep ->
# timer-wake -> dispatch cycle must report 0 allocs/op. A trace ring
# allocates what it records, not its capacity.
go test ./internal/sim -run 'TestRearmZeroAlloc|TestFreeListZeroAlloc|TestProcSwitchZeroAlloc' -count=1 >/dev/null
go test ./internal/sched -run 'TestRunInPlaceZeroAlloc' -count=1 >/dev/null
go test ./internal/trace -run 'TestRingAllocatesWhatItRecords' -count=1 >/dev/null
go test ./internal/sched -run '^$' -bench BenchmarkKernelWakeDispatch \
    -benchtime 2000x -benchmem >"$detdir/wakebench.txt"
if ! grep -Eq '[[:space:]]0 allocs/op' "$detdir/wakebench.txt"; then
    echo "alloc gate FAILED: kernel wake-dispatch cycle allocates" >&2
    cat "$detdir/wakebench.txt" >&2
    exit 1
fi
echo "zero-alloc pins hold; wake dispatch at 0 allocs/op."

echo "== fleet smoke: schema + cross-pool determinism =="
# A small fleet capacity sweep runs twice — serial and parallel — with
# identical seeds; the rendered table and the oversub-fleet/v1 JSON report
# must be byte-identical, and the report must carry the schema tag (the
# CLI validates the envelope before writing and exits nonzero otherwise).
"$detdir/hpdc21" run -fleet 1,2 -fleet-qps 20000 -fleet-duration 200 \
    -fleet-policies jsq -fleet-variants vanilla,vb+bwd -seed 11 -jobs 1 \
    -fleet-out "$detdir/fleet1.json" | grep -v '^wrote ' >"$detdir/fleet1.txt"
"$detdir/hpdc21" run -fleet 1,2 -fleet-qps 20000 -fleet-duration 200 \
    -fleet-policies jsq -fleet-variants vanilla,vb+bwd -seed 11 -jobs 8 \
    -fleet-out "$detdir/fleet2.json" | grep -v '^wrote ' >"$detdir/fleet2.txt"
if ! cmp -s "$detdir/fleet1.txt" "$detdir/fleet2.txt"; then
    echo "fleet smoke FAILED: parallel table differs from serial" >&2
    diff "$detdir/fleet1.txt" "$detdir/fleet2.txt" >&2 || true
    exit 1
fi
if ! cmp -s "$detdir/fleet1.json" "$detdir/fleet2.json"; then
    echo "fleet smoke FAILED: parallel JSON report differs from serial" >&2
    diff "$detdir/fleet1.json" "$detdir/fleet2.json" >&2 || true
    exit 1
fi
if ! grep -q '"schema": "oversub-fleet/v1"' "$detdir/fleet1.json"; then
    echo "fleet smoke FAILED: report missing oversub-fleet/v1 schema tag" >&2
    exit 1
fi
echo "fleet report schema-tagged and byte-identical across pool widths."

echo "== blame smoke: exactness oracle + determinism =="
# Blame attribution runs through the exactness oracle (every thread's and
# request's components must sum to its span — hpdc21 run exits nonzero
# on any violation), and two identical-seed runs must render
# byte-identical blame tables: once on a single traced machine, once
# across a traced fleet with per-machine and merged rows.
"$detdir/hpdc21" run -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
    -blame "$detdir/blame1.txt" >/dev/null
"$detdir/hpdc21" run -bench streamcluster -threads 16 -cores 4 -vb -scale 0.05 \
    -blame "$detdir/blame2.txt" >/dev/null
if ! cmp -s "$detdir/blame1.txt" "$detdir/blame2.txt"; then
    echo "blame smoke FAILED: identical seeds produced different blame tables" >&2
    diff "$detdir/blame1.txt" "$detdir/blame2.txt" >&2 || true
    exit 1
fi
for n in 1 2; do
    "$detdir/hpdc21" run -fleet 1 -fleet-qps 20000 -fleet-duration 100 \
        -fleet-policies rr -fleet-variants vanilla \
        -blame "$detdir/fblame$n.txt" >/dev/null
done
if ! cmp -s "$detdir/fblame1.txt" "$detdir/fblame2.txt"; then
    echo "blame smoke FAILED: identical-seed fleet blame tables differ" >&2
    diff "$detdir/fblame1.txt" "$detdir/fblame2.txt" >&2 || true
    exit 1
fi
echo "blame oracle clean; tables byte-identical across identical seeds."

echo "== diff gate: byte-empty on identical, schema-tagged on change =="
# The diff subcommand follows diff(1): identical artifacts must write
# zero bytes and exit 0 in both formats; a genuinely different pair must
# exit 1, and its JSON report must carry the oversub-diff/v1 schema tag.
"$detdir/hpdc21" diff -o "$detdir/d-same.txt" "$detdir/blame1.txt" "$detdir/blame2.txt"
if [ -s "$detdir/d-same.txt" ]; then
    echo "diff gate FAILED: identical blame tables produced a non-empty report" >&2
    cat "$detdir/d-same.txt" >&2
    exit 1
fi
"$detdir/hpdc21" diff -format json -o "$detdir/d-same.json" \
    "$detdir/fleet1.json" "$detdir/fleet2.json"
if [ -s "$detdir/d-same.json" ]; then
    echo "diff gate FAILED: identical fleet reports produced a non-empty report" >&2
    cat "$detdir/d-same.json" >&2
    exit 1
fi
# Same workload without -vb: a real behavioural change the report must
# surface.
"$detdir/hpdc21" run -bench streamcluster -threads 16 -cores 4 -scale 0.05 \
    -blame "$detdir/blame3.txt" >/dev/null
rc=0
"$detdir/hpdc21" diff -format json -o "$detdir/d-changed.json" \
    "$detdir/blame1.txt" "$detdir/blame3.txt" || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "diff gate FAILED: differing blame tables exited $rc, want 1" >&2
    exit 1
fi
if ! grep -q '"schema": "oversub-diff/v1"' "$detdir/d-changed.json"; then
    echo "diff gate FAILED: report missing oversub-diff/v1 schema tag" >&2
    cat "$detdir/d-changed.json" >&2
    exit 1
fi
echo "identical artifacts diff byte-empty; changes exit 1 with a schema-tagged report."

echo "== benchmark module: vet + tests =="
# benchmark/ is its own module (it runs the repo's workloads from outside).
# Its tests run a -quick pass at seed 5, which exercises every workload
# and the report but reads no golden digest. As in benchmark/run.sh, the
# go command works on a private copy of benchmark/go.mod, which absorbs
# the update it needs when the simulator's go line is newer than the
# benchmark's, so the tracked file stays clean.
cp benchmark/go.mod "$detdir/bench.mod"
(cd benchmark &&
    go vet -mod=mod -modfile="$detdir/bench.mod" . &&
    go test -mod=mod -modfile="$detdir/bench.mod" -count=1 .)
echo "benchmark module clean."

echo "== benchmark golden digests: one pass at the golden seed =="
# The golden digests in benchmark/testdata/golden.json are read only by a
# full (not -quick) run at seed 1, so this step runs one: a change that
# alters what any benchmark cell simulates or renders fails here, not
# only in a benchmark comparison. Every workload must report no failed
# cell and a golden match.
bash benchmark/run.sh --seed 1 --passes 1 >"$detdir/bench.txt"
workloads=$(grep -c '^[a-z]*: [0-9]* cells x ' "$detdir/bench.txt" || true)
matched=$(grep -Ec '^[a-z]+: [0-9]+ cells x 1 passes, 0/[0-9]+ failed, golden match,' "$detdir/bench.txt" || true)
if [ "$workloads" -ne 4 ] || [ "$matched" -ne 4 ]; then
    echo "benchmark golden FAILED: want 4 workloads with 0 failed cells and a golden match" >&2
    cat "$detdir/bench.txt" >&2
    exit 1
fi
echo "all 4 benchmark workloads: 0 failed cells, golden match."

echo "CI passed."
