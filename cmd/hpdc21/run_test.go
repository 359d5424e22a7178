package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oversub"
)

// TestRunRejectsConflictingFlags pins the run subcommand's usage errors:
// each combination exits 2 with a message on stderr, before any
// simulation runs or any artifact is written.
func TestRunRejectsConflictingFlags(t *testing.T) {
	dir := t.TempDir()
	art := filepath.Join(dir, "artifact")
	cases := []struct {
		name string
		args []string
	}{
		{"reps with trace", []string{"-bench", "streamcluster", "-reps", "2", "-trace", art}},
		{"blame with sweep", []string{"-bench", "streamcluster", "-blame", art, "-sweep"}},
		{"metrics with reps", []string{"-bench", "streamcluster", "-metrics", art, "-reps", "2"}},
		{"unknown trace format", []string{"-bench", "streamcluster", "-trace", art, "-trace-format", "xml"}},
		{"unknown policy", []string{"-bench", "streamcluster", "-policy", "fifo"}},
		{"multi-cell fleet with trace", []string{"-fleet", "1,2", "-trace", art}},
		{"memcached with sweep", []string{"-bench", "memcached", "-sweep"}},
		{"memcached with reps", []string{"-bench", "memcached", "-reps", "2"}},
		{"memcached with grow", []string{"-bench", "memcached", "-grow", "8"}},
		{"zero scale", []string{"-bench", "streamcluster", "-scale", "0"}},
		{"negative scale", []string{"-bench", "streamcluster", "-scale", "-1"}},
		{"negative fleet qps", []string{"-fleet", "1", "-fleet-qps", "-5"}},
		{"negative fleet duration", []string{"-fleet", "1", "-fleet-duration", "-10"}},
		{"negative fleet warmup", []string{"-fleet", "1", "-fleet-warmup", "-1"}},
		{"fleet warmup past duration", []string{"-fleet", "1", "-fleet-warmup", "900"}},
		{"unknown fleet policy", []string{"-fleet", "1", "-fleet-policies", "rr,nope"}},
		{"unknown fleet arrival", []string{"-fleet", "1", "-fleet-arrival", "nope"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := runMain(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty: %q", stdout.String())
			}
			if stderr.Len() == 0 {
				t.Error("no explanation on stderr")
			}
			if _, err := os.Stat(art); err == nil {
				t.Errorf("rejected run wrote %s", art)
			}
		})
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runMain([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0 (stderr %q)", code, stderr.String())
	}
	for _, want := range []string{"streamcluster", "memcached"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list output lacks %s:\n%s", want, stdout.String())
		}
	}
}

// TestEmitTraceTextMatchesWriteTo: the text export renders from the one
// snapshot emitTrace takes, and must stay byte-identical to Ring.WriteTo,
// dropped-events trailer included.
func TestEmitTraceTextMatchesWriteTo(t *testing.T) {
	for _, n := range []int{3, 10} {
		ring := oversub.NewTraceRing(4)
		for i := 0; i < n; i++ {
			ring.Trace(oversub.Time(i), 0, i, "spawn", 0)
		}
		path := filepath.Join(t.TempDir(), "trace.txt")
		var stderr bytes.Buffer
		if err := emitTrace(ring, path, "text", &stderr); err != nil {
			t.Fatalf("%d events: %v (stderr %q)", n, err, stderr.String())
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if _, err := ring.WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%d events: emitTrace text differs from Ring.WriteTo:\n%s\nwant:\n%s", n, got, want.Bytes())
		}
	}
}
