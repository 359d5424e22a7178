package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
