package main

import (
	"strings"
	"testing"

	"oversub/internal/runner"
)

// TestFailedRunFailsItsExperiment pins that a panicking run is re-raised
// by wait, naming the run and its panic, instead of yielding a zero value
// that would render as a plausible row.
func TestFailedRunFailsItsExperiment(t *testing.T) {
	pool := runner.New(1)
	defer pool.Close()
	f := submit(&env{pool: pool}, "cell/boom", func() int { panic("kaboom") })
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), "cell/boom") || !runner.IsPanic(err) {
			t.Fatalf("wait re-raised %v, want the run's captured panic", err)
		}
	}()
	f.wait()
}
