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
	f := submit(&env{pool: pool}, "cell/boom", func() (int, error) { panic("kaboom") })
	defer func() {
		err, _ := recover().(error)
		if err == nil || !strings.Contains(err.Error(), "cell/boom") || !runner.IsPanic(err) {
			t.Fatalf("wait re-raised %v, want the run's captured panic", err)
		}
	}()
	f.wait()
}

// TestFailedCellFailsItsExperiment pins that a cell whose trace ring
// wraps fails policies and blame_policies outright (exit 1, no table)
// instead of rendering a "failed" row or silently dropping the row.
func TestFailedCellFailsItsExperiment(t *testing.T) {
	defer func(n int) { completeStreamCap = n }(completeStreamCap)
	completeStreamCap = 64
	pool := runner.New(2)
	defer pool.Close()
	for _, ex := range experiments {
		if ex.name != "policies" && ex.name != "blame_policies" {
			continue
		}
		if code := runExperiments([]experiment{ex}, options{quick: true}, pool); code != 1 {
			t.Errorf("%s with wrapping rings exited %d, want 1", ex.name, code)
		}
	}
}
