package main

import (
	"testing"

	"oversub"
)

// TestLockNamesBuildTheirLocks checks that every name the table prints
// builds the lock it names: each lock reports its own name, except the
// futex mutex, which lockbench lists as "mutex".
func TestLockNamesBuildTheirLocks(t *testing.T) {
	names := lockNames()
	if len(names) != 16 {
		t.Errorf("%d locks, want 16", len(names))
	}
	for _, name := range names {
		sys := oversub.NewSystem(oversub.SystemConfig{Cores: 2, Seed: 1})
		want := name
		if name == "mutex" {
			want = "pthread_mutex"
		}
		if got := makeLock(sys, name).Name(); got != want {
			t.Errorf("%s builds %s, want %s", name, got, want)
		}
	}
}
