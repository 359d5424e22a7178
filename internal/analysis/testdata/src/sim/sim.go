// Package sim is a minimal stand-in for oversub/internal/sim, just enough
// surface for the analyzer fixtures to type-check. The analyzers match
// the package by name, so the stub exercises the same code paths as the
// real engine package.
package sim

// Time is a point in virtual time.
type Time int64

// Duration is a span of virtual time.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)
