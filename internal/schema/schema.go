// Package schema is the registry of artifact schema tags — the "name/vN"
// version strings stamped into every JSON artifact the repo writes
// (metrics exports, fleet summaries, the hpdc21 result cache, diff
// reports).
//
// The schemalit analyzer forbids spelling these tags inline anywhere
// else in the module: a tag that exists in exactly one place cannot
// drift between a writer and its readers, and bumping a version is a
// one-line diff that moves every producer and consumer together. Bump a
// version whenever an artifact's shape or semantics change incompatibly;
// consumers reject tags they do not understand instead of misreading.
package schema

const (
	// MetricsV1 tags internal/metrics time-series exports.
	MetricsV1 = "oversub-metrics/v1"
	// FleetV1 tags internal/cluster fleet-simulation reports.
	FleetV1 = "oversub-fleet/v1"
	// HPDC21CacheV4 tags the cmd/hpdc21 experiment result cache.
	HPDC21CacheV4 = "hpdc21/v4"
	// DiffV1 tags internal/diff cross-run differential reports.
	DiffV1 = "oversub-diff/v1"
)
