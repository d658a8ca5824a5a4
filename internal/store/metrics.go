package store

import "rdfsum/internal/obs"

// indexFoldSeconds times tiered-index run merges: the trailing folds of
// Applied. Process-wide (obs.Default) — folds are per-instance but the
// latency distribution is what a scrape wants.
var indexFoldSeconds = obs.Default.Histogram("rdfsum_index_fold_seconds",
	"Time merging tiered-index runs (trailing folds).", obs.DefBuckets)

// Snapshot v2 observability. Process-wide (obs.Default):
// rdfsumd merges this registry into /v1/metrics.
var (
	snapshotSectionsVerified = obs.Default.Counter("rdfsum_snapshot_sections_verified_total",
		"Snapshot file sections whose CRC has been verified (every section, at each open that serves a snapshot).")
	snapshotChecksumFailures = obs.Default.CounterVec("rdfsum_snapshot_checksum_failures_total",
		"Snapshot sections whose bytes did not match their TOC checksum, at an open or when a write re-read them, by section.",
		"section")
	snapshotOpensV2 = obs.Default.Counter("rdfsum_snapshot_opens_v2_total",
		"Snapshot files opened in the v2 mapped format.")
)
