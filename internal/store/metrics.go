package store

import "rdfsum/internal/obs"

// indexFoldSeconds times tiered-index run merges: the trailing folds of
// Applied. Process-wide (obs.Default) — folds are per-instance but the
// latency distribution is what a scrape wants.
var indexFoldSeconds = obs.Default.Histogram("rdfsum_index_fold_seconds",
	"Time merging tiered-index runs (trailing folds).", obs.DefBuckets)

// Snapshot v2 and index-spill observability. Process-wide (obs.Default):
// rdfsumd merges this registry into /v1/metrics.
var (
	snapshotSectionsVerified = obs.Default.Counter("rdfsum_snapshot_sections_verified_total",
		"Snapshot/run file sections whose CRC has been verified (lazily on first touch, or eagerly).")
	snapshotOpensV2 = obs.Default.Counter("rdfsum_snapshot_opens_v2_total",
		"Snapshot files opened in the v2 mapped format.")
	indexSpillRuns = obs.Default.Counter("rdfsum_index_spill_runs_total",
		"Tiered-index runs spilled to on-disk column format.")
	indexSpillBytes = obs.Default.Counter("rdfsum_index_spill_bytes_total",
		"Bytes written to on-disk spill runs.")
)
