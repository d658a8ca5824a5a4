package live

import "rdfsum/internal/obs"

// Process-wide hot-path timings. These live on obs.Default (not a
// per-store registry): the histograms are cumulative across every Live
// instance in the process, which is what a scrape wants, and the write
// side stays a single atomic add.
var (
	walAppendSeconds = obs.Default.Histogram("rdfsum_wal_append_seconds",
		"Time to frame and write one WAL batch, excluding fsync.", obs.DefBuckets)
	walFsyncSeconds = obs.Default.Histogram("rdfsum_wal_fsync_seconds",
		"Time in fsync for one WAL group commit.", obs.DefBuckets)
	epochPublishSeconds = obs.Default.Histogram("rdfsum_epoch_publish_seconds",
		"Time to build and install one epoch snapshot (delta/tombstone/compacted publish).", obs.DefBuckets)
	queueWaitSeconds = obs.Default.Histogram("rdfsum_ingest_queue_wait_seconds",
		"Time an admitted ingest batch waited for its turn to write.", obs.DefBuckets)
	queueDrainSeconds = obs.Default.Histogram("rdfsum_ingest_queue_drain_seconds",
		"Time spent applying one admitted ingest batch to the store.", obs.DefBuckets)
	plannerWeightsSeconds = obs.Default.Histogram("rdfsum_planner_weights_seconds",
		"Seconds each rebuild of the planner's weights (ComputeWeights over the weak summary) took; the count is the number of rebuilds.", obs.DefBuckets)
)
