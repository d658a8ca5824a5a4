package live

// IngestQueue is the server-side admission bound in front of the
// single-writer Live store. An HTTP ingest handler admits its parsed batch
// and then applies it on its own goroutine through AddBatch/DeleteBatch,
// so it gets back the applied count and epoch directly. Admitted batches
// take turns under one queue mutex; the store serializes its writers
// anyway, and the mutex only gives the two queue histograms their
// meanings: wait is admission to the writer's turn, drain is the apply
// call.
//
// The queue is bounded twice over: by batch count (depth) and by total
// admitted triple payload in bytes. When either bound would be exceeded
// Add and Delete fail fast with ErrQueueFull instead of letting writers
// pile up without limit — the HTTP layer turns that into 429 +
// Retry-After, keeping server memory bounded while reads stay responsive
// on the published snapshot. One exception keeps the system live: a
// batch larger than the whole byte budget is admitted when the queue is
// empty, otherwise it could never be ingested at all.

import (
	"errors"
	"sync"
	"time"

	"rdfsum/internal/rdf"
)

// ErrQueueFull is returned by Add and Delete when admitting the batch
// would exceed the queue's depth or byte budget.
var ErrQueueFull = errors.New("live: ingest queue full")

// errQueueClosed reports an enqueue after Close.
var errQueueClosed = errors.New("live: ingest queue closed")

// QueueStats is a point-in-time view of queue occupancy.
type QueueStats struct {
	Depth    int    // batches waiting or being applied
	MaxDepth int    // configured batch-count bound
	Bytes    int64  // payload bytes waiting or being applied
	MaxBytes int64  // configured byte budget
	Rejected uint64 // enqueues refused with ErrQueueFull (monotonic)
}

// IngestQueue bounds the ingest batches admitted into a Live store and
// applies them one at a time. Safe for concurrent use.
type IngestQueue struct {
	lv       *Live
	maxDepth int
	maxBytes int64

	mu       sync.Mutex
	depth    int
	bytes    int64
	rejected uint64
	closed   bool
	inflight sync.WaitGroup // admitted batches not yet applied

	writer sync.Mutex // held across one batch's apply call
}

// NewIngestQueue returns a queue of at most depth batches and maxBytes
// admitted payload bytes applying into lv. Non-positive bounds fall back
// to defaults (256 batches, 256 MiB).
func NewIngestQueue(lv *Live, depth int, maxBytes int64) *IngestQueue {
	if depth <= 0 {
		depth = 256
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &IngestQueue{lv: lv, maxDepth: depth, maxBytes: maxBytes}
}

// admit reserves queue capacity for a batch of the given size, or
// records a rejection.
func (q *IngestQueue) admit(bytes int64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errQueueClosed
	}
	// The empty-queue exception: an oversized batch is admitted alone so
	// it cannot be wedged out forever by the byte budget.
	over := q.depth >= q.maxDepth || q.bytes+bytes > q.maxBytes
	if over && !(q.depth == 0 && bytes > q.maxBytes) {
		q.rejected++
		return ErrQueueFull
	}
	q.depth++
	q.bytes += bytes
	// Registered under mu so Close observes either the reservation or
	// the closed flag — never a batch it would not wait for.
	q.inflight.Add(1)
	return nil
}

// enqueue admits the batch, waits for the writer's turn and applies it,
// returning the applied count and resulting epoch.
func (q *IngestQueue) enqueue(triples []rdf.Triple, bytes int64, del bool) (applied int, epoch uint64, err error) {
	if err := q.admit(bytes); err != nil {
		return 0, 0, err
	}
	defer q.inflight.Done()
	admitted := time.Now()
	q.writer.Lock()
	queueWaitSeconds.ObserveSince(admitted)
	tApply := time.Now()
	if del {
		applied, err = q.lv.DeleteBatch(triples)
	} else if err = q.lv.AddBatch(triples); err == nil {
		applied = len(triples)
	}
	if err == nil {
		epoch = q.lv.Epoch()
	}
	queueDrainSeconds.ObserveSince(tApply)
	q.writer.Unlock()
	q.mu.Lock()
	q.depth--
	q.bytes -= bytes
	q.mu.Unlock()
	return applied, epoch, err
}

// Add admits an addition batch of roughly bytes parsed payload and
// applies it. Returns ErrQueueFull without blocking when the queue is
// saturated.
func (q *IngestQueue) Add(triples []rdf.Triple, bytes int64) (int, uint64, error) {
	return q.enqueue(triples, bytes, false)
}

// Delete is Add for deletion batches; the count is the number of triple
// copies removed.
func (q *IngestQueue) Delete(triples []rdf.Triple, bytes int64) (int, uint64, error) {
	return q.enqueue(triples, bytes, true)
}

// Stats snapshots queue occupancy.
func (q *IngestQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{
		Depth:    q.depth,
		MaxDepth: q.maxDepth,
		Bytes:    q.bytes,
		MaxBytes: q.maxBytes,
		Rejected: q.rejected,
	}
}

// Close stops admitting new batches, waits for everything already
// admitted to commit, and returns. The Live store itself is not closed.
func (q *IngestQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.inflight.Wait()
}
