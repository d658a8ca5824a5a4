package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

func queueBatch(base, n int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://x/s%d", base+i)),
			P: rdf.NewIRI("http://x/p1"),
			O: rdf.NewIRI(fmt.Sprintf("http://x/o%d", base+i)),
		})
	}
	return out
}

func TestIngestQueueAppliesInOrder(t *testing.T) {
	l := New(store.NewGraph(), nil, nil)
	defer l.Close()
	q := NewIngestQueue(l, 8, 1<<20)
	defer q.Close()

	total := 0
	for i := 0; i < 10; i++ {
		applied, epoch, err := q.Add(queueBatch(i*5, 5), 100)
		if err != nil {
			t.Fatal(err)
		}
		if applied != 5 {
			t.Fatalf("batch %d: applied %d, want 5", i, applied)
		}
		if epoch == 0 {
			t.Fatalf("batch %d: commit reported epoch 0", i)
		}
		total += applied
	}
	removed, _, err := q.Delete(queueBatch(0, 5), 100)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 5 {
		t.Fatalf("delete removed %d, want 5", removed)
	}
	if got := l.Stats().Triples; got != uint64(total-removed) {
		t.Fatalf("store holds %d triples, want %d", got, total-removed)
	}
	st := q.Stats()
	if st.Depth != 0 || st.Bytes != 0 {
		t.Fatalf("idle queue reports occupancy %+v", st)
	}
}

func TestIngestQueueRejectsWhenFull(t *testing.T) {
	l := New(store.NewGraph(), nil, nil)
	defer l.Close()
	// Byte budget of 150: the second 100-byte batch must be refused
	// while the first is still in flight.
	q := NewIngestQueue(l, 8, 150)
	defer q.Close()

	// Hold the writer lock so the first batch cannot drain.
	l.mu.Lock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := q.Add(queueBatch(0, 5), 100); err != nil {
			t.Errorf("first batch: %v", err)
		}
	}()
	for q.Stats().Bytes == 0 {
		time.Sleep(time.Millisecond)
	}
	_, _, err := q.Add(queueBatch(100, 5), 100)
	if !errors.Is(err, ErrQueueFull) {
		l.mu.Unlock()
		t.Fatalf("saturated queue returned %v, want ErrQueueFull", err)
	}
	if got := q.Stats().Rejected; got != 1 {
		l.mu.Unlock()
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	l.mu.Unlock()
	wg.Wait()
}

func TestIngestQueueOversizedBatchWhenEmpty(t *testing.T) {
	l := New(store.NewGraph(), nil, nil)
	defer l.Close()
	q := NewIngestQueue(l, 4, 10) // 10-byte budget
	defer q.Close()
	applied, _, err := q.Add(queueBatch(0, 3), 1000)
	if err != nil {
		t.Fatalf("oversized batch on an empty queue must be admitted: %v", err)
	}
	if applied != 3 {
		t.Fatalf("applied %d, want 3", applied)
	}
}

func TestIngestQueueCloseDrains(t *testing.T) {
	l := New(store.NewGraph(), nil, nil)
	defer l.Close()
	q := NewIngestQueue(l, 32, 1<<20)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q.Add(queueBatch(i*10, 10), 50) //nolint:errcheck
		}(i)
	}
	wg.Wait()
	q.Close()
	if got := l.Stats().Triples; got != 80 {
		t.Fatalf("store holds %d triples after Close, want 80", got)
	}
	if _, _, err := q.Add(queueBatch(0, 1), 1); !errors.Is(err, errQueueClosed) {
		t.Fatalf("enqueue after Close returned %v", err)
	}
	q.Close() // idempotent
}

// TestIngestQueueHistogramsCountAdmittedBatches: every admitted Add or Delete
// adds exactly one sample to the wait and the drain histogram; a batch
// refused with ErrQueueFull adds none.
func TestIngestQueueHistogramsCountAdmittedBatches(t *testing.T) {
	l := New(store.NewGraph(), nil, nil)
	defer l.Close()
	q := NewIngestQueue(l, 1, 1<<20) // depth 1: a second batch in flight is refused
	defer q.Close()
	counts := func() (uint64, uint64) { return queueWaitSeconds.Count(), queueDrainSeconds.Count() }
	expect := func(what string, wait0, drain0, n uint64) {
		t.Helper()
		if wait, drain := counts(); wait != wait0+n || drain != drain0+n {
			t.Fatalf("%s: wait +%d, drain +%d samples, want +%d each", what, wait-wait0, drain-drain0, n)
		}
	}

	wait0, drain0 := counts()
	if _, _, err := q.Add(queueBatch(0, 5), 100); err != nil {
		t.Fatal(err)
	}
	expect("Add", wait0, drain0, 1)
	if _, _, err := q.Delete(queueBatch(0, 2), 40); err != nil {
		t.Fatal(err)
	}
	expect("Add then Delete", wait0, drain0, 2)

	// Hold the writer lock so one admitted batch stays in flight, and
	// refuse a second one behind it.
	wait0, drain0 = counts()
	l.mu.Lock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := q.Add(queueBatch(10, 5), 100); err != nil {
			t.Errorf("admitted batch: %v", err)
		}
	}()
	for q.Stats().Depth == 0 {
		time.Sleep(time.Millisecond)
	}
	_, _, err := q.Add(queueBatch(20, 5), 100)
	l.mu.Unlock()
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second batch in flight returned %v, want ErrQueueFull", err)
	}
	wg.Wait()
	expect("one admitted and one refused batch", wait0, drain0, 1)
}

// TestLiveIngestQueueBackpressureStress is the backpressure acceptance
// check, wired into `make stress`: many writers push batches into a
// deliberately small queue while readers hammer the published snapshot.
// Memory stays bounded (occupancy never exceeds the configured budgets),
// writers see ErrQueueFull rather than unbounded buffering, every batch
// that was accepted commits, and reads stay responsive throughout.
func TestLiveIngestQueueBackpressureStress(t *testing.T) {
	l := New(store.NewGraph(), nil, nil)
	defer l.Close()
	const (
		maxDepth = 4
		maxBytes = 4 * 1024
	)
	q := NewIngestQueue(l, maxDepth, maxBytes)

	var (
		accepted atomic.Uint64 // triples the queue admitted
		rejected atomic.Uint64
		reads    atomic.Uint64
	)
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := l.Snapshot()
				if snap == nil {
					t.Error("nil snapshot during saturation")
					return
				}
				snap.Graph.NumEdges()
				reads.Add(1)
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				batch := queueBatch((w*50+i)*10, 10)
				applied, _, err := q.Add(batch, 1024)
				switch {
				case errors.Is(err, ErrQueueFull):
					rejected.Add(1)
				case err != nil:
					t.Errorf("writer %d: %v", w, err)
					return
				default:
					if applied != len(batch) {
						t.Errorf("writer %d: applied %d, want %d", w, applied, len(batch))
					}
					accepted.Add(uint64(len(batch)))
				}
				st := q.Stats()
				if st.Depth > st.MaxDepth || st.Bytes > st.MaxBytes+1024 {
					t.Errorf("queue occupancy exceeded bounds: %+v", st)
				}
			}
		}(w)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	q.Close()

	if got := l.Stats().Triples; got != accepted.Load() {
		t.Fatalf("store holds %d triples, queue accepted %d", got, accepted.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("readers made no progress while the queue was saturated")
	}
	if st := q.Stats(); st.Rejected != rejected.Load() {
		t.Fatalf("queue counted %d rejections, writers saw %d", st.Rejected, rejected.Load())
	}
	t.Logf("accepted %d triples, rejected %d batches, served %d reads",
		accepted.Load(), rejected.Load(), reads.Load())
}
