package live

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdfsum/internal/core"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// TestLiveCompactWritesV2: Compact rewrites the base snapshot in the v2
// container format, and a reopened store — with and without eager
// verification — serves the identical graph.
func TestLiveCompactWritesV2(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fed []rdf.Triple
	for i := 0; i < 4; i++ {
		b := mkBatch(i*100, 60)
		fed = append(fed, b...)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := store.InspectSnapshot(filepath.Join(dir, "snapshot-2.rdfsum"))
	if err != nil {
		t.Fatalf("InspectSnapshot: %v", err)
	}
	if info.Version != 2 {
		t.Fatalf("Compact wrote snapshot v%d, want v2", info.Version)
	}

	want := canonical(store.FromTriples(fed))
	for _, verify := range []bool{false, true} {
		l2, err := Open(dir, &Options{VerifySnapshot: verify})
		if err != nil {
			t.Fatalf("reopen (verify=%v): %v", verify, err)
		}
		if !reflect.DeepEqual(canonical(l2.Snapshot().Graph), want) {
			t.Fatalf("reopened store (verify=%v) diverges from the ingested triples", verify)
		}
		l2.Close()
	}
}

// TestLiveV2OpenLazy: with no maintained kinds, reopening a compacted
// store leaves the snapshot unmaterialized — the published graph still
// carries its mapped base — yet the index answers patterns exactly like a
// fully decoded store.
func TestLiveV2OpenLazy(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	fed := flatten([][]rdf.Triple{mkBatch(0, 200), mkBatch(300, 100)})
	if err := l.AddBatch(fed); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	// A post-compact tail exercises the base+tail index construction.
	tail := mkBatch(9000, 25)
	if err := l.AddBatch(tail); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := Open(dir, &Options{Maintain: []core.Kind{}})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap := l2.Snapshot()
	if snap.Graph.Base() == nil {
		t.Fatal("open with no maintained kinds materialized the snapshot")
	}
	oracle := store.FromTriples(append(append([]rdf.Triple(nil), fed...), tail...))
	wantScan := scanIndex(store.NewIndex(oracle))
	if got := scanIndex(snap.Index); !reflect.DeepEqual(got, wantScan) {
		t.Fatalf("lazily served index scan diverges: %d vs %d triples", len(got), len(wantScan))
	}
	// Summaries still come out bit-identical once something forces a build.
	liveSum, _, err := l2.Summary(core.Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := core.MustSummarize(oracle, core.Weak)
	if !reflect.DeepEqual(canonical(liveSum.Graph), canonical(batch.Graph)) {
		t.Fatal("summary over a lazily opened store diverges from batch summary")
	}
}

// TestLiveSpillOracle: a store with index spill enabled serves exactly
// the same index contents and summaries as one without, across ingest,
// deletes, compaction and reopen.
func TestLiveSpillOracle(t *testing.T) {
	dir := t.TempDir()
	open := func() *Live {
		l, err := Open(dir, &Options{IndexSpillBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := open()
	// The oracle is a memory-only live store fed the identical operation
	// sequence: same encode order, same dictionary IDs, no spill.
	mem := New(nil, nil)
	defer mem.Close()
	var fed []rdf.Triple
	for i := 0; i < 6; i++ {
		b := mkBatch(i*50, 40)
		fed = append(fed, b...)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := mem.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a slice of what was fed.
	dels := fed[10:30]
	if _, err := l.DeleteBatch(dels); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.DeleteBatch(dels); err != nil {
		t.Fatal(err)
	}
	surviving := append(append([]rdf.Triple(nil), fed[:10]...), fed[30:]...)

	want := scanIndex(mem.Snapshot().Index)
	if got := scanIndex(l.Snapshot().Index); !reflect.DeepEqual(got, want) {
		t.Fatal("spilling index diverges from memory oracle after deletes")
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "spill")); err != nil || len(ents) == 0 {
		t.Fatalf("expected spill files on disk, got %d (err %v)", len(ents), err)
	}
	// Building a summary allocates summary-node terms in the store's
	// dictionary, so the oracle must take the same step to keep the two ID
	// spaces aligned for the scans below.
	liveSum, _, err := l.Summary(core.Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mem.Summary(core.Weak, 0); err != nil {
		t.Fatal(err)
	}
	batch := core.MustSummarize(store.FromTriples(surviving), core.Weak)
	if !reflect.DeepEqual(canonical(liveSum.Graph), canonical(batch.Graph)) {
		t.Fatal("weak summary with spill enabled diverges from batch summary")
	}

	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the spill directory is rebuilt from scratch and the contents
	// still match.
	l2 := open()
	defer l2.Close()
	if got := scanIndex(l2.Snapshot().Index); !reflect.DeepEqual(got, want) {
		t.Fatal("spilling index diverges from memory oracle after reopen")
	}
	if err := l2.AddBatch(mkBatch(7000, 30)); err != nil {
		t.Fatal(err)
	}
	if err := mem.AddBatch(mkBatch(7000, 30)); err != nil {
		t.Fatal(err)
	}
	want2 := scanIndex(mem.Snapshot().Index)
	if got := scanIndex(l2.Snapshot().Index); !reflect.DeepEqual(got, want2) {
		t.Fatal("spilling index diverges from memory oracle after post-reopen ingest")
	}
}

// TestCompactFailureAfterPromotionKeepsBookmarks: with no maintained kind
// a reopened store's writer graph stays backed by the mapped snapshot
// until a compaction promotes it. A compaction that fails after that
// promotion must leave the publish bookmarks counting the promoted base:
// the next AddBatch publishes its own triples as the delta, not the
// whole base over again.
func TestCompactFailureAfterPromotionKeepsBookmarks(t *testing.T) {
	dir := t.TempDir()
	none := &Options{Maintain: []core.Kind{}}
	l, err := Open(dir, none)
	if err != nil {
		t.Fatal(err)
	}
	fed := mkBatch(0, 200)
	if err := l.AddBatch(fed); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	if l, err = Open(dir, none); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.graph().Base() == nil {
		t.Fatal("the reopened writer graph is already materialized: the test would prove nothing")
	}
	add := func(b []rdf.Triple) {
		t.Helper()
		fed = append(fed, b...)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		if snap := l.Snapshot(); snap.Index.Len() != snap.Graph.NumEdges() || snap.Index.Len() != len(fed) {
			t.Fatalf("index serves %d triples, graph holds %d, fed %d", snap.Index.Len(), snap.Graph.NumEdges(), len(fed))
		}
	}
	add(mkBatch(1000, 50))

	// The snapshot gets written (promoting the graph); creating the next
	// generation's WAL then fails, because its path is a directory.
	nextWAL := l.walPath(l.Stats().Gen + 1)
	if err := os.Mkdir(nextWAL, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err == nil {
		t.Fatal("Compact succeeded with a directory in place of the next WAL")
	}
	if l.graph().Base() != nil {
		t.Fatal("the failed compaction did not promote the graph: the test would prove nothing")
	}
	if err := os.Remove(nextWAL); err != nil {
		t.Fatal(err)
	}

	add(mkBatch(2000, 50))
	if err := l.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	add(mkBatch(3000, 10))
	if got, want := canonical(l.Snapshot().Graph), canonical(store.FromTriples(fed)); !reflect.DeepEqual(got, want) {
		t.Fatal("the store diverges from the triples fed")
	}
}

// failingSnapshotFile is a snapshot file whose k-th Write/WriteAt fails.
type failingSnapshotFile struct {
	*os.File
	ops, failAt *int
}

var errInjected = errors.New("injected write failure")

func (f failingSnapshotFile) Write(p []byte) (int, error) {
	if *f.ops++; *f.ops == *f.failAt {
		return 0, errInjected
	}
	return f.File.Write(p)
}

func (f failingSnapshotFile) WriteAt(p []byte, off int64) (int, error) {
	if *f.ops++; *f.ops == *f.failAt {
		return 0, errInjected
	}
	return f.File.WriteAt(p, off)
}

// TestSectionWriterFailsCleanLive: whichever write of a compaction's
// snapshot fails, Compact returns the error, the directory holds neither
// the next generation's snapshot nor its .tmp, and the store serves on.
func TestSectionWriterFailsCleanLive(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, &Options{Seed: store.FromTriples(mkBatch(0, 30000))})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var ops, failAt int
	defer func(orig func(string) (snapshotFile, error)) { createSnapshotFile = orig }(createSnapshotFile)
	createSnapshotFile = func(path string) (snapshotFile, error) {
		f, err := os.Create(path)
		return failingSnapshotFile{File: f, ops: &ops, failAt: &failAt}, err
	}

	for failAt = 1; ; failAt++ {
		ops = 0
		err := l.Compact()
		if ops < failAt {
			// The write finished before reaching operation failAt.
			if err != nil {
				t.Fatalf("unfailed Compact: %v", err)
			}
			break
		}
		if !errors.Is(err, errInjected) {
			t.Fatalf("operation %d failed, Compact returned %v", failAt, err)
		}
		next := l.snapshotPath(l.Stats().Gen + 1)
		for _, path := range []string{next, next + ".tmp"} {
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("operation %d failed: %s is left behind (stat: %v)", failAt, filepath.Base(path), err)
			}
		}
		if err := l.AddBatch(mkBatch(10000+failAt*10, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if failAt < 5 {
		t.Fatalf("the snapshot was written in %d operations: too few to exercise a mid-file failure", failAt-1)
	}
}
