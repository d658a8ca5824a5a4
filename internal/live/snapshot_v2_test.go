package live

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rdfsum/internal/core"
	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// TestLiveCompactWritesV2: Compact rewrites the base snapshot in the v2
// container format, and a reopened store serves the identical graph.
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

	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(canonical(l2.Snapshot().Graph), canonical(store.FromTriples(fed))) {
		t.Fatal("reopened store diverges from the ingested triples")
	}
}

// TestLiveReopenMaintainingNothing: a compacted store reopened with no
// maintained kinds serves an index that answers patterns exactly like a
// fresh one, a summary built on request that equals the batch summary, and
// further ingest as a delta run over the mapped base.
func TestLiveReopenMaintainingNothing(t *testing.T) {
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
	oracle := store.FromTriples(append(append([]rdf.Triple(nil), fed...), tail...))
	wantScan := scanIndex(store.NewIndex(oracle))
	if got := scanIndex(snap.Index); !reflect.DeepEqual(got, wantScan) {
		t.Fatalf("reopened index scan diverges: %d vs %d triples", len(got), len(wantScan))
	}
	// Summaries still come out bit-identical once something forces a build.
	liveSum, _, err := l2.Summary(core.Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := core.MustSummarize(oracle, core.Weak)
	if !reflect.DeepEqual(canonical(liveSum.Graph), canonical(batch.Graph)) {
		t.Fatal("summary over the reopened store diverges from batch summary")
	}
	// Ingest after the reopen lands as a delta run over the mapped base.
	more := mkBatch(7000, 30)
	if err := l2.AddBatch(more); err != nil {
		t.Fatal(err)
	}
	all := append(append(append([]rdf.Triple(nil), fed...), tail...), more...)
	if got, want := scanIndex(l2.Snapshot().Index), scanIndex(freshIndexOver(l2.Snapshot().Graph.Dict(), all)); !reflect.DeepEqual(got, want) {
		t.Fatal("index after post-reopen ingest diverges from a fresh index")
	}
}

// TestReopenCountsGraphBytes: a store reopened with no maintained kinds
// holds its whole graph decoded, and Stats reports all of it.
func TestReopenCountsGraphBytes(t *testing.T) {
	dir := t.TempDir()
	seed, tail := mkBatch(0, 300), mkBatch(1000, 60)
	l, err := Open(dir, &Options{Seed: store.FromTriples(seed), Maintain: []core.Kind{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AddBatch(tail); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, &Options{Maintain: []core.Kind{}}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st, n := l.Stats(), len(seed)+len(tail)
	if st.Triples != uint64(n) || st.GraphBytes != int64(n)*store.TripleBytes {
		t.Fatalf("reopened store: %d triples in %d graph bytes, want %d in %d", st.Triples, st.GraphBytes, n, int64(n)*store.TripleBytes)
	}
}

// TestOpenRefusesCorruptGraphSection: Open checks every section of the
// generation snapshot, so a flipped byte in any of the six fails the
// Open with ErrSnapshotChecksum — whatever kinds it maintains — rather
// than panicking on first use.
func TestOpenRefusesCorruptGraphSection(t *testing.T) {
	for _, name := range []string{
		"dict-pages", "dict-dir", "dict-symbols", "col-spo", "col-pos", "vocab",
	} {
		for _, maintain := range [][]core.Kind{nil, {}} {
			dir := t.TempDir()
			seed := store.FromTriples(append(mkBatch(0, 100), rdf.NewTriple(
				rdf.NewIRI("http://x/C0"), rdf.NewIRI(rdf.RDFSSubClassOf), rdf.NewIRI("http://x/C1"))))
			l, err := Open(dir, &Options{Seed: seed, Maintain: maintain})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "snapshot-1.rdfsum")
			info, err := store.InspectSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(info.Sections, func(s store.SectionInfo) bool { return s.Name == name })
			if i < 0 || info.Sections[i].Len == 0 {
				t.Fatalf("the seed's snapshot has no %s payload", name)
			}
			sec := info.Sections[i]
			raw[sec.Off+sec.Len/2] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if l, err := Open(dir, &Options{Maintain: maintain}); !errors.Is(err, store.ErrSnapshotChecksum) {
				if err == nil {
					l.Close()
				}
				t.Fatalf("%s flipped, maintaining %v: Open got %v, want ErrSnapshotChecksum", name, maintain, err)
			}
		}
	}
}

// TestCompactRefusesCorruptSnapshot: a compaction checks the snapshot it
// wrote before anything points at it. A byte that reaches the file other
// than as the writer checksummed it fails the Compact with
// ErrSnapshotChecksum, and the store serves on from its old generation.
func TestCompactRefusesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	fed := mkBatch(0, 200)
	l, err := Open(dir, &Options{Seed: store.FromTriples(fed)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	orig := createSnapshotFile
	defer func() { createSnapshotFile = orig }()
	createSnapshotFile = func(path string) (snapshotFile, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		return &flipFile{File: f}, nil
	}
	b := mkBatch(1000, 30)
	fed = append(fed, b...)
	if err := l.AddBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); !errors.Is(err, store.ErrSnapshotChecksum) {
		t.Fatalf("Compact over a corrupted write returned %v, want ErrSnapshotChecksum", err)
	}
	if l.Stats().Gen != 1 {
		t.Fatalf("the refused compaction moved the store to generation %d", l.Stats().Gen)
	}
	if got := canonical(l.Snapshot().Graph); !reflect.DeepEqual(got, canonical(store.FromTriples(fed))) {
		t.Fatal("the store serves other triples after the refused compaction")
	}
}

// flipFile flips the first byte of a snapshot's first section — the page
// after the header's — on its way to the file.
type flipFile struct {
	*os.File
	off int64
}

func (f *flipFile) Write(p []byte) (int, error) {
	if at := 4096 - f.off; at >= 0 && at < int64(len(p)) {
		p = append([]byte(nil), p...)
		p[at] ^= 0x40
	}
	n, err := f.File.Write(p)
	f.off += int64(n)
	return n, err
}

// TestOpenRemovesLeftoverSpill: a spill/ directory — the index-run files
// older builds wrote under -index-spill-bytes, which nothing reads — does
// not outlive the next Open, and the store serves on unchanged.
func TestOpenRemovesLeftoverSpill(t *testing.T) {
	dir := t.TempDir()
	fed := mkBatch(0, 100)
	l, err := Open(dir, &Options{Seed: store.FromTriples(fed)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	spill := filepath.Join(dir, "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spill, "run-00000001.col"), []byte("RDFSUM"), 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(spill); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the leftover spill directory survived Open (stat: %v)", err)
	}
	if got, want := canonical(l.Snapshot().Graph), canonical(store.FromTriples(fed)); !reflect.DeepEqual(got, want) {
		t.Fatal("the reopened store diverges from its seed")
	}
}

// TestCompactFailurePublishesNextAddAlone: after a compaction of a
// reopened store that fails once its snapshot is written, the next
// AddBatch publishes exactly its own triples as the delta, not the whole
// base over again, and a later compaction succeeds.
func TestCompactFailurePublishesNextAddAlone(t *testing.T) {
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

	// The snapshot gets written; creating the next generation's WAL then
	// fails, because its path is a directory.
	nextWAL := l.walPath(l.Stats().Gen + 1)
	if err := os.Mkdir(nextWAL, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err == nil {
		t.Fatal("Compact succeeded with a directory in place of the next WAL")
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

// TestCompactFailsCleanlyWhenSnapshotUnopenable: a compaction maps the
// snapshot it wrote before anything points at it. When that open fails,
// Compact fails with it and changes nothing: CURRENT, the WAL and the
// served epoch are those of before, the new file is gone, and a later
// Compact succeeds.
func TestCompactFailsCleanlyWhenSnapshotUnopenable(t *testing.T) {
	dir := t.TempDir()
	fed := mkBatch(0, 200)
	l, err := Open(dir, &Options{Seed: store.FromTriples(fed)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	b := mkBatch(1000, 30)
	fed = append(fed, b...)
	if err := l.AddBatch(b); err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	manifest, wal, served := read(manifestName), read("wal-1.log"), l.Snapshot()

	orig := openSnapshotFile
	defer func() { openSnapshotFile = orig }()
	openSnapshotFile = func(string) (*store.SnapshotFile, error) { return nil, errInjected }
	if err := l.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact with an unopenable snapshot returned %v, want the open's error", err)
	}
	if !bytes.Equal(read(manifestName), manifest) || !bytes.Equal(read("wal-1.log"), wal) {
		t.Fatal("the failed compaction changed CURRENT or the WAL")
	}
	if l.Snapshot() != served || l.Stats().Gen != 1 {
		t.Fatalf("the failed compaction published epoch %d on generation %d", l.Epoch(), l.Stats().Gen)
	}
	for _, name := range []string{"snapshot-2.rdfsum", "wal-2.log"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("the failed compaction left %s behind (stat: %v)", name, err)
		}
	}

	openSnapshotFile = orig
	b = mkBatch(2000, 30)
	fed = append(fed, b...)
	if err := l.AddBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact after the failed one: %v", err)
	}
	if l.Stats().Gen != 2 {
		t.Fatalf("generation %d after the second Compact, want 2", l.Stats().Gen)
	}
	if got, want := canonical(l.Snapshot().Graph), canonical(store.FromTriples(fed)); !reflect.DeepEqual(got, want) {
		t.Fatal("the store diverges from the triples fed")
	}
	if got, want := scanIndex(l.Snapshot().Index), scanIndex(store.NewIndex(l.Snapshot().Graph)); !reflect.DeepEqual(got, want) {
		t.Fatal("the compacted index diverges from a fresh index over the graph")
	}
}

// TestCompactDirSyncFailureTakesNoWrites: when the directory sync after
// CURRENT's rename fails, Compact returns the error and the store
// acknowledges no write, add or delete, until it is reopened — a reopen
// may find either generation current, and one that finds the new one
// deletes the old WAL. Every write acknowledged before the failure
// survives Close and Open, which serve the new generation.
func TestCompactDirSyncFailureTakesNoWrites(t *testing.T) {
	dir := t.TempDir()
	fed := mkBatch(0, 200)
	l, err := Open(dir, &Options{Seed: store.FromTriples(fed)})
	if err != nil {
		t.Fatal(err)
	}
	b := mkBatch(1000, 30)
	fed = append(fed, b...)
	if err := l.AddBatch(b); err != nil {
		t.Fatal(err)
	}
	orig := syncDir
	defer func() { syncDir = orig }()
	syncDir = func(d string) error {
		if raw, _ := os.ReadFile(filepath.Join(d, manifestName)); string(raw) == "gen 2\n" {
			return errInjected
		}
		return orig(d)
	}
	if err := l.Compact(); !errors.Is(err, errInjected) {
		t.Fatalf("Compact with a failing directory sync returned %v, want the sync's error", err)
	}
	syncDir = orig
	if late := mkBatch(2000, 30); l.AddBatch(late) == nil {
		fed = append(fed, late...)
		t.Error("an add was acknowledged after the failed compaction")
	}
	if n, err := l.DeleteBatch(fed[:1]); err == nil && n > 0 {
		fed = fed[1:]
		t.Error("a delete was acknowledged after the failed compaction")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Stats().Gen != 2 {
		t.Fatalf("the reopened store is on generation %d, want 2", l.Stats().Gen)
	}
	if got, want := canonical(l.Snapshot().Graph), canonical(store.FromTriples(fed)); !reflect.DeepEqual(got, want) {
		t.Fatal("the reopened store lost acknowledged writes")
	}
}

// TestCompactFailureRemovesNewGeneration: a compaction that fails before
// CURRENT is replaced — here at creating the new WAL, and at creating
// CURRENT's tmp file, each blocked by a directory of that name — removes
// the new generation's snapshot and WAL. The store stays on its
// generation and serves the same triples, and once the obstacle is gone
// the next Compact succeeds.
func TestCompactFailureRemovesNewGeneration(t *testing.T) {
	files := func(dir string) []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			if e.Name() != "LOCK" { // not written off unix
				names = append(names, e.Name())
			}
		}
		return names
	}
	for _, obstacle := range []string{"wal-2.log", manifestName + ".tmp"} {
		dir := t.TempDir()
		fed := mkBatch(0, 200)
		l, err := Open(dir, &Options{Seed: store.FromTriples(fed)})
		if err != nil {
			t.Fatal(err)
		}
		b := mkBatch(1000, 30)
		fed = append(fed, b...)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		served := l.Snapshot()
		if err := os.Mkdir(filepath.Join(dir, obstacle), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := l.Compact(); err == nil {
			t.Fatalf("%s is a directory, yet Compact succeeded", obstacle)
		}
		if l.Stats().Gen != 1 || l.Snapshot() != served {
			t.Fatalf("%s blocked: the failed compaction moved the store to generation %d, epoch %d", obstacle, l.Stats().Gen, l.Epoch())
		}
		want := []string{manifestName, obstacle, "snapshot-1.rdfsum", "wal-1.log"}
		slices.Sort(want)
		if got := files(dir); !slices.Equal(got, want) {
			t.Fatalf("%s blocked: the directory holds %v after the failed compaction, want %v", obstacle, got, want)
		}
		if got, want := canonical(l.Snapshot().Graph), canonical(store.FromTriples(fed)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s blocked: the store diverges from the triples fed", obstacle)
		}

		if err := os.Remove(filepath.Join(dir, obstacle)); err != nil {
			t.Fatal(err)
		}
		b = mkBatch(2000, 30)
		fed = append(fed, b...)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		if err := l.Compact(); err != nil {
			t.Fatalf("Compact once %s is gone: %v", obstacle, err)
		}
		if got, want := files(dir), []string{manifestName, "snapshot-2.rdfsum", "wal-2.log"}; l.Stats().Gen != 2 || !slices.Equal(got, want) {
			t.Fatalf("after the second Compact: generation %d, files %v; want 2, %v", l.Stats().Gen, got, want)
		}
		if got, want := canonical(l.Snapshot().Graph), canonical(store.FromTriples(fed)); !reflect.DeepEqual(got, want) {
			t.Fatal("the store diverges from the triples fed")
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableIndexHoldsNoHeapBase: after a seeded Open, a reopen and every
// Compact, a durable store's index serves its base from the generation's
// snapshot file. Its heap holds its delta runs (36 B a triple) and the
// fences its lookups have built (16 B per 8 triples of a column), nothing
// more.
func TestDurableIndexHoldsNoHeapBase(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, &Options{Seed: store.FromTriples(mkBatch(0, 3000))})
	if err != nil {
		t.Fatal(err)
	}
	deltas := 0
	check := func(what string) {
		t.Helper()
		ix := l.Snapshot().Index
		base := int64(ix.Len() - deltas)
		lo := int64(deltas) * 36
		hi := lo + 3*16*((base+7)/8)
		if h := ix.HeapBytes(); h < lo || h > hi {
			t.Fatalf("%s: index heap holds %d bytes; %d delta triples and the fences of %d base triples hold %d–%d",
				what, h, deltas, base, lo, hi)
		}
		if ix.MappedBytes() == 0 {
			t.Fatalf("%s: the index maps no base", what)
		}
	}
	add := func(start int) {
		t.Helper()
		b := mkBatch(start, 40)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		deltas += len(b)
	}
	compact := func(what string) {
		t.Helper()
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		deltas = 0
		check(what)
	}
	check("seeded open")
	add(5000)
	check("seeded open + a batch")
	l.Snapshot().Index.ForEach(1, dict.None, dict.None, func(store.Triple) bool { return true })
	l.Snapshot().Index.Count(dict.None, 2, dict.None)
	check("seeded open + a batch + lookups")
	compact("first compaction")
	add(6000)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check("reopen with a WAL record")
	compact("second compaction")
	add(7000)
	compact("third compaction")
}

// TestCompactionsUnmapSupersededSnapshots: a reopened store compacted five
// times keeps mapped, once collected, at most the boot snapshot (its
// dictionary's base), the current generation's, and the generation an
// epoch still holds — not one unlinked file per compaction. Every base
// term of the reopened dictionary still decodes.
func TestCompactionsUnmapSupersededSnapshots(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, &Options{Seed: store.FromTriples(mkBatch(0, 500))})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info, err := store.InspectSnapshot(filepath.Join(dir, "snapshot-1.rdfsum")); err != nil || !info.Mmap {
		t.Skipf("this build reads snapshots into the heap (inspect: %v)", err)
	}
	if l, err = Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := l.Snapshot().Graph.Dict()
	base := make([]rdf.Term, d.Len()+1)
	for id := 1; id < len(base); id++ {
		base[id] = d.Term(dict.ID(id))
	}
	var held *Snapshot
	for i := 1; i <= 5; i++ {
		if err := l.AddBatch(mkBatch(1000*i, 30)); err != nil {
			t.Fatal(err)
		}
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			held = l.Snapshot() // generation 4
		}
	}
	allowed := map[string]bool{"snapshot-1.rdfsum": true, "snapshot-4.rdfsum": true, "snapshot-6.rdfsum": true}
	var mapped, left []string
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		mapped, left = mapped[:0], left[:0]
		raw, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no /proc/self/maps: %v", err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if i := strings.Index(line, dir); i >= 0 {
				name, _, _ := strings.Cut(filepath.Base(line[i:]), " ")
				mapped = append(mapped, name)
				if !allowed[name] {
					left = append(left, name)
				}
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(left) > 0 {
		t.Fatalf("after five compactions and a collection, superseded files are still mapped: %v", left)
	}
	if !slices.Contains(mapped, "snapshot-6.rdfsum") {
		t.Fatalf("the current generation's snapshot is not mapped (mapped: %v)", mapped)
	}
	for id := 1; id < len(base); id++ {
		if got := d.Term(dict.ID(id)); got != base[id] {
			t.Fatalf("base term %d decodes to %v after the compactions, was %v", id, got, base[id])
		}
	}
	if held.Index.Len() != held.Graph.NumEdges() {
		t.Fatal("the held epoch's index no longer matches its graph")
	}
	runtime.KeepAlive(held)
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
	l, err := Open(dir, &Options{Seed: store.FromTriples(mkBatch(0, 60000))})
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
