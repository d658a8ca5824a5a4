package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"rdfsum/internal/core"
	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// scanIndex collects a full wildcard scan of an index (SPO order).
func scanIndex(ix *store.Index) []store.Triple {
	var out []store.Triple
	ix.ForEach(dict.None, dict.None, dict.None, func(t store.Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// hasFolded reports whether a fold has merged runs of ix, given the
// number of delta and tombstone runs published over its single-run base
// (the last compaction, or the generation's boot before WAL replay): a
// fold leaves fewer runs than the base plus those.
func hasFolded(ix *store.Index, deltas int) bool { return ix.Runs() < 1+deltas }

// freshIndexOver builds a from-scratch single-run index over exactly the
// given string-level triples, encoded through the same dictionary as the
// live store — so iteration sequences are comparable triple-for-triple.
func freshIndexOver(d *dict.Dict, triples []rdf.Triple) *store.Index {
	g := store.NewGraphWithDict(d)
	for _, t := range triples {
		g.Add(t)
	}
	return store.NewIndex(g)
}

// removeAll drops every copy of dead from ts.
func removeAll(ts []rdf.Triple, dead []rdf.Triple) []rdf.Triple {
	set := make(map[rdf.Triple]bool, len(dead))
	for _, t := range dead {
		set[t] = true
	}
	out := ts[:0:0]
	for _, t := range ts {
		if !set[t] {
			out = append(out, t)
		}
	}
	return out
}

func TestLiveDeleteBasics(t *testing.T) {
	l := New(nil, nil)
	defer l.Close()
	batch := mkBatch(0, 40)
	if err := l.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	dead := batch[:5]
	n, err := l.DeleteBatch(dead)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("DeleteBatch removed %d copies, want 5", n)
	}
	snap := l.Snapshot()
	surviving := removeAll(batch, dead)
	if !reflect.DeepEqual(canonical(snap.Graph), canonical(store.FromTriples(surviving))) {
		t.Fatal("graph after delete diverges from the surviving triples")
	}
	if snap.Index.Len() != snap.Graph.NumEdges() {
		t.Fatalf("index holds %d triples, graph %d", snap.Index.Len(), snap.Graph.NumEdges())
	}
	st := l.Stats()
	if st.Deleted != 5 || st.Triples != uint64(len(surviving)) {
		t.Fatalf("stats after delete: %+v", st)
	}
	// Deleting the same triples again is a no-op.
	if n, err := l.DeleteBatch(dead); err != nil || n != 0 {
		t.Fatalf("re-delete removed %d copies, err %v", n, err)
	}
	// Re-adding a deleted triple makes it visible again (tombstones only
	// suppress strictly older copies).
	if err := l.Add(dead[0]); err != nil {
		t.Fatal(err)
	}
	re := l.Snapshot()
	if !reflect.DeepEqual(canonical(re.Graph),
		canonical(store.FromTriples(append(append([]rdf.Triple(nil), surviving...), dead[0])))) {
		t.Fatal("re-added triple is not visible")
	}
	if got := scanIndex(re.Index); !reflect.DeepEqual(got, scanIndex(freshIndexOver(re.Graph.Dict(), append(append([]rdf.Triple(nil), surviving...), dead[0])))) {
		t.Fatalf("index scan after re-add diverges from a from-scratch index")
	}
}

// TestLiveDeleteInterleavingOracle is the live half of the tiered-index
// property test: random interleavings of add batches, delete batches and
// compactions on a durable store maintaining all five kinds must stay
// bit-identical — graph, index iteration, every summary — to a batch load
// of the surviving triples; snapshots held mid-stream keep their exact
// contents across later deletes and compactions; and a close/reopen (WAL
// replay) reproduces the same state. Runs of a dozen publications
// between compactions make the index fold on the way.
func TestLiveDeleteInterleavingOracle(t *testing.T) {
	folds := 0
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x11fe))
		dir := t.TempDir()
		l, err := Open(dir, &Options{NoSync: true, Maintain: core.Kinds})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()

		pool := mkBatch(0, 60)
		var oracle []rdf.Triple
		next := 0

		type held struct {
			snap      *Snapshot
			canon     []string
			indexScan []store.Triple
		}
		var holds []held

		ops := 24 + rng.IntN(12)
		deltas, folded := 0, false
		for i := 0; i < ops; i++ {
			switch {
			case rng.IntN(12) == 0:
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
				if st := l.Stats(); st.IndexRuns != 1 || st.IndexTombs != 0 {
					t.Logf("seed %d: compacted store has %d runs, %d tombstones", seed, st.IndexRuns, st.IndexTombs)
					return false
				}
				deltas = 0
			case rng.IntN(3) == 0 && len(oracle) > 0:
				k := 1 + rng.IntN(4)
				dead := make([]rdf.Triple, 0, k)
				for j := 0; j < k; j++ {
					dead = append(dead, pool[rng.IntN(next)])
				}
				if n, err := l.DeleteBatch(dead); err != nil {
					t.Fatal(err)
				} else if n > 0 {
					deltas++
				}
				oracle = removeAll(oracle, dead)
			default:
				k := 1 + rng.IntN(8)
				var batch []rdf.Triple
				for j := 0; j < k; j++ {
					// Mostly fresh triples, sometimes re-adds.
					if next < len(pool) && rng.IntN(4) != 0 {
						batch = append(batch, pool[next])
						next++
					} else if next > 0 {
						batch = append(batch, pool[rng.IntN(next)])
					}
				}
				if err := l.AddBatch(batch); err != nil {
					t.Fatal(err)
				}
				if len(batch) > 0 {
					deltas++
				}
				oracle = append(oracle, batch...)
			}
			folded = folded || hasFolded(l.Snapshot().Index, deltas)

			snap := l.Snapshot()
			if !reflect.DeepEqual(canonical(snap.Graph), canonical(store.FromTriples(oracle))) {
				t.Logf("seed %d: graph diverges after op %d", seed, i)
				return false
			}
			fresh := freshIndexOver(snap.Graph.Dict(), oracle)
			if snap.Index.Len() != fresh.Len() || !reflect.DeepEqual(scanIndex(snap.Index), scanIndex(fresh)) {
				t.Logf("seed %d: index iteration diverges after op %d", seed, i)
				return false
			}
			if rng.IntN(4) == 0 {
				holds = append(holds, held{snap: snap, canon: canonical(snap.Graph), indexScan: scanIndex(snap.Index)})
			}
		}

		// All five summaries match a batch load of the survivors.
		batchGraph := store.FromTriples(oracle)
		for _, kind := range core.Kinds {
			s, _, err := l.Summary(kind, 0)
			if err != nil {
				t.Fatal(err)
			}
			batch := core.MustSummarize(batchGraph, kind)
			if !reflect.DeepEqual(canonical(s.Graph), canonical(batch.Graph)) {
				t.Logf("seed %d: %v summary diverges from batch over survivors", seed, kind)
				return false
			}
		}

		// Held snapshots were not disturbed by later deletes/compactions.
		for si, h := range holds {
			if !reflect.DeepEqual(canonical(h.snap.Graph), h.canon) ||
				!reflect.DeepEqual(scanIndex(h.snap.Index), h.indexScan) {
				t.Logf("seed %d: held snapshot %d was disturbed by later operations", seed, si)
				return false
			}
		}

		if folded {
			folds++
		}

		// WAL replay round-trips the deletions.
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, &Options{NoSync: true, Maintain: core.Kinds})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if !reflect.DeepEqual(canonical(re.Snapshot().Graph), canonical(batchGraph)) {
			t.Logf("seed %d: reopened store diverges from survivors", seed)
			return false
		}
		for _, kind := range core.Kinds {
			s, _, err := re.Summary(kind, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(canonical(s.Graph), canonical(core.MustSummarize(batchGraph, kind).Graph)) {
				t.Logf("seed %d: %v summary after replay diverges", seed, kind)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
	if folds == 0 {
		t.Error("no sequence folded a delta run")
	}
}

// writeV1WAL writes a WAL in the version-1 framing (no op byte: every
// record an add batch) — the format stores logged in before deletions
// existed, which this build refuses.
func writeV1WAL(t *testing.T, path string, batches [][]rdf.Triple) {
	t.Helper()
	var buf []byte
	buf = append(buf, walMagic...)
	buf = append(buf, 1)
	for _, batch := range batches {
		payload := binary.AppendUvarint(nil, uint64(len(batch)))
		for _, tr := range batch {
			payload = appendTerm(appendTerm(appendTerm(payload, tr.S), tr.P), tr.O)
		}
		var frame [8]byte
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		buf = append(buf, frame[:]...)
		buf = append(buf, payload...)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLiveRefusesV1Files: a store whose WAL is in the version-1 framing,
// or whose snapshot is a version-1 file, does not open — with
// ErrWALVersion or ErrSnapshotVersion naming the version and the last
// build that reads it — and the refusal leaves CURRENT, the WAL and the
// snapshot byte for byte as they were. Once the file is version 2 again,
// the same directory opens: the failed Open released its lock.
func TestLiveRefusesV1Files(t *testing.T) {
	seed := mkBatch(0, 20)
	for _, tc := range []struct {
		name  string
		v1    func(l *Live)
		want  error
		fixup func(l *Live)
	}{
		{"wal", func(l *Live) { writeV1WAL(t, l.walPath(1), [][]rdf.Triple{mkBatch(100, 15)}) }, ErrWALVersion,
			func(l *Live) {
				if err := os.WriteFile(l.walPath(1), []byte(walMagic+"\x02"), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{"snapshot", func(l *Live) { setByte(t, l.snapshotPath(1), 6, 1) }, store.ErrSnapshotVersion,
			func(l *Live) { setByte(t, l.snapshotPath(1), 6, 2) }},
	} {
		dir := t.TempDir()
		l, err := Open(dir, &Options{NoSync: true, Seed: store.FromTriples(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		tc.v1(l)
		files := []string{filepath.Join(dir, manifestName), l.walPath(1), l.snapshotPath(1)}
		before := readFiles(t, files)

		_, err = Open(dir, &Options{NoSync: true})
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "version 1 (this build reads only version 2") ||
			!strings.Contains(err.Error(), "8801477") {
			t.Fatalf("%s: Open over a version 1 file: got %v, want %v naming the version and the cutoff build", tc.name, err, tc.want)
		}
		if after := readFiles(t, files); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: the refused Open changed the store's files", tc.name)
		}

		tc.fixup(l)
		re, err := Open(dir, &Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: Open after the fix-up: %v", tc.name, err)
		}
		if !reflect.DeepEqual(canonical(re.Snapshot().Graph), canonical(store.FromTriples(seed))) {
			t.Fatalf("%s: the reopened store diverges from its seed", tc.name)
		}
		re.Close()
	}
}

// setByte overwrites byte i of the file at path.
func setByte(t *testing.T, path string, i int, b byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[i] = b
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFiles(t *testing.T, paths []string) [][]byte {
	t.Helper()
	out := make([][]byte, len(paths))
	for i, p := range paths {
		var err error
		if out[i], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestLiveSnapshotAcrossCompactStress is the -race regression case for
// snapshot validity across generations: readers hold epoch snapshots and
// keep iterating them (full scans and pattern scans) while the writer
// interleaves adds, deletes and Compact calls that swap index generations
// under them, eight rounds apart, so folds land between them too. Each
// reader verifies its snapshot's contents never change. Run by `make
// stress`.
func TestLiveSnapshotAcrossCompactStress(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AddBatch(mkBatch(0, 200)); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	rounds := 40
	if testing.Short() {
		rounds = 10
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := l.Snapshot()
				want := snap.Index.Len()
				if got := len(scanIndex(snap.Index)); got != want {
					errs <- fmt.Errorf("reader %d: scan of held epoch %d yielded %d triples, Len says %d", r, snap.Epoch, got, want)
					return
				}
				// Re-scan the same snapshot after yielding to the writer:
				// a Compact or delete in between must not disturb it.
				if got := len(scanIndex(snap.Index)); got != want {
					errs <- fmt.Errorf("reader %d: held epoch %d changed under compaction: %d != %d", r, snap.Epoch, got, want)
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewPCG(42, 7))
	deltas, folded := 1, false // the seed batch
	for i := 0; i < rounds; i++ {
		batch := mkBatch(1000+i*50, 30)
		if err := l.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		deltas++
		if n, err := l.DeleteBatch(batch[:rng.IntN(10)]); err != nil {
			t.Fatal(err)
		} else if n > 0 {
			deltas++
		}
		folded = folded || hasFolded(l.Snapshot().Index, deltas)
		if i%8 == 0 {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
			deltas = 0
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !folded {
		t.Error("the writer never folded a delta run")
	}
}
