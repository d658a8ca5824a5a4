package live

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdfsum/internal/core"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

// wantSnapshotBytes is what the generation's snapshot must be: the file
// store.SaveFile produces for the published graph (store's own tests pin
// that writer's bytes to its predecessor's). Equality here is what keeps
// disk_bytes_per_triple where it was.
func wantSnapshotBytes(t *testing.T, l *Live) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "want.rdfsum")
	if err := store.SaveFile(path, l.Snapshot().Graph); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func checkSnapshotBytes(t *testing.T, l *Live, what string) {
	t.Helper()
	got, err := os.ReadFile(l.snapshotPath(l.Stats().Gen))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, wantSnapshotBytes(t, l)) {
		t.Fatalf("%s: snapshot-%d differs from the reference writer's file", what, l.Stats().Gen)
	}
}

// TestLiveSeedSnapshotByteIdentical: the snapshot a seed boot writes and
// then serves is the reference file, for every sample graph.
func TestLiveSeedSnapshotByteIdentical(t *testing.T) {
	graphs := map[string]func() *store.Graph{
		"fig2": samples.Fig2, "fig5": samples.Fig5, "fig8": samples.Fig8,
		"fig10": samples.Fig10, "book": samples.BookGraph,
		"bulk": func() *store.Graph { return store.FromTriples(flattenBatches(40, 25)) },
	}
	for name, mk := range graphs {
		l, err := Open(t.TempDir(), &Options{Seed: mk()})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSnapshotBytes(t, l, name+" seed boot")
		if got, want := scanIndex(l.Snapshot().Index), scanIndex(store.NewIndex(l.Snapshot().Graph)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: epoch 1 index diverges from a fresh index over the seed", name)
		}
		// The served file must survive a batch and a compaction.
		if err := l.AddBatch(mkBatch(5000, 20)); err != nil {
			t.Fatal(err)
		}
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		checkSnapshotBytes(t, l, name+" compact")
		l.Close()
	}
}

// TestLiveCompactSnapshotByteIdentical: through a random interleaving of
// adds, deletes (of present and absent triples), compactions and reopens
// — maintained and unmaintained, over delta runs folded on the way —
// every snapshot Compact writes is the reference file for the graph at
// that moment.
func TestLiveCompactSnapshotByteIdentical(t *testing.T) {
	configs := []Options{
		{},
		{Maintain: []core.Kind{}}, // maintaining nothing
	}
	for ci, opts := range configs {
		rng := rand.New(rand.NewPCG(uint64(ci), 77))
		dir := t.TempDir()
		l, err := Open(dir, &opts)
		if err != nil {
			t.Fatal(err)
		}
		var fed []rdf.Triple
		compactions, deltas, folded := 0, 0, false
		for step := 0; step < 120; step++ {
			switch op := rng.IntN(10); {
			case op < 5:
				b := mkBatch(rng.IntN(400), 1+rng.IntN(30)) // overlapping ranges: duplicates happen
				fed = append(fed, b...)
				if err := l.AddBatch(b); err != nil {
					t.Fatal(err)
				}
				deltas++
			case op < 7 && len(fed) > 0:
				dead := []rdf.Triple{fed[rng.IntN(len(fed))], fed[rng.IntN(len(fed))], mkBatch(9000+step, 1)[0]}
				if n, err := l.DeleteBatch(dead); err != nil {
					t.Fatal(err)
				} else if n > 0 {
					deltas++
				}
				fed = removeAll(fed, dead)
			case op < 9:
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
				compactions, deltas = compactions+1, 0
				checkSnapshotBytes(t, l, fmt.Sprintf("config %d step %d", ci, step))
			default:
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if l, err = Open(dir, &opts); err != nil {
					t.Fatalf("config %d step %d: reopen: %v", ci, step, err)
				}
			}
			folded = folded || hasFolded(l.Snapshot().Index, deltas)
		}
		if compactions == 0 {
			t.Fatalf("config %d: the sequence never compacted", ci)
		}
		if !folded {
			t.Fatalf("config %d: the sequence never folded a delta run", ci)
		}
		if got, want := canonical(l.Snapshot().Graph), canonical(store.FromTriples(fed)); !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d: store diverges from the model after the sequence", ci)
		}
		l.Close()
	}
}

// TestLiveCompactAbandonedBeforeManifestSwap: a compaction that dies
// after snapshot-<gen+1> (and even wal-<gen+1>) reached the disk but
// before CURRENT was swapped must be invisible: the store reopens on the
// old generation with every acknowledged batch, discards the orphans,
// and compacts cleanly afterwards.
func TestLiveCompactAbandonedBeforeManifestSwap(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		dir := t.TempDir()
		l, err := Open(dir, &Options{Seed: store.FromTriples(mkBatch(0, 50))})
		if err != nil {
			t.Fatal(err)
		}
		acked := mkBatch(0, 50)
		for i := 1; i <= 5; i++ {
			b := mkBatch(i*100, 20)
			acked = append(acked, b...)
			if err := l.AddBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.DeleteBatch(acked[60:65]); err != nil {
			t.Fatal(err)
		}
		acked = removeAll(acked, acked[60:65])
		// The first steps of Compact, as it performs them, then the crash.
		l.mu.Lock()
		if err := l.writeSnapshotFile(l.gen+1, l.graph()); err != nil {
			t.Fatal(err)
		}
		if withWAL {
			w, err := createWAL(l.walPath(l.gen+1), l.sync)
			if err != nil {
				t.Fatal(err)
			}
			w.close()
		}
		l.mu.Unlock()
		l.Close()

		l2, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("withWAL=%v: reopen after abandoned compaction: %v", withWAL, err)
		}
		if gen := l2.Stats().Gen; gen != 1 {
			t.Fatalf("withWAL=%v: reopened on generation %d, want the old generation 1", withWAL, gen)
		}
		if got, want := canonical(l2.Snapshot().Graph), canonical(store.FromTriples(acked)); !reflect.DeepEqual(got, want) {
			t.Fatalf("withWAL=%v: acknowledged batches lost across an abandoned compaction", withWAL)
		}
		for _, orphan := range []string{"snapshot-2.rdfsum", "wal-2.log"} {
			if _, err := os.Stat(filepath.Join(dir, orphan)); !os.IsNotExist(err) {
				t.Fatalf("withWAL=%v: orphan %s survived the reopen", withWAL, orphan)
			}
		}
		if err := l2.Compact(); err != nil {
			t.Fatalf("withWAL=%v: compaction after recovery: %v", withWAL, err)
		}
		checkSnapshotBytes(t, l2, "compaction after recovery")
		l2.Close()
	}
}

// TestLiveSummariesLeaveStoreDictionaryAlone: serving summaries is a read.
// A store asked for all five kinds — lazily built under the default
// -maintain weak, from the builders when every kind is maintained, before
// and after further ingest — keeps the dictionary size of a twin store
// never asked for one, and the next Compact writes the twin's snapshot,
// byte for byte. (The type-based kind alone names every untyped node.)
func TestLiveSummariesLeaveStoreDictionaryAlone(t *testing.T) {
	for name, maintain := range map[string][]core.Kind{"weak": nil, "all": core.Kinds} {
		open := func() *Live {
			l, err := Open(t.TempDir(), &Options{Seed: samples.BookGraph(), Maintain: maintain})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			t.Cleanup(func() { l.Close() }) //nolint:errcheck
			return l
		}
		asked, twin := open(), open()
		summarizeAll := func() {
			t.Helper()
			before := asked.Snapshot().Graph.Dict().Len()
			for _, kind := range core.Kinds {
				s, _, err := asked.Summary(kind, 0)
				if err != nil {
					t.Fatalf("%s/%v: %v", name, kind, err)
				}
				batch := core.MustSummarize(twin.Snapshot().Graph, kind)
				if !reflect.DeepEqual(s.Graph.CanonicalStrings(), batch.Graph.CanonicalStrings()) {
					t.Errorf("%s/%v: served summary differs from the batch summary of the twin", name, kind)
				}
				if !s.Graph.Dict().IsOverlay() {
					t.Errorf("%s/%v: summary graph is over the store's own dictionary", name, kind)
				}
			}
			if after := asked.Snapshot().Graph.Dict().Len(); after != before {
				t.Errorf("%s: five summaries grew the store's dictionary from %d to %d terms", name, before, after)
			}
		}
		summarizeAll()
		for _, l := range []*Live{asked, twin} {
			if err := l.AddBatch(mkBatch(0, 60)); err != nil {
				t.Fatal(err)
			}
		}
		summarizeAll()
		for _, l := range []*Live{asked, twin} {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := asked.Stats().DictTerms, twin.Stats().DictTerms; got != want {
			t.Errorf("%s: dictionary holds %d terms, the twin's %d", name, got, want)
		}
		got, err := os.ReadFile(asked.snapshotPath(asked.Stats().Gen))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(twin.snapshotPath(twin.Stats().Gen))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: snapshot after five summaries (%d bytes) differs from the twin's (%d bytes)", name, len(got), len(want))
		}
	}
}
