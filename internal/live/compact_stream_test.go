package live

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// TestCompactStreamsGatheredBytes: a compaction writes its snapshot from
// the published index — a mapped base under delta and tombstone runs,
// merged — and that file is, byte for byte, the one a writer handed the
// graph's gathered and sorted triples writes (store.SaveFile, whose
// NewIndex sorts g.All()). 30 seeded schedules of adds, deletes,
// duplicate adds, re-adds of deleted triples, type and schema triples and
// compactions, each compared at every compaction; at the end the reopened
// store holds exactly the oracle's triples.
func TestCompactStreamsGatheredBytes(t *testing.T) {
	seedTriples := append(mkBatch(0, 150), schemaTriples(0, 6)...)
	for seed := uint64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5ca7))
		dir := t.TempDir()
		l, err := Open(dir, &Options{NoSync: true, Seed: store.FromTriples(seedTriples)})
		if err != nil {
			t.Fatal(err)
		}
		oracle := append([]rdf.Triple(nil), seedTriples...)
		pool := append(mkBatch(1000, 120), schemaTriples(100, 12)...)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		var deleted []rdf.Triple
		next, compactions := 0, 0
		compact := func(op int) {
			t.Helper()
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
			compactions++
			got, err := os.ReadFile(l.snapshotPath(l.gen))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "gathered.rdfsum")
			if err := store.SaveFile(path, l.graph()); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, op %d: the compacted file (%d bytes) differs from the gathered writer's (%d bytes)",
					seed, op, len(got), len(want))
			}
		}
		ops := 30 + rng.IntN(20)
		for op := 0; op < ops; op++ {
			switch r := rng.IntN(20); {
			case r < 2:
				compact(op)
			case r < 7 && len(oracle) > 0: // delete: seed triples, added ones, some absent
				var dead []rdf.Triple
				for k := 1 + rng.IntN(6); k > 0; k-- {
					dead = append(dead, oracle[rng.IntN(len(oracle))])
				}
				if rng.IntN(4) == 0 && next < len(pool) {
					dead = append(dead, pool[next]) // not added yet
				}
				if _, err := l.DeleteBatch(dead); err != nil {
					t.Fatal(err)
				}
				oracle = removeAll(oracle, dead)
				deleted = append(deleted, dead...)
			default: // add: fresh triples, duplicates of live ones, re-adds of deleted ones
				var batch []rdf.Triple
				for k := 1 + rng.IntN(10); k > 0; k-- {
					switch c := rng.IntN(6); {
					case c == 0 && len(oracle) > 0:
						batch = append(batch, oracle[rng.IntN(len(oracle))])
					case c == 1 && len(deleted) > 0:
						batch = append(batch, deleted[rng.IntN(len(deleted))])
					case next < len(pool):
						batch = append(batch, pool[next])
						next++
					}
				}
				if err := l.AddBatch(batch); err != nil {
					t.Fatal(err)
				}
				oracle = append(oracle, batch...)
			}
		}
		compact(ops)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap := l2.Snapshot()
		if !reflect.DeepEqual(canonical(snap.Graph), canonical(store.FromTriples(oracle))) || snap.Index.Len() != len(oracle) {
			t.Fatalf("seed %d: the reopened store holds %d triples (index %d), not the oracle's %d",
				seed, snap.Graph.NumEdges(), snap.Index.Len(), len(oracle))
		}
		l2.Close()
		if compactions < 2 {
			t.Fatalf("seed %d: only %d compactions", seed, compactions)
		}
	}
}

// schemaTriples returns n schema triples, one of each of the four
// schema properties in turn, over classes and properties numbered from
// start.
func schemaTriples(start, n int) []rdf.Triple {
	props := []string{rdf.RDFSSubClassOf, rdf.RDFSSubProperty, rdf.RDFSDomain, rdf.RDFSRange}
	out := make([]rdf.Triple, 0, n)
	for i := start; i < start+n; i++ {
		out = append(out, rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/C%d", i%5)), rdf.NewIRI(props[i%4]),
			rdf.NewIRI(fmt.Sprintf("http://x/C%d", i))))
	}
	return out
}

// TestCompactRefusesChangedMappedSection: a compaction re-reads the
// mapped sections it copies forward — the boot snapshot's dictionary,
// the current generation's columns — and checks each against its TOC
// checksum first. A bit flipped in the mapped file after the open fails
// the Compact with ErrSnapshotChecksum before anything is written: every
// file of the store keeps its name, size and bytes, and the store serves
// and takes writes on generation 1. With the bit flipped back, the
// compaction goes through.
func TestCompactRefusesChangedMappedSection(t *testing.T) {
	for _, section := range []string{"dict-pages", "col-spo", "col-pos"} {
		t.Run(section, func(t *testing.T) {
			dir := t.TempDir()
			fed := mkBatch(0, 300)
			l, err := Open(dir, &Options{Seed: store.FromTriples(fed)})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			boot := l.snapshotPath(1)
			info, err := store.InspectSnapshot(boot)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Mmap {
				t.Skip("this build reads snapshots into the heap: a change to the file does not reach what it serves")
			}
			var at int64 = -1
			for _, s := range info.Sections {
				if s.Name == section {
					at = int64(s.Off + s.Len/2)
				}
			}
			if at < 0 {
				t.Fatalf("the boot snapshot has no %s section", section)
			}
			b := mkBatch(1000, 40)
			fed = append(fed, b...)
			if err := l.AddBatch(b); err != nil {
				t.Fatal(err)
			}
			flip := func() {
				t.Helper()
				f, err := os.OpenFile(boot, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				var c [1]byte
				if _, err := f.ReadAt(c[:], at); err != nil {
					t.Fatal(err)
				}
				c[0] ^= 0x04
				if _, err := f.WriteAt(c[:], at); err != nil {
					t.Fatal(err)
				}
			}
			flip()
			before := dirContents(t, dir)
			epoch := l.Epoch()
			if err := l.Compact(); !errors.Is(err, store.ErrSnapshotChecksum) {
				t.Fatalf("Compact over a changed %s returned %v, want ErrSnapshotChecksum", section, err)
			}
			if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("the refused compaction changed the store's files: %v, was %v", names(after), names(before))
			}
			if st := l.Stats(); st.Gen != 1 || l.Epoch() != epoch {
				t.Fatalf("the refused compaction moved the store to generation %d, epoch %d (was 1, %d)", st.Gen, l.Epoch(), epoch)
			}
			// Its terms are read off the changed pages, so only the counts
			// are compared until the bit is back.
			if snap := l.Snapshot(); snap.Index.Len() != len(fed) || snap.Graph.NumEdges() != len(fed) {
				t.Fatalf("the store serves %d triples (index %d) after the refused compaction, want %d",
					snap.Graph.NumEdges(), snap.Index.Len(), len(fed))
			}
			b = mkBatch(2000, 10)
			fed = append(fed, b...)
			if err := l.AddBatch(b); err != nil {
				t.Fatalf("a write after the refused compaction: %v", err)
			}

			flip()
			if err := l.Compact(); err != nil {
				t.Fatalf("Compact with the bit restored: %v", err)
			}
			if got := canonical(l.Snapshot().Graph); !reflect.DeepEqual(got, canonical(store.FromTriples(fed))) || l.Stats().Gen != 2 {
				t.Fatal("the compaction after the restore serves other triples or generation")
			}
		})
	}
}

// dirContents maps each file of dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// names lists a dirContents' file names and sizes.
func names(files map[string]string) []string {
	var out []string
	for name, b := range files {
		out = append(out, fmt.Sprintf("%s (%d bytes)", name, len(b)))
	}
	return out
}
