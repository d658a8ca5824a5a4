package store_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/store"
)

// writeTemp writes g's snapshot to a fresh temp file from the caller's
// index over it, and returns the path and what the write allocated
// (runtime.MemStats.TotalAlloc).
func writeTemp(t *testing.T, g *store.Graph, ix *store.Index) (path string, allocated uint64) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "g.rdfsum")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := store.WriteSnapshotV2(f, g, ix); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return path, after.TotalAlloc - before.TotalAlloc
}

// TestWriteSnapshotV2ByteIdenticalBSBM: the BSBM-300 snapshot is a fixed
// file (length and SHA-256 recorded from this writer; see
// TestWriteSnapshotV2ByteIdentical).
func TestWriteSnapshotV2ByteIdenticalBSBM(t *testing.T) {
	g := bsbm.GenerateGraph(bsbm.DefaultConfig(300))
	path, _ := writeTemp(t, g, store.NewIndex(g))
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSHA = 213118, "87c8011d909eb68e1eee8e5447277f97ee4add1e16d241efa393dd0efb0daac5"
	if sum := fmt.Sprintf("%x", sha256.Sum256(file)); len(file) != wantLen || sum != wantSHA {
		t.Errorf("BSBM-300 snapshot: %d bytes, sha256 %s; want %d bytes, sha256 %s", len(file), sum, wantLen, wantSHA)
	}
}

// TestSnapshotWriteAllocBound: handed its index, writing a snapshot
// allocates one chunk buffer and O(terms) — the dictionary's directory,
// 8 B per 16 terms — whatever the file's size: at most 256 KB + 64 KB +
// 2 B × terms over a heap index. Over a tiered one — the graph's mapped
// snapshot under delta and tombstone runs — the merge sorts and gathers
// nothing: it adds the tombstone lists, at most 64 B a tombstone, and one
// 6 KB decoding window for the mapped run each time a pass ranges over
// it, four in all. The whole-buffer writer this replaced allocated about
// five times the file; the writer that still wrote the sorted
// permutation, 482 KB on this graph.
func TestSnapshotWriteAllocBound(t *testing.T) {
	g := bsbm.GenerateGraph(bsbm.DefaultConfig(1000))
	check := func(name string, ix *store.Index) {
		t.Helper()
		path, allocated := writeTemp(t, g, ix)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		bound := uint64(256<<10 + 64<<10 + 2*g.Dict().Len())
		if ix.Runs() > 1 {
			bound += uint64(64*ix.Tombstones() + 4*6<<10)
		}
		t.Logf("%s: %d triples in %d runs, %d tombstones, %d terms: file %d bytes, allocated %d (bound %d)",
			name, g.NumEdges(), ix.Runs(), ix.Tombstones(), g.Dict().Len(), st.Size(), allocated, bound)
		if allocated > bound {
			t.Fatalf("%s: WriteSnapshotV2 allocated %d bytes for a %d-byte file, more than its bound %d",
				name, allocated, st.Size(), bound)
		}
	}
	check("heap", store.NewIndex(g))

	// The same triples over the graph's own mapped snapshot, 20 batches
	// of which are deleted and added back, one run each.
	path := filepath.Join(t.TempDir(), "base.rdfsum")
	if err := store.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	sf, err := store.OpenSnapshotFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	ix, all := store.NewIndexFromBase(sf.Runs()), g.All()
	for i := 0; i < 20; i++ {
		batch := all[i*100 : (i+1)*100]
		ix = ix.Applied(nil, batch).Applied(batch, nil)
	}
	if ix.Runs() < 3 || ix.Tombstones() == 0 {
		t.Fatalf("the tiered index holds %d runs and %d tombstones, want a merge", ix.Runs(), ix.Tombstones())
	}
	check("tiered", ix)
}
