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

// writeTemp writes g's snapshot to a fresh temp file and returns the
// path and what the write allocated (runtime.MemStats.TotalAlloc).
func writeTemp(t *testing.T, g *store.Graph, cols store.RunCols) (path string, allocated uint64) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "g.rdfsum")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := store.WriteSnapshotV2(f, g, cols); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return path, after.TotalAlloc - before.TotalAlloc
}

// TestWriteSnapshotV2ByteIdenticalBSBM: the BSBM-300 snapshot is the file
// the whole-buffer writer of commit 9f022f1 produced (length and SHA-256
// recorded from that code; see TestWriteSnapshotV2ByteIdentical).
func TestWriteSnapshotV2ByteIdenticalBSBM(t *testing.T) {
	const (
		wantLen = 696530
		wantSHA = "08dcdf58e3ca60dd201a478580b8077043c0914d9ef3b46482406f18b46c12c2"
	)
	g := bsbm.GenerateGraph(bsbm.DefaultConfig(300))
	path, _ := writeTemp(t, g, store.NewRunCols(g.All()))
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); len(got) != wantLen || sum != wantSHA {
		t.Fatalf("BSBM-300 snapshot: %d bytes, sha256 %s; the parent's writer produced %d bytes, sha256 %s",
			len(got), sum, wantLen, wantSHA)
	}
}

// TestSnapshotWriteAllocBound: writing a snapshot allocates one chunk
// buffer and O(terms) — the dictionary's directory and sorted
// permutation — whatever the file's size. The whole-buffer writer this
// replaced allocated about five times the file.
func TestSnapshotWriteAllocBound(t *testing.T) {
	g := bsbm.GenerateGraph(bsbm.DefaultConfig(1000))
	cols := store.NewRunCols(g.All())
	path, allocated := writeTemp(t, g, cols)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	bound := uint64(1<<20 + 96*g.Dict().Len())
	t.Logf("%d triples, %d terms: file %d bytes, allocated %d (bound %d)",
		g.NumEdges(), g.Dict().Len(), st.Size(), allocated, bound)
	if allocated > bound {
		t.Fatalf("WriteSnapshotV2 allocated %d bytes for a %d-byte file, more than 1 MB + 96 B × %d terms = %d",
			allocated, st.Size(), g.Dict().Len(), bound)
	}
}
