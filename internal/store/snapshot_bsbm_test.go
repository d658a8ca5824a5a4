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
// triple and scratch buffers, and returns the path and what the write
// allocated (runtime.MemStats.TotalAlloc).
func writeTemp(t *testing.T, g *store.Graph, buf, scratch []store.Triple) (path string, allocated uint64) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "g.rdfsum")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := store.WriteSnapshotV2(f, g, buf, scratch); err != nil {
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
	path, _ := writeTemp(t, g, g.All(), nil)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSHA = 213118, "87c8011d909eb68e1eee8e5447277f97ee4add1e16d241efa393dd0efb0daac5"
	if sum := fmt.Sprintf("%x", sha256.Sum256(file)); len(file) != wantLen || sum != wantSHA {
		t.Errorf("BSBM-300 snapshot: %d bytes, sha256 %s; want %d bytes, sha256 %s", len(file), sum, wantLen, wantSHA)
	}
}

// TestSnapshotWriteAllocBound: handed its triple and scratch buffers,
// writing a snapshot allocates one chunk buffer and O(terms) — the
// dictionary's directory, 8 B per 16 terms — whatever the file's size:
// at most 256 KB + 64 KB + 2 B × terms. The whole-buffer writer this
// replaced allocated about five times the file; the writer that still
// wrote the sorted permutation, 482 KB on this graph.
func TestSnapshotWriteAllocBound(t *testing.T) {
	g := bsbm.GenerateGraph(bsbm.DefaultConfig(1000))
	buf := g.All()
	path, allocated := writeTemp(t, g, buf, make([]store.Triple, len(buf)))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	bound := uint64(256<<10 + 64<<10 + 2*g.Dict().Len())
	t.Logf("%d triples, %d terms: file %d bytes, allocated %d (bound %d)",
		g.NumEdges(), g.Dict().Len(), st.Size(), allocated, bound)
	if allocated > bound {
		t.Fatalf("WriteSnapshotV2 allocated %d bytes for a %d-byte file, more than 256 KB + 64 KB + 2 B × %d terms = %d",
			allocated, st.Size(), g.Dict().Len(), bound)
	}
}
