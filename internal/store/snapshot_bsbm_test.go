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
// file. With no dictionary suffix packed, it is the file the writer of
// commit 30dc72e produced; with its columns in untagged steps too, the
// file the writer of commit 736fe37 produced; with its dictionary coded as before the kind
// byte's flags too, the file the writer of commit 9327bce produced; with the comp-types
// section put back too, the file the writer of commit 82e8d0d produced; with the comp-data and comp-schema sections
// put back too, the file the writer of commit 8484cf6 produced; with
// dict-sorted put back as well, the file the whole-buffer writer of
// commit 9f022f1 produced (lengths and SHA-256 recorded from that code;
// see TestWriteSnapshotV2ByteIdentical).
func TestWriteSnapshotV2ByteIdenticalBSBM(t *testing.T) {
	g := bsbm.GenerateGraph(bsbm.DefaultConfig(300))
	path, _ := writeTemp(t, g, g.All(), nil)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unpacked := store.WithUnpackedDict(t, file)
	untagged := store.WithOldColumns(t, unpacked)
	oldCoded := store.WithOldCoding(t, untagged)
	typed := store.WithTypeSection(t, oldCoded, g)
	old := store.WithComponentSections(t, typed, g)
	for _, c := range []struct {
		what, wantSHA string
		wantLen       int
		got           []byte
	}{
		{"BSBM-300 snapshot", "00d94c906a3f91da14fcc6e30e532fb70ea3fc4a2bc684607f8e1763044dd3df", 262291, file},
		{"BSBM-300 snapshot with no suffix packed", "a50e33a61b2323c5d1e779cd734dc7a9545eeaffb868c33be25f6cf33558ede8", 401534, unpacked},
		{"BSBM-300 snapshot with untagged columns", "803d927f46a9985d8b1818df6be664688ae1da18d2637c0fe3da5b6b7638a48e", 454782, untagged},
		{"BSBM-300 snapshot in the old coding", "5203ed38ccc0d4ed312bca02286bb3fffefd965e17346442eda0dfbeb1487fd9", 569470, oldCoded},
		{"BSBM-300 snapshot with comp-types", "87424ed7f346ec746f1f2013994d3a73cd06ef7df4259279877881f0230cb868", 581779, typed},
		{"BSBM-300 snapshot with comp-data and comp-schema besides", "fd4bf165740be4be75e76f48b0a6c1b5a818c336bfde6c3e1b42266ec02e80c4", 667837, old},
		{"BSBM-300 snapshot with dict-sorted besides", "08dcdf58e3ca60dd201a478580b8077043c0914d9ef3b46482406f18b46c12c2", 696530,
			store.WithSortedSection(t, old)},
	} {
		if sum := fmt.Sprintf("%x", sha256.Sum256(c.got)); len(c.got) != c.wantLen || sum != c.wantSHA {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, sha256 %s", c.what, len(c.got), sum, c.wantLen, c.wantSHA)
		}
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
