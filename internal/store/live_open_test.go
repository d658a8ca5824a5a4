package store_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/live"
	"rdfsum/internal/store"
)

// seededGeneration lays out a live store in a fresh directory, seeded
// with seed, and returns the directory and its generation 1 snapshot's
// path and bytes.
func seededGeneration(t *testing.T, seed *store.Graph) (dir, gen1 string, raw []byte) {
	t.Helper()
	dir = t.TempDir()
	l, err := live.Open(dir, &live.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	gen1 = filepath.Join(dir, "snapshot-1.rdfsum")
	if raw, err = os.ReadFile(gen1); err != nil {
		t.Fatal(err)
	}
	return dir, gen1, raw
}

// TestLiveOpenChecksSPOColumn: a store's open of its own generation
// derives the data and schema components from the snapshot's SPO column,
// so each fault store.OpenGraphFile refuses there (TestOpenChecksSPOColumn)
// fails live.Open with ErrSnapshotCorrupt too, without a panic.
func TestLiveOpenChecksSPOColumn(t *testing.T) {
	seed := store.WithFreshSubjects(bsbm.GenerateGraph(bsbm.DefaultConfig(20)), 600)
	_, _, raw := seededGeneration(t, seed)
	for _, tc := range store.SPOCheckCases(t, raw) {
		dir, gen1, _ := seededGeneration(t, seed)
		if err := os.WriteFile(gen1, tc.Data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := live.Open(dir, nil)
		if err == nil {
			l.Close()
		}
		if !errors.Is(err, store.ErrSnapshotCorrupt) {
			t.Errorf("%s: live.Open got %v, want ErrSnapshotCorrupt", tc.What, err)
		}
	}
}

// TestLiveRefusesRetiredLayouts: a store whose generation snapshot holds
// a section of a retired layout, or no dict-symbols (store.CutoffCases),
// does not open: live.Open fails with ErrSnapshotVersion naming commit
// 26fbe2b, the last build that reads it, and the migration, and leaves
// every file in the store's directory as it was — the same names, sizes
// and bytes.
func TestLiveRefusesRetiredLayouts(t *testing.T) {
	seed := bsbm.GenerateGraph(bsbm.DefaultConfig(20))
	_, _, raw := seededGeneration(t, seed)
	for _, tc := range store.CutoffCases(t, raw) {
		dir, gen1, _ := seededGeneration(t, seed)
		if err := os.WriteFile(gen1, tc.Data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirFiles(t, dir)
		l, err := live.Open(dir, nil)
		if err == nil {
			l.Close()
		}
		if !errors.Is(err, store.ErrSnapshotVersion) || !strings.Contains(err.Error(), "26fbe2b") ||
			!strings.Contains(err.Error(), "/v1/compact") {
			t.Fatalf("%s: live.Open got %v, want ErrSnapshotVersion naming commit 26fbe2b and /v1/compact", tc.What, err)
		}
		if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: the refused Open changed the store's directory", tc.What)
		}
	}
}

// dirFiles returns every file under dir, by its path relative to dir,
// with its bytes.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
