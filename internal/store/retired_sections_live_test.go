package store_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/live"
	"rdfsum/internal/rdf"
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

// TestLiveServesSortedSectionGeneration: a store whose generation
// snapshot holds the retired sections — dict-sorted, comp-data and
// comp-schema, what every build before their retirement wrote — opens
// and serves the graph of the same file without them, and its first
// Compact writes a generation without them, which reopens to the same
// graph.
func TestLiveServesSortedSectionGeneration(t *testing.T) {
	seed := bsbm.GenerateGraph(bsbm.DefaultConfig(20))
	dir, gen1, raw := seededGeneration(t, seed)
	want, _, err := store.ReadGraph(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	old := store.WithSortedSection(t, store.WithComponentSections(t, raw, seed))
	if err := os.WriteFile(gen1, old, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := live.Open(dir, nil)
	if err != nil {
		t.Fatalf("Open of a generation with retired sections: %v", err)
	}
	store.IdenticalGraphs(t, want, l.Snapshot().Graph)
	added := rdf.NewTriple(rdf.NewIRI("http://x/new"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("new"))
	if err := l.Add(added); err != nil {
		t.Fatal(err)
	}
	want.Add(added)
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact of a generation with retired sections: %v", err)
	}
	info, err := store.InspectSnapshot(filepath.Join(dir, "snapshot-2.rdfsum"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range info.Sections {
		if s.Retired {
			t.Fatalf("the compacted generation holds the retired section %s", s.Name)
		}
	}
	if len(info.Sections) != 7 {
		t.Fatalf("the compacted generation holds sections %+v, want seven", info.Sections)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = live.Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	store.IdenticalGraphs(t, store.AsOpened(want), l.Snapshot().Graph)
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
