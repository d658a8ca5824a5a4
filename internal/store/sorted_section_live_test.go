package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/live"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// TestLiveServesSortedSectionGeneration: a store whose generation
// snapshot holds the retired dict-sorted section — what every build
// before its retirement wrote — opens and serves the graph of the same
// file without it, and its first Compact writes a generation without the
// section, which reopens to the same graph.
func TestLiveServesSortedSectionGeneration(t *testing.T) {
	dir := t.TempDir()
	l, err := live.Open(dir, &live.Options{Seed: bsbm.GenerateGraph(bsbm.DefaultConfig(20))})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	gen1 := filepath.Join(dir, "snapshot-1.rdfsum")
	raw, err := os.ReadFile(gen1)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := store.ReadGraph(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gen1, store.WithSortedSection(t, raw), 0o644); err != nil {
		t.Fatal(err)
	}

	if l, err = live.Open(dir, nil); err != nil {
		t.Fatalf("Open of a generation with dict-sorted: %v", err)
	}
	store.IdenticalGraphs(t, want, l.Snapshot().Graph)
	added := rdf.NewTriple(rdf.NewIRI("http://x/new"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("new"))
	if err := l.Add(added); err != nil {
		t.Fatal(err)
	}
	want.Add(added)
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact of a generation with dict-sorted: %v", err)
	}
	info, err := store.InspectSnapshot(filepath.Join(dir, "snapshot-2.rdfsum"))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Sections) != 9 || slices.ContainsFunc(info.Sections, func(s store.SectionInfo) bool { return s.Name == "dict-sorted" }) {
		t.Fatalf("the compacted generation holds sections %+v, want nine without dict-sorted", info.Sections)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = live.Open(dir, nil); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	store.IdenticalGraphs(t, want, l.Snapshot().Graph)
}
