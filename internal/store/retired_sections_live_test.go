package store_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/core"
	"rdfsum/internal/dict"
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
// snapshot holds retired sections — col-osp, what every build before its
// retirement wrote, or that and dict-sorted, comp-data, comp-types and
// comp-schema, what every build before theirs wrote — opens and serves
// the graph of the same file without them, and its first Compact writes
// a generation without them, which reopens to the same graph.
func TestLiveServesSortedSectionGeneration(t *testing.T) {
	seed := bsbm.GenerateGraph(bsbm.DefaultConfig(20))
	for _, tc := range []struct {
		name string
		old  func(raw []byte) []byte
	}{
		{"col-osp", func(raw []byte) []byte { return store.WithOSPColumn(t, raw) }},
		{"every retired section", func(raw []byte) []byte {
			unpacked := store.WithUnpackedDict(t, store.WithOSPColumn(t, raw))
			return store.WithSortedSection(t, store.WithComponentSections(t, store.WithTypeSection(t, unpacked, seed), seed))
		}},
	} {
		dir, gen1, raw := seededGeneration(t, seed)
		want, _, err := store.ReadGraph(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gen1, tc.old(raw), 0o644); err != nil {
			t.Fatal(err)
		}

		l, err := live.Open(dir, nil)
		if err != nil {
			t.Fatalf("%s: Open of a generation with retired sections: %v", tc.name, err)
		}
		store.IdenticalGraphs(t, want, l.Snapshot().Graph)
		added := rdf.NewTriple(rdf.NewIRI("http://x/new"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("new"))
		if err := l.Add(added); err != nil {
			t.Fatal(err)
		}
		want.Add(added)
		if err := l.Compact(); err != nil {
			t.Fatalf("%s: Compact of a generation with retired sections: %v", tc.name, err)
		}
		info, err := store.InspectSnapshot(filepath.Join(dir, "snapshot-2.rdfsum"))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range info.Sections {
			if s.Retired {
				t.Fatalf("%s: the compacted generation holds the retired section %s", tc.name, s.Name)
			}
		}
		if len(info.Sections) != 6 {
			t.Fatalf("%s: the compacted generation holds sections %+v, want six", tc.name, info.Sections)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if l, err = live.Open(dir, nil); err != nil {
			t.Fatal(err)
		}
		store.IdenticalGraphs(t, store.AsOpened(want), l.Snapshot().Graph)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
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

// sameAnswers requires the index over got's base run to answer every
// pattern want's does: for every seventh triple of g, each of the eight
// patterns binding some of its positions, the same count and the same
// triples in the same order.
func sameAnswers(t *testing.T, what string, want, got *store.SnapshotFile, g *store.Graph) {
	t.Helper()
	wix, gix := store.NewIndexFromBase(want.Runs()), store.NewIndexFromBase(got.Runs())
	collect := func(ix *store.Index, s, p, o dict.ID) []store.Triple {
		var out []store.Triple
		ix.ForEach(s, p, o, func(tr store.Triple) bool { out = append(out, tr); return true })
		return out
	}
	all := g.All()
	for i := 0; i < len(all); i += 7 {
		tr := all[i]
		for mask := 0; mask < 8; mask++ {
			s, p, o := dict.None, dict.None, dict.None
			if mask&1 != 0 {
				s = tr.S
			}
			if mask&2 != 0 {
				p = tr.P
			}
			if mask&4 != 0 {
				o = tr.O
			}
			if wc, gc := wix.Count(s, p, o), gix.Count(s, p, o); wc != gc ||
				!slices.Equal(collect(wix, s, p, o), collect(gix, s, p, o)) {
				t.Fatalf("%s: pattern (%d %d %d) answers %d triples, the tagged columns %d", what, s, p, o, gc, wc)
			}
		}
	}
}

// TestUntaggedColumnsServed: a snapshot whose columns a build before the
// tagged steps wrote (sections 7–9, what withOldColumns rebuilds of
// withOSPColumn's file) opens
// through OpenGraphFile and ReadGraph to the graph of the same file with
// tagged columns, and answers every pattern and renders every summary
// kind as that graph does; inspect names the untagged sections, marked
// retired. A live store over it opens to the same graph and summaries,
// and its first Compact writes the tagged sections 11 and 12 in their
// place, which reopen to the same graph.
func TestUntaggedColumnsServed(t *testing.T) {
	seed := bsbm.GenerateGraph(bsbm.DefaultConfig(20))
	dir, gen1, raw := seededGeneration(t, seed)
	want, wantSF, err := store.ReadGraph(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	summaries := map[core.Kind][]byte{}
	for _, kind := range core.Kinds {
		summaries[kind] = render(t, core.MustSummarize(want, kind))
	}
	old := store.WithOldColumns(t, store.WithUnpackedDict(t, store.WithOSPColumn(t, raw)))
	if err := os.WriteFile(gen1, old, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := store.InspectSnapshot(gen1)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range info.Sections {
		names = append(names, s.Name)
		if strings.HasSuffix(s.Name, "-untagged") != s.Retired {
			t.Errorf("inspect marks %s retired = %v", s.Name, s.Retired)
		}
	}
	if want := []string{"dict-pages", "dict-dir", "col-spo-untagged", "col-pos-untagged", "col-osp-untagged", "vocab"}; !slices.Equal(names, want) {
		t.Fatalf("the rebuilt file holds sections %v, want %v", names, want)
	}

	mapped, mappedSF, err := store.OpenGraphFile(gen1)
	if err != nil {
		t.Fatalf("OpenGraphFile of untagged columns: %v", err)
	}
	defer mappedSF.Close()
	streamed, streamedSF, err := store.ReadGraph(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("ReadGraph of untagged columns: %v", err)
	}
	for what, opened := range map[string]struct {
		g  *store.Graph
		sf *store.SnapshotFile
	}{"OpenGraphFile": {mapped, mappedSF}, "ReadGraph": {streamed, streamedSF}} {
		store.IdenticalGraphs(t, want, opened.g)
		sameAnswers(t, what, wantSF, opened.sf, want)
		for _, kind := range core.Kinds {
			if got := render(t, core.MustSummarize(opened.g, kind)); !bytes.Equal(got, summaries[kind]) {
				t.Errorf("%s, %v: the graph over untagged columns renders another summary", what, kind)
			}
		}
	}

	l, err := live.Open(dir, &live.Options{Maintain: core.Kinds})
	if err != nil {
		t.Fatalf("Open of a generation with untagged columns: %v", err)
	}
	store.IdenticalGraphs(t, want, l.Snapshot().Graph)
	for _, kind := range core.Kinds {
		s, _, err := l.Summary(kind, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(render(t, s), summaries[kind]) {
			t.Errorf("%v: the store over untagged columns serves another summary", kind)
		}
	}
	added := rdf.NewTriple(rdf.NewIRI("http://x/new"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("new"))
	if err := l.Add(added); err != nil {
		t.Fatal(err)
	}
	want.Add(added)
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact of a generation with untagged columns: %v", err)
	}
	if info, err = store.InspectSnapshot(filepath.Join(dir, "snapshot-2.rdfsum")); err != nil {
		t.Fatal(err)
	}
	names = names[:0]
	for _, s := range info.Sections {
		names = append(names, s.Name)
	}
	if want := []string{"dict-pages", "dict-dir", "dict-symbols", "col-spo", "col-pos", "vocab"}; !slices.Equal(names, want) {
		t.Fatalf("the compacted generation holds sections %v, want %v", names, want)
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
