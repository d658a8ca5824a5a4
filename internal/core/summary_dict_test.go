package core

import (
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// checkSummaryDict holds one summary to the contract of a summary's own
// dictionary: it is exactly the interpreted vocabulary plus the terms the
// summary's triples reference, every EdgeStat of its weights is a triple
// of its graph, and a snapshot of it reads back as the same triples.
func checkSummaryDict(t *testing.T, what string, s *Summary) bool {
	t.Helper()
	g := s.Graph
	v := g.Vocab()
	held := map[dict.ID]bool{v.Type: true, v.SubClass: true, v.SubProp: true, v.Domain: true, v.Range: true}
	for _, tr := range g.All() {
		held[tr.S], held[tr.P], held[tr.O] = true, true, true
	}
	if held[dict.None] || g.Dict().Len() != len(held) {
		t.Errorf("%s/%v: dictionary holds %d terms, the vocabulary and the triples reference %d (None among them: %v)",
			what, s.Kind, g.Dict().Len(), len(held), held[dict.None])
		return false
	}

	w := s.ComputeWeights()
	for _, c := range []struct {
		stats   []EdgeStat
		triples []store.Triple
	}{{w.DataEdges(dict.None), g.Data}, {w.TypeEdges(dict.None), g.Types}, {w.SchemaEdges(dict.None), g.Schema}} {
		triples := map[store.Triple]bool{}
		for _, tr := range c.triples {
			triples[tr] = true
		}
		for _, st := range c.stats {
			if !triples[st.Edge] {
				t.Errorf("%s/%v: EdgeStat %v is no triple of the summary's component", what, s.Kind, st.Edge)
				return false
			}
		}
	}

	path := filepath.Join(t.TempDir(), "summary.snap")
	if err := store.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := store.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.CanonicalStrings(), g.CanonicalStrings()) {
		t.Errorf("%s/%v: snapshot round trip changed the summary", what, s.Kind)
		return false
	}
	return true
}

// TestSummaryOwnDictionary: every kind, summarized in one shot and
// maintained by a set fed random adds and deletes, gets a dictionary of
// its own that checkSummaryDict accepts, and no summary moves the input
// dictionary's Len.
func TestSummaryOwnDictionary(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		for _, kind := range Kinds {
			before := g.Dict().Len()
			s := MustSummarize(g, kind)
			if !checkSummaryDict(t, "one-shot", s) {
				return false
			}
			if g.Dict().Len() != before {
				t.Errorf("one-shot %v: input dictionary went from %d to %d terms", kind, before, g.Dict().Len())
				return false
			}
		}

		triples := g.Decode()
		rng := rand.New(rand.NewPCG(seed, 45))
		set, err := NewBuilderSet(store.NewGraph(), Kinds)
		if err != nil {
			t.Fatal(err)
		}
		var added []rdf.Triple
		for step := 0; step < 3; step++ {
			for range len(triples) / 2 {
				tr := triples[rng.IntN(len(triples))]
				set.Add(tr)
				added = append(added, tr)
			}
			var del []rdf.Triple
			for range len(added) / 4 {
				del = append(del, added[rng.IntN(len(added))])
			}
			set.DeleteBatch(del)
			before := set.Graph().Dict().Len()
			for _, kind := range Kinds {
				s, err := set.Summary(kind)
				if err != nil {
					t.Fatal(err)
				}
				if !checkSummaryDict(t, "maintained", s) {
					t.Logf("seed %d, step %d", seed, step)
					return false
				}
			}
			if after := set.Graph().Dict().Len(); after != before {
				t.Errorf("maintained: five snapshots took the input dictionary from %d to %d terms", before, after)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
