package core

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/datagen"
	"rdfsum/internal/dict"
	"rdfsum/internal/lubm"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// refComputeWeights is ComputeWeights as a map-per-statistic computation:
// a copy of the quotient map, one hash set of endpoints per summary edge,
// one map insert per triple end. It is the reference the table-based
// ComputeWeights must equal field for field.
func refComputeWeights(s *Summary) *Weights {
	type edgeAcc struct {
		count     int
		subj, obj map[dict.ID]struct{}
	}
	accumulate := func(m map[store.Triple]*edgeAcc, e store.Triple, s, o dict.ID) {
		a := m[e]
		if a == nil {
			a = &edgeAcc{subj: make(map[dict.ID]struct{}), obj: make(map[dict.ID]struct{})}
			m[e] = a
		}
		a.count++
		a.subj[s] = struct{}{}
		a.obj[o] = struct{}{}
	}
	flatten := func(m map[store.Triple]*edgeAcc, keyOf func(store.Triple) dict.ID) ([]EdgeStat, map[dict.ID][]EdgeStat) {
		all := make([]EdgeStat, 0, len(m))
		for e, a := range m {
			all = append(all, EdgeStat{Edge: e, Count: a.count, DistinctS: len(a.subj), DistinctO: len(a.obj)})
		}
		slices.SortFunc(all, func(x, y EdgeStat) int {
			a, b := x.Edge, y.Edge
			return cmp.Or(cmp.Compare(a.P, b.P), cmp.Compare(a.S, b.S), cmp.Compare(a.O, b.O))
		})
		byKey := make(map[dict.ID][]EdgeStat)
		for _, st := range all {
			k := keyOf(st.Edge)
			byKey[k] = append(byKey[k], st)
		}
		return all, byKey
	}

	w := &Weights{
		NodeCard: make([]int, s.Graph.Dict().Len()+1),
		EdgeCard: make(map[store.Triple]int, len(s.Graph.Data)),
		TypeCard: make(map[store.Triple]int, len(s.Graph.Types)),
		nodeOf:   s.NodeOf,
	}
	for _, rep := range nodeOfMap(s) {
		w.NodeCard[rep]++
	}
	// Input terms translate by their lexical form, not through the
	// summary's own table.
	term := func(id dict.ID) dict.ID {
		r := termOf(s, id)
		w.terms.Set(id, r)
		return r
	}
	typ := s.Graph.Vocab().Type
	dataAcc := make(map[store.Triple]*edgeAcc)
	typeAcc := make(map[store.Triple]*edgeAcc)
	schemaAcc := make(map[store.Triple]*edgeAcc)
	for _, t := range s.Input.Data {
		e := store.Triple{S: s.NodeOf.Get(t.S), P: term(t.P), O: s.NodeOf.Get(t.O)}
		w.EdgeCard[e]++
		accumulate(dataAcc, e, t.S, t.O)
	}
	for _, t := range s.Input.Types {
		e := store.Triple{S: s.NodeOf.Get(t.S), P: typ, O: term(t.O)}
		w.TypeCard[e]++
		accumulate(typeAcc, e, t.S, t.O)
	}
	for _, t := range s.Input.Schema {
		accumulate(schemaAcc, store.Triple{S: term(t.S), P: term(t.P), O: term(t.O)}, t.S, t.O)
	}
	w.allData, w.dataEdges = flatten(dataAcc, func(e store.Triple) dict.ID { return e.P })
	w.allTypes, w.typeEdges = flatten(typeAcc, func(e store.Triple) dict.ID { return e.O })
	w.allSchema, w.schemaEdges = flatten(schemaAcc, func(e store.Triple) dict.ID { return e.P })
	w.propCount = make(map[dict.ID]int)
	for e, c := range w.EdgeCard {
		w.propCount[e.P] += c
	}
	return w
}

// sameWeights reports whether ComputeWeights equals the reference on s.
func sameWeights(t *testing.T, what string, s *Summary) bool {
	t.Helper()
	got, want := s.ComputeWeights(), refComputeWeights(s)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: %v weights differ from the reference\ngot  %+v\nwant %+v", what, s.Kind, got, want)
		return false
	}
	return true
}

// corpusGraphs loads the curated graphs of the samples corpus.
func corpusGraphs(t *testing.T) map[string]*store.Graph {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "samples", "testdata", "*.nt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("samples corpus: %v (%d files)", err, len(paths))
	}
	out := make(map[string]*store.Graph, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		triples, err := ntriples.Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = store.FromTriples(triples)
	}
	return out
}

// TestComputeWeightsMatchesReference holds ComputeWeights to the map-based
// reference, reflect.DeepEqual on the whole Weights, for every kind over
// random graphs, the samples corpus, BSBM and LUBM, sets built by
// interleaved adds and deletes, and summaries of summaries (whose input is
// itself a summary, over a dictionary of its own).
func TestComputeWeightsMatchesReference(t *testing.T) {
	graphs := corpusGraphs(t)
	graphs["bsbm"] = bsbm.GenerateGraph(bsbm.DefaultConfig(60))
	graphs["lubm"] = lubm.GenerateGraph(lubm.DefaultConfig(1))
	for name, g := range graphs {
		for _, kind := range Kinds {
			s := MustSummarize(g, kind)
			sameWeights(t, name, s)
			sameWeights(t, name+", summary of the summary", MustSummarize(s.Graph, kind))
		}
	}

	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		for _, kind := range Kinds {
			s := MustSummarize(g, kind)
			if !sameWeights(t, "random graph", s) || !sameWeights(t, "random summary of a summary", MustSummarize(s.Graph, kind)) {
				t.Logf("seed %d", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestComputeWeightsAfterInterleavedUpdates: a set fed a random
// interleaving of adds and deletes (with duplicates, late types and
// re-adds) yields weights equal to the reference after every batch.
func TestComputeWeightsAfterInterleavedUpdates(t *testing.T) {
	f := func(seed uint64) bool {
		triples := datagen.RandomGraph(datagen.FromQuickSeed(seed)).Decode()
		rng := rand.New(rand.NewPCG(seed, 26))
		set, err := NewBuilderSet(store.NewGraph(), Kinds)
		if err != nil {
			t.Fatal(err)
		}
		var added []rdf.Triple
		for step := 0; step < 4; step++ {
			for range len(triples) / 3 {
				tr := triples[rng.IntN(len(triples))]
				set.Add(tr)
				added = append(added, tr)
			}
			var del []rdf.Triple
			for range len(added) / 5 {
				del = append(del, added[rng.IntN(len(added))])
			}
			set.DeleteBatch(del)
			for _, kind := range Kinds {
				s, err := set.Summary(kind)
				if err != nil {
					t.Fatal(err)
				}
				if !sameWeights(t, "interleaved set", s) {
					t.Logf("seed %d, step %d", seed, step)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
