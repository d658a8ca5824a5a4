package core

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/datagen"
	"rdfsum/internal/dot"
	"rdfsum/internal/lubm"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/store"
)

// renderSummary is a summary's N-Triples followed by its DOT, both in ID
// order: bytes that differ whenever two summaries name their nodes in
// different orders.
func renderSummary(t *testing.T, s *Summary) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ntriples.Write(&buf, s.Graph.Decode()); err != nil {
		t.Fatal(err)
	}
	if err := dot.Write(&buf, s.Graph, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSummaryBytesDeterministic: summarizing one graph twenty times in one
// process gives byte-identical N-Triples and DOT per kind. Both render the
// summary in ID order, so the test fails whenever a snapshot names its
// nodes in an order the input does not fix — Go's map iteration order,
// which changes from one loop to the next, being the one such order.
func TestSummaryBytesDeterministic(t *testing.T) {
	graphs := corpusGraphs(t)
	graphs["random"] = datagen.RandomGraph(datagen.Default(26))
	render := func(s *Summary) []byte { return renderSummary(t, s) }
	for name, g := range graphs {
		for _, kind := range Kinds {
			first := render(MustSummarize(g, kind))
			for i := 1; i < 20; i++ {
				if got := render(MustSummarize(g, kind)); !bytes.Equal(got, first) {
					t.Errorf("%s, %v: summarization %d rendered differently from the first:\n%s\nfirst:\n%s", name, kind, i+1, got, first)
					break
				}
			}
		}
	}
	// A summary of a summary is summarized over the first summary's own
	// dictionary.
	g := MustSummarize(graphs["random"], Weak).Graph
	first := render(MustSummarize(g, TypeBased))
	for i := 1; i < 20; i++ {
		if got := render(MustSummarize(g, TypeBased)); !bytes.Equal(got, first) {
			t.Fatalf("summary of a summary: summarization %d rendered differently", i+1)
		}
	}
}

// TestSummaryIndependentOfComponentOrder: a summary names its nodes in an
// order the triples' IDs fix, not the order the components list them in.
// Every kind renders to the same N-Triples and DOT from a graph and from
// copies over the same dictionary whose data, type and schema components
// are shuffled, sorted SPO or reversed. A typed summary names its
// class-set nodes in the order of their sorted class-ID lists
// (classSetTracker.summarize), not in the order the type component first
// lists each set, so a snapshot need not keep that component's order.
func TestSummaryIndependentOfComponentOrder(t *testing.T) {
	graphs := corpusGraphs(t)
	graphs["random"] = datagen.RandomGraph(datagen.Default(26))
	graphs["bsbm"] = bsbm.GenerateGraph(bsbm.DefaultConfig(60))
	graphs["lubm"] = lubm.GenerateGraph(lubm.DefaultConfig(1))
	render := func(s *Summary) []byte { return renderSummary(t, s) }
	rng := rand.New(rand.NewPCG(26, 1))
	orders := map[string]func([]store.Triple){
		"shuffled": func(ts []store.Triple) { rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] }) },
		"spo": func(ts []store.Triple) {
			slices.SortFunc(ts, func(a, b store.Triple) int {
				return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.P, b.P), cmp.Compare(a.O, b.O))
			})
		},
		"reversed": slices.Reverse[[]store.Triple],
	}
	for name, g := range graphs {
		for _, kind := range Kinds {
			want := render(MustSummarize(g, kind))
			for oname, order := range orders {
				h := g.CloneStructure()
				order(h.Data)
				order(h.Types)
				order(h.Schema)
				if got := render(MustSummarize(h, kind)); !bytes.Equal(got, want) {
					t.Errorf("%s, %v: components in %s order render a different summary", name, kind, oname)
				}
			}
		}
	}
}

// TestMaintainedSummaryBytesMatchSummarize: a summary's bytes are a
// function of its graph alone. A BuilderSet maintaining all five kinds
// through a random mix of adds, deletes and re-adds renders, at every
// checkpoint and for every kind, the N-Triples and DOT that Summarize of
// a copy of its graph renders — though the set has named nodes in earlier
// snapshots and met its class sets in another order than the copy lists
// them in.
func TestMaintainedSummaryBytesMatchSummarize(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		pool := datagen.RandomGraph(datagen.Default(seed)).Decode()
		rng := rand.New(rand.NewPCG(seed, 44))
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		set, err := NewBuilderSet(store.NewGraph(), Kinds)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range pool {
			set.Add(tr)
			if rng.IntN(4) == 0 {
				set.Delete(pool[rng.IntN(i+1)])
			}
			if i%97 != 96 && i != len(pool)-1 {
				continue
			}
			for _, kind := range Kinds {
				got, err := set.Summary(kind)
				if err != nil {
					t.Fatal(err)
				}
				want := MustSummarize(set.Graph().CloneStructure(), kind)
				if !bytes.Equal(renderSummary(t, got), renderSummary(t, want)) {
					t.Fatalf("seed %d, %v after %d adds: the maintained summary renders other bytes than Summarize of its graph", seed, kind, i+1)
				}
			}
		}
	}
}
