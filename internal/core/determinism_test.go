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

// TestSummaryBytesDeterministic: summarizing one graph twenty times in one
// process gives byte-identical N-Triples and DOT per kind. Both render the
// summary in ID order, so the test fails whenever a snapshot names its
// nodes in an order the input does not fix — Go's map iteration order,
// which changes from one loop to the next, being the one such order.
func TestSummaryBytesDeterministic(t *testing.T) {
	graphs := corpusGraphs(t)
	graphs["random"] = datagen.RandomGraph(datagen.Default(26))
	render := func(s *Summary) []byte {
		var buf bytes.Buffer
		if err := ntriples.Write(&buf, s.Graph.Decode()); err != nil {
			t.Fatal(err)
		}
		if err := dot.Write(&buf, s.Graph, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
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
	// A summary of a summary names its nodes in a second overlay layer.
	g := MustSummarize(graphs["random"], Weak).Graph
	first := render(MustSummarize(g, TypeBased))
	for i := 1; i < 20; i++ {
		if got := render(MustSummarize(g, TypeBased)); !bytes.Equal(got, first) {
			t.Fatalf("summary of a summary: summarization %d rendered differently", i+1)
		}
	}
}

// TestSummaryIndependentOfComponentOrder: a summary names its nodes in an
// order the triples' IDs fix, not the order the data and schema
// components list them in. Every kind renders to the same N-Triples and
// DOT from a graph and from copies over the same dictionary whose data
// and schema components are shuffled, sorted SPO or reversed; the weak
// and strong summaries do so with the type component reordered too. A
// typed summary numbers its class-set nodes in the order the type
// component first lists each set (BuilderSet seeding, classes.addType),
// which is why a snapshot keeps the type component in insertion order.
func TestSummaryIndependentOfComponentOrder(t *testing.T) {
	graphs := corpusGraphs(t)
	graphs["random"] = datagen.RandomGraph(datagen.Default(26))
	graphs["bsbm"] = bsbm.GenerateGraph(bsbm.DefaultConfig(60))
	graphs["lubm"] = lubm.GenerateGraph(lubm.DefaultConfig(1))
	render := func(s *Summary) []byte {
		var buf bytes.Buffer
		if err := ntriples.Write(&buf, s.Graph.Decode()); err != nil {
			t.Fatal(err)
		}
		if err := dot.Write(&buf, s.Graph, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
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
				order(h.Schema)
				if kind == Weak || kind == Strong {
					order(h.Types)
				}
				if got := render(MustSummarize(h, kind)); !bytes.Equal(got, want) {
					t.Errorf("%s, %v: components in %s order render a different summary", name, kind, oname)
				}
			}
		}
	}
}
