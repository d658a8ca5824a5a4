package core

import (
	"bytes"
	"testing"

	"rdfsum/internal/datagen"
	"rdfsum/internal/dot"
	"rdfsum/internal/ntriples"
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
