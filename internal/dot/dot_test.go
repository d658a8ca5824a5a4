package dot

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rdfsum/internal/core"
	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

func TestWriteBasics(t *testing.T) {
	g := samples.Fig2()
	var buf bytes.Buffer
	if err := Write(&buf, g, &Options{Title: "fig2"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph rdfsum {", `label="fig2"`, "author", "τ", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("DOT output not closed")
	}
}

func TestWriteSummaryLabels(t *testing.T) {
	s := core.MustSummarize(samples.Fig2(), core.TypedWeak)
	var buf bytes.Buffer
	if err := Write(&buf, s.Graph, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "C{") {
		t.Error("class-set nodes should render as C{...}")
	}
	if !strings.Contains(out, "N[in:") {
		t.Error("summary nodes should render as N[in:... out:...]")
	}
}

func TestWriteTruncation(t *testing.T) {
	g := samples.Fig2()
	var buf bytes.Buffer
	if err := Write(&buf, g, &Options{MaxNodes: 3}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 of") {
		t.Error("truncation comment missing")
	}
}

// TestWriteNamesNodesByPosition: nodes are named n0, n1, … in the order
// they are listed, so two graphs whose dictionaries number the same terms
// in the same order but from other IDs — here, one that interned terms
// the graph never uses first — render to the same bytes.
func TestWriteNamesNodesByPosition(t *testing.T) {
	render := func(g *store.Graph) string {
		var buf bytes.Buffer
		if err := Write(&buf, g, &Options{Title: "fig2"}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := render(samples.Fig2())
	d := dict.New()
	for i := 0; i < 40; i++ {
		d.Encode(rdf.NewIRI(fmt.Sprintf("http://unused.example.org/%d", i)))
	}
	shifted := store.NewGraphWithDict(d)
	for _, tr := range samples.Fig2Triples() {
		shifted.Add(tr)
	}
	if got := render(shifted); got != want {
		t.Fatalf("the graph over a dictionary numbered from 41 renders otherwise:\n%s\nwant\n%s", got, want)
	}
	nodes := strings.Count(want, "shape=")
	for k := 0; k < nodes; k++ {
		if !strings.Contains(want, fmt.Sprintf("  n%d [shape=", k)) {
			t.Fatalf("node %d of %d is not named n%d:\n%s", k, nodes, k, want)
		}
	}
}
