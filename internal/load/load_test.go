package load

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/dict"
	"rdfsum/internal/lubm"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/store"
)

// render serializes g as N-Triples text.
func render(t *testing.T, g *store.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ntriples.Write(&buf, g.Decode()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reference is the graph a load of the N-Triples document doc must
// equal: the parsed triples, encoded by store.FromTriples.
func reference(t *testing.T, doc []byte) *store.Graph {
	t.Helper()
	ts, err := ntriples.Parse(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return store.FromTriples(ts)
}

// loadNTriples loads doc as N-Triples.
func loadNTriples(doc string) (*store.Graph, error) {
	return Reader(strings.NewReader(doc), Options{Format: FormatNTriples})
}

// assertIdentical checks that got is bit-identical to want: same
// dictionary contents in the same ID order, and the same triple slices in
// the same component order.
func assertIdentical(t *testing.T, want, got *store.Graph) {
	t.Helper()
	wd, gd := want.Dict(), got.Dict()
	if wd.Len() != gd.Len() {
		t.Fatalf("dictionary size: reference %d terms, load %d", wd.Len(), gd.Len())
	}
	for id := 1; id <= wd.Len(); id++ {
		w, g := wd.Term(dict.ID(id)), gd.Term(dict.ID(id))
		if w != g {
			t.Fatalf("dictionary id %d: reference %v, load %v", id, w, g)
		}
	}
	assertSameTriples(t, "Data", want.Data, got.Data)
	assertSameTriples(t, "Types", want.Types, got.Types)
	assertSameTriples(t, "Schema", want.Schema, got.Schema)
}

func assertSameTriples(t *testing.T, name string, want, got []store.Triple) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: reference %d triples, load %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s[%d]: reference %v, load %v", name, i, want[i], got[i])
		}
	}
}

// TestLoadMatchesReferenceGenerated checks the loader against the
// reference construction on the two benchmark generators.
func TestLoadMatchesReferenceGenerated(t *testing.T) {
	graphs := map[string]*store.Graph{
		"bsbm": bsbm.GenerateGraph(bsbm.DefaultConfig(100)), // ≈6k triples
		"lubm": lubm.GenerateGraph(lubm.DefaultConfig(2)),   // ≈7k triples
	}
	for name, src := range graphs {
		t.Run(name, func(t *testing.T) {
			data := render(t, src)
			got, err := loadNTriples(string(data))
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, reference(t, data), got)
		})
	}
}

// TestLoadMatchesReferenceHandwritten exercises the syntax corners:
// comments, blank lines, CRLF endings, escapes, blank nodes, typed and
// language-tagged literals, schema and type triples, no trailing newline.
func TestLoadMatchesReferenceHandwritten(t *testing.T) {
	doc := strings.Join([]string{
		"# leading comment",
		"",
		"<http://example.org/a> <http://example.org/p> <http://example.org/b> .",
		"<http://example.org/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/C> .\r",
		"_:b1 <http://example.org/p> \"lit with \\\"quotes\\\" and \\n newline\" .",
		"   ",
		"<http://example.org/C> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://example.org/D> .",
		"<http://example.org/p> <http://www.w3.org/2000/01/rdf-schema#domain> <http://example.org/C> . # trailing",
		"<http://example.org/a> <http://example.org/q> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
		"<http://example.org/a> <http://example.org/q> \"chat\"@fr .",
		"<http://example.org/z> <http://example.org/p> _:b1 .", // no trailing newline
	}, "\n")
	got, err := loadNTriples(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != 8 {
		t.Fatalf("expected 8 triples, got %d", got.NumEdges())
	}
	assertIdentical(t, reference(t, []byte(doc)), got)
}

// TestEmptyAndCommentOnly loads degenerate documents, their format
// detected.
func TestEmptyAndCommentOnly(t *testing.T) {
	for _, doc := range []string{"", "\n\n\n", "# only a comment\n", "# c1\n\n# c2"} {
		g, err := Reader(strings.NewReader(doc), Options{})
		if err != nil {
			t.Fatalf("%q: %v", doc, err)
		}
		if g.NumEdges() != 0 {
			t.Fatalf("%q: expected empty graph, got %d triples", doc, g.NumEdges())
		}
	}
}

// TestErrorLineNumbers places a malformed line at a known position deep
// into the input, past many of the reader's slabs, and checks it is
// reported exactly.
func TestErrorLineNumbers(t *testing.T) {
	var b strings.Builder
	const badLine = 917
	for i := 1; i <= 1200; i++ {
		if i == badLine {
			b.WriteString("<http://example.org/broken> <http://example.org/p> .\n") // missing object
			continue
		}
		fmt.Fprintf(&b, "<http://example.org/s%d> <http://example.org/p> <http://example.org/o%d> .\n", i, i)
	}
	_, err := loadNTriples(b.String())
	var pe *ntriples.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *ParseError, got %v", err)
	}
	if pe.Line != badLine {
		t.Fatalf("expected error at line %d, got line %d (%s)", badLine, pe.Line, pe.Msg)
	}
}

// TestReportsFirstError: with several bad lines, the reported error is
// the first in document order.
func TestReportsFirstError(t *testing.T) {
	var b strings.Builder
	bad := map[int]bool{200: true, 350: true}
	for i := 1; i <= 400; i++ {
		if bad[i] {
			b.WriteString("not a triple\n")
			continue
		}
		fmt.Fprintf(&b, "<http://example.org/s%d> <http://example.org/p> <http://example.org/o%d> .\n", i, i)
	}
	_, err := loadNTriples(b.String())
	var pe *ntriples.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *ParseError, got %v", err)
	}
	if pe.Line != 200 {
		t.Fatalf("reported line %d, want the first malformed line, 200", pe.Line)
	}
}

// TestEarlierErrorBeatsOverlongFinalLine: when the final chunk holds both
// a malformed triple and an overlong unterminated last line, the
// malformed line is reported — the first error in document order.
func TestEarlierErrorBeatsOverlongFinalLine(t *testing.T) {
	doc := "<http://e.org/a> <http://e.org/p> <http://e.org/b> .\n" +
		"not a triple\n" +
		strings.Repeat("y", ntriples.MaxLineBytes+2)
	_, err := loadNTriples(doc)
	var pe *ntriples.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *ParseError, got %v", err)
	}
	if pe.Line != 2 {
		t.Fatalf("expected the malformed line 2, got line %d (%s)", pe.Line, pe.Msg)
	}
}

// TestNTriplesFile exercises the file-based entry point end to end.
func TestNTriplesFile(t *testing.T) {
	src := bsbm.GenerateGraph(bsbm.DefaultConfig(20))
	data := render(t, src)
	path := filepath.Join(t.TempDir(), "data.nt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := File(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, reference(t, data), got)
	if got.NumEdges() != src.NumEdges() {
		t.Fatalf("loaded %d triples, generated %d", got.NumEdges(), src.NumEdges())
	}
}

// TestDefaultOptions checks the zero Options load a document.
func TestDefaultOptions(t *testing.T) {
	doc := "<http://example.org/a> <http://example.org/p> <http://example.org/b> .\n"
	g, err := Reader(strings.NewReader(doc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("expected 1 triple, got %d", g.NumEdges())
	}
}
