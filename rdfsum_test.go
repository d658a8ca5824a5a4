package rdfsum_test

import (
	"bytes"
	"strings"
	"testing"

	"rdfsum"
)

const sampleNT = `
<http://example.org/doi1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> .
<http://example.org/doi1> <http://example.org/writtenBy> _:b1 .
<http://example.org/doi1> <http://example.org/hasTitle> "Le Port des Brumes" .
_:b1 <http://example.org/hasName> "G. Simenon" .
<http://example.org/doi1> <http://example.org/publishedIn> "1932" .
<http://example.org/Book> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://example.org/Publication> .
<http://example.org/writtenBy> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://example.org/hasAuthor> .
<http://example.org/writtenBy> <http://www.w3.org/2000/01/rdf-schema#domain> <http://example.org/Book> .
<http://example.org/writtenBy> <http://www.w3.org/2000/01/rdf-schema#range> <http://example.org/Person> .
`

func TestEndToEndPublicAPI(t *testing.T) {
	triples, err := rdfsum.ParseString(sampleNT)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if v := rdfsum.CheckWellBehaved(triples); v != nil {
		t.Fatalf("sample not well-behaved: %v", v)
	}
	g := rdfsum.NewGraph(triples)
	if g.NumEdges() != 9 {
		t.Fatalf("NumEdges = %d, want 9", g.NumEdges())
	}

	// The §2.1 query needs saturation for a complete answer.
	q, err := rdfsum.ParseQuery(`PREFIX ex: <http://example.org/>
		SELECT ?name WHERE {
			?x ex:hasAuthor ?a . ?a ex:hasName ?name . ?x ex:hasTitle ?t }`)
	if err != nil {
		t.Fatalf("ParseQuery: %v", err)
	}
	res, err := rdfsum.EvalQueryWithOptions(g, rdfsum.NewIndex(g), q, nil)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("q(G) = %v (err %v), want empty", res, err)
	}
	inf := rdfsum.Saturate(g)
	res, err = rdfsum.EvalQueryWithOptions(inf, rdfsum.NewIndex(inf), q, nil)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("q(G∞) = %v (err %v), want one row", res, err)
	}
	if res.Rows[0][0] != rdfsum.NewLiteral("G. Simenon") {
		t.Errorf("answer = %v, want G. Simenon", res.Rows[0][0])
	}

	// All summary kinds build and compress.
	for _, kind := range []rdfsum.Kind{rdfsum.Weak, rdfsum.Strong, rdfsum.TypedWeak,
		rdfsum.TypedStrong, rdfsum.TypeBased} {
		s, err := rdfsum.Summarize(g, kind)
		if err != nil {
			t.Fatalf("Summarize(%v): %v", kind, err)
		}
		if s.Stats.AllEdges == 0 {
			t.Errorf("%v summary is empty", kind)
		}
		if len(s.Graph.Schema) != len(g.Schema) {
			t.Errorf("%v summary altered the schema component", kind)
		}
	}

	// DOT export.
	var dotBuf bytes.Buffer
	s, _ := rdfsum.Summarize(g, rdfsum.Weak)
	if err := rdfsum.ExportDOT(&dotBuf, s.Graph, "weak"); err != nil {
		t.Fatalf("ExportDOT: %v", err)
	}
	if !strings.Contains(dotBuf.String(), "digraph") {
		t.Error("DOT export missing digraph header")
	}

	// N-Triples round trip via the facade.
	var ntBuf bytes.Buffer
	if err := rdfsum.WriteNTriples(&ntBuf, g.Decode()); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	back, err := rdfsum.Parse(&ntBuf)
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if len(back) != g.NumEdges() {
		t.Errorf("round trip kept %d of %d triples", len(back), g.NumEdges())
	}
}

func TestSnapshotViaFacade(t *testing.T) {
	g := rdfsum.GenerateBSBM(20)
	path := t.TempDir() + "/bsbm.snapshot"
	if err := rdfsum.SaveSnapshot(path, g); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	h, err := rdfsum.LoadSnapshot(path)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Errorf("snapshot round trip: %d != %d edges", h.NumEdges(), g.NumEdges())
	}
}

func TestLoadNTriplesFile(t *testing.T) {
	path := t.TempDir() + "/g.nt"
	triples, _ := rdfsum.ParseString(sampleNT)
	f := bytes.Buffer{}
	if err := rdfsum.WriteNTriples(&f, triples); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, f.Bytes()); err != nil {
		t.Fatal(err)
	}
	sequential := &rdfsum.LoadOptions{Workers: 1, Format: rdfsum.FormatNTriples}
	g, err := rdfsum.LoadFile(path, sequential)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if g.NumEdges() != 9 {
		t.Errorf("loaded %d edges, want 9", g.NumEdges())
	}
	if _, err := rdfsum.LoadFile(path+".missing", sequential); err == nil {
		t.Error("missing file must error")
	}
}

func TestParseKindFacade(t *testing.T) {
	for name, want := range map[string]rdfsum.Kind{
		"weak": rdfsum.Weak, "s": rdfsum.Strong, "tw": rdfsum.TypedWeak,
		"typed-strong": rdfsum.TypedStrong, "tb": rdfsum.TypeBased,
	} {
		got, err := rdfsum.ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = (%v,%v), want %v", name, got, err, want)
		}
	}
	if _, err := rdfsum.ParseKind("nope"); err == nil {
		t.Error("ParseKind must reject unknown names")
	}
}
