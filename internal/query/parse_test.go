package query

import (
	"reflect"
	"testing"

	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// awkwardGraph is a graph whose IRIs hold a space, '>' and '\' (written
// back as \u escapes) and whose literals hold every ECHAR, in property,
// class, subject and object positions.
func awkwardGraph() *store.Graph {
	iris := []string{"http://a/x y", "http://a/x>y", `http://a/o\tx`, `http://a/A`}
	lits := []rdf.Term{
		rdf.NewLiteral("\t\b\n\r\f\"'\\"),
		rdf.NewLangLiteral(`a"b`, "en-GB"),
		rdf.NewTypedLiteral(`1\n`, "http://a/int y"),
	}
	var ts []rdf.Triple
	for i, s := range iris {
		for j, p := range iris {
			o := rdf.NewIRI(iris[(i+j)%len(iris)])
			ts = append(ts,
				rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: o},
				rdf.Triple{S: rdf.NewIRI(s), P: rdf.NewIRI(p), O: lits[(i+j)%len(lits)]},
				rdf.Triple{S: rdf.NewIRI(s), P: rdf.Type(), O: rdf.NewIRI(p + "#C")})
		}
	}
	return store.FromTriples(ts)
}

// TestParseReadsStringBack: Parse(q.String()) is q, for every query
// ExtractRBGP draws over awkwardGraph and for ASK queries naming each of
// its triples, literals included.
func TestParseReadsStringBack(t *testing.T) {
	g := awkwardGraph()
	check := func(q *Query) {
		t.Helper()
		back, err := Parse(q.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", q.String(), err)
		}
		if !reflect.DeepEqual(back, q) {
			t.Fatalf("Parse(%q) = %v, want %v", q.String(), back, q)
		}
	}
	rng := NewRNG(3)
	for i := 0; i < 200; i++ {
		q, ok := ExtractRBGP(g, rng, 1+i%4)
		if !ok {
			t.Fatal("extraction failed on a non-empty graph")
		}
		check(q)
	}
	ix := store.NewIndex(g)
	d := g.Dict()
	for _, part := range [][]store.Triple{g.Data, g.Types} {
		for _, tr := range part {
			q := &Query{Patterns: []Pattern{{S: Const(d.Term(tr.S)), P: Const(d.Term(tr.P)), O: Const(d.Term(tr.O))}}}
			check(q)
			if found, err := Ask(g, ix, q); err != nil || !found {
				t.Fatalf("%s: %v (%v), want true", q, found, err)
			}
		}
	}
}

// BenchmarkParse parses every query text of the committed BSBM and LUBM
// mixes once an iteration.
func BenchmarkParse(b *testing.B) {
	var texts []string
	for _, mix := range regressionMixes {
		texts = append(texts, mix.queries...)
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, s := range texts {
			if _, err := Parse(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestParseErrorOffsets: a refusal by the shared lexer is reported in the
// parser's own form, at the byte offset the lexer points at.
func TestParseErrorOffsets(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`ASK { ?x <http://a/p> <http://a/o\tx> }`, `query: at offset 33: invalid escape \t in IRI`},
		{`ASK { ?x <http://a/p> "a\qb" }`, `query: at offset 24: invalid escape \q`},
		{`ASK { ?x <http://a/p> """a\""" }`, `query: at offset 25: unterminated long string`},
		{`ASK { ?x <http://a/p> _: }`, `query: at offset 24: empty blank node label`},
		{`ASK { ?x <http://a/p> "v"@ }`, `query: at offset 26: empty language tag`},
		{`ASK { ?x <http://a/p> <> }`, `query: at offset 24: empty IRI`},
		{`ASK { ?x <http://a/p> ex }`, `query: at offset 22: expected a prefixed name`},
		{`ASK { ?x <http://a/p> ex:o }`, `query: at offset 26: undeclared prefix "ex"`},
		{"PREFIX a b: <http://a/>\nASK { ?x a:p ?y }", `query: at offset 7: PREFIX: expected a prefix name and ':'`},
	} {
		if _, err := Parse(c.src); err == nil || err.Error() != c.want {
			t.Errorf("Parse(%q) = %v, want %s", c.src, err, c.want)
		}
	}
}
