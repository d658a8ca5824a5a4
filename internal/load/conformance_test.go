package load

import (
	"reflect"
	"strings"
	"testing"

	"rdfsum/internal/ntriples"
	"rdfsum/internal/query"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
	"rdfsum/internal/turtle"
)

// termRow is one row of the conformance tables of the terminals the two
// readers and the query parser read through ntriples.Lexer: IRIREF, the
// string forms and their escapes (ECHAR, UCHAR), LANGTAG, datatype IRIs
// and BLANK_NODE_LABEL. obj is the object of one statement, everything
// after `<http://a/s> <http://a/p> `, and of one query pattern.
type termRow struct {
	name, obj string
	want      *rdf.Term
}

// termRows: a row with a want term is accepted as that term by all three,
// a row without one is refused by all three.
var termRows = []termRow{
	{"IRI", `<http://a/o> .`, iri("http://a/o")},
	{"IRI with UCHARs", `<http://a/\u00e9\U0001F600> .`, iri("http://a/é😀")},
	{"IRI with an escaped '>'", `<http://a/\u003E> .`, iri("http://a/>")},
	{"IRI with raw { | ^ \"", `<http://a/{x|y^"}> .`, iri(`http://a/{x|y^"}`)},
	{"IRI with an ECHAR", `<http://a/o\tx> .`, nil},
	{"IRI with an escaped quote", `<http://a/o\"x> .`, nil},
	{"IRI with an unknown escape", `<http://a/o\qx> .`, nil},
	{"IRI with a space", `<http://a/o x> .`, nil},
	{"IRI with a tab", "<http://a/o\tx> .", nil},
	{"IRI with a bad hex digit", `<http://a/\u00zz> .`, nil},
	{"IRI with an escaped surrogate", `<http://a/\uD800> .`, nil},
	{"IRI with a truncated UCHAR", `<http://a/\u00`, nil},
	{"unterminated IRI", `<http://a/o .`, nil},

	{"string", `"v" .`, lit("v", "", "")},
	{"empty string", `"" .`, lit("", "", "")},
	{"string with every ECHAR", `"\t\b\n\r\f\"\'\\" .`, lit("\t\b\n\r\f\"'\\", "", "")},
	{"string with UCHARs", `"\u00e9\U0001F600" .`, lit("é😀", "", "")},
	{"string with an unknown escape", `"a\qb" .`, nil},
	{"string with a bad hex digit", `"\u00zz" .`, nil},
	{"string with a short UCHAR", `"\u00" .`, nil},
	{"string with an escaped surrogate", `"\uDC00" .`, nil},
	{"string with a dangling backslash", `"a\`, nil},
	{"unterminated string", `"a .`, nil},
	{"string with a raw carriage return", "\"a\rb\" .", nil},
	{"single-quoted string with a raw carriage return", "'a\rb' .", nil},

	{"long string whose close is escaped", `"""a\""" .`, nil},
	{"long string with an unknown escape", `"""a\qb""" .`, nil},
	{"unterminated long string", `"""a" .`, nil},
	{"unterminated single-quoted string", `'a .`, nil},

	{"language tag", `"v"@en-GB .`, lit("v", "en-GB", "")},
	{"language tag with digits", `"v"@x-1a .`, lit("v", "x-1a", "")},
	{"language tag with several subtags", `"v"@de-CH-1901 .`, lit("v", "de-CH-1901", "")},
	{"language tag ending in '-'", `"v"@en- .`, nil},
	{"language tag starting with a digit", `"v"@1 .`, nil},
	{"language tag starting with '-'", `"v"@-x .`, nil},
	{"language tag with an empty subtag", `"v"@en--x .`, nil},
	{"language tag with a digit in its first subtag", `"v"@en1 .`, nil},
	{"language tag before the final dot", `"v"@en.`, lit("v", "en", "")},
	{"empty language tag", `"v"@ .`, nil},
	{"language tag with '_'", `"v"@en_US .`, nil},

	{"datatype IRI", `"1"^^<http://a/int> .`, lit("1", "", "http://a/int")},
	{"datatype IRI with a UCHAR", `"1"^^<http://a/\u0069nt> .`, lit("1", "", "http://a/int")},
	{"datatype IRI with an ECHAR", `"x"^^<http://t\n> .`, nil},
	{"datatype IRI with a space", `"x"^^<http://t x> .`, nil},
	{"datatype IRI with an escaped backslash", `"x"^^<http://t\u005Cn> .`, lit("x", "", `http://t\n`)},

	{"blank label", `_:b0 .`, blank("b0")},
	{"blank label of a digit", `_:0 .`, blank("0")},
	{"blank label with '_' and '-'", `_:a_b-c .`, blank("a_b-c")},
	{"blank label starting with '_'", `_:_a .`, blank("_a")},
	{"blank label starting with '-'", `_:-a .`, nil},
	{"blank label with a letter beyond ASCII", `_:é .`, blank("é")},
	{"blank label with an inner dot", `_:a.b .`, blank("a.b")},
	{"blank label with inner dots", `_:a..b .`, blank("a..b")},
	{"blank label with a dot before '-'", `_:a.-b .`, blank("a.-b")},
	{"blank label before the final dot", `_:a.b.`, blank("a.b")},
	{"blank label with a '/'", `_:a/b .`, nil},
	{"blank label with a symbol beyond ASCII", `_:a€ .`, nil},
	{"blank label starting with '.'", `_:.a .`, nil},
	{"empty blank label", `_: .`, nil},
	{"blank label ending in '.'", `_:a. .`, nil},
}

// stringFormRows are the string forms Turtle and SPARQL write and
// N-Triples does not: each is read as its want term by Turtle and by the
// query parser, and refused by N-Triples.
var stringFormRows = []termRow{
	{"single-quoted string", `'v' .`, lit("v", "", "")},
	{"single-quoted string holding quotes", `'a"b\'' .`, lit(`a"b'`, "", "")},
	{"long string", `"""v""" .`, lit("v", "", "")},
	{"long string over two lines", "\"\"\"a\n\"\"b\"\"\" .", lit("a\n\"\"b", "", "")},
	{"long string closed after an escaped quote", `"""a\"""" .`, lit(`a"`, "", "")},
	{"long string with UCHARs", `"""\u00e9\U0001F600""" .`, lit("é😀", "", "")},
	{"single-quoted long string", "'''a'b''c''' .", lit("a'b''c", "", "")},
	{"single-quoted string with a language tag", `'v'@en .`, lit("v", "en", "")},
	{"long string with a datatype IRI", `"""1"""^^<http://a/int> .`, lit("1", "", "http://a/int")},
}

func iri(v string) *rdf.Term { t := rdf.NewIRI(v); return &t }

func blank(v string) *rdf.Term { t := rdf.NewBlank(v); return &t }

func lit(v, lang, dt string) *rdf.Term {
	t := rdf.Term{Kind: rdf.Literal, Value: v, Lang: lang, Datatype: dt}
	return &t
}

const rowSubject = "<http://a/s> <http://a/p> "

// TestTermConformance runs every row of termRows and stringFormRows
// through both readers and the query parser.
func TestTermConformance(t *testing.T) {
	for i, row := range append(termRows[:len(termRows):len(termRows)], stringFormRows...) {
		ntRefuses := i >= len(termRows)
		t.Run(row.name, func(t *testing.T) {
			doc := rowSubject + row.obj + "\n"
			nt, ntErr := ntriples.ParseString(doc)
			ttl, ttlErr := turtle.ParseString(doc)
			src := "SELECT ?s WHERE { ?s <http://a/p> " + row.obj + " }"
			q, qErr := query.Parse(src)
			if row.want == nil {
				if ntErr == nil || ttlErr == nil || qErr == nil {
					t.Fatalf("%q: want every reader to refuse it; N-Triples: %v, Turtle: %v, query: %v", doc, ntErr, ttlErr, qErr)
				}
				return
			}
			want := []rdf.Triple{{S: rdf.NewIRI("http://a/s"), P: rdf.NewIRI("http://a/p"), O: *row.want}}
			if ntRefuses {
				if ntErr == nil {
					t.Errorf("%q: N-Triples read %v, want it refused", doc, nt)
				}
			} else if ntErr != nil || !reflect.DeepEqual(nt, want) {
				t.Errorf("%q: N-Triples read %v (%v), want %v", doc, nt, ntErr, want)
			}
			if ttlErr != nil || !reflect.DeepEqual(ttl, want) {
				t.Errorf("%q: Turtle read %v (%v), want %v", doc, ttl, ttlErr, want)
			}
			if qErr != nil || len(q.Patterns) != 1 || q.Patterns[0].O != query.Const(*row.want) {
				t.Errorf("%q: query read %v (%v), want the object %v", src, q, qErr, *row.want)
			}
		})
	}
}

// TestPrefixNames: a prefix declaration names one PNAME_NS — a name, or
// nothing, and ':' — in Turtle's two directive forms and in a query's
// PREFIX, and everything else is refused by all three.
func TestPrefixNames(t *testing.T) {
	for _, row := range []struct {
		decl string
		ok   bool
	}{
		{"ex:", true},
		{":", true},
		{"ns0:", true},
		{"a.b:", true},
		{"é:", true},
		{"a b:", false},
		{"ex :", false},
		{"a/b:", false},
		{"a.:", false},
		{"1a:", false},
		{"_a:", false},
		{"-a:", false},
		{"ex", false},
	} {
		prefix := strings.TrimSuffix(row.decl, ":")
		body := prefix + ":s " + prefix + ":p " + prefix + ":o"
		for _, src := range []string{
			"@prefix " + row.decl + " <http://a/> .\n" + body + " .\n",
			"PREFIX " + row.decl + " <http://a/>\n" + body + " .\n",
		} {
			ts, err := turtle.ParseString(src)
			want := []rdf.Triple{{S: rdf.NewIRI("http://a/s"), P: rdf.NewIRI("http://a/p"), O: rdf.NewIRI("http://a/o")}}
			if row.ok && (err != nil || !reflect.DeepEqual(ts, want)) {
				t.Errorf("%q: Turtle read %v (%v), want %v", src, ts, err, want)
			}
			if !row.ok && err == nil {
				t.Errorf("%q: Turtle read %v, want it refused", src, ts)
			}
		}
		src := "PREFIX " + row.decl + " <http://a/>\nASK { " + body + " }"
		q, err := query.Parse(src)
		if row.ok && (err != nil || q.Patterns[0].S != query.IRI("http://a/s")) {
			t.Errorf("%q: query read %v (%v)", src, q, err)
		}
		if !row.ok && err == nil {
			t.Errorf("%q: query read %v, want it refused", src, q)
		}
	}
}

// FuzzNTriplesIsTurtle: N-Triples is a subset of Turtle, so whatever
// ntriples.ParseString accepts, turtle.ParseString accepts too, with
// identical triples.
func FuzzNTriplesIsTurtle(f *testing.F) {
	f.Add(`<http://x/s> <http://x/p> <http://x/o> .
<http://x/s> <http://x/q> "lit"@en .
_:b0 <http://x/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:a.b <http://x/p> _:c.d.
`)
	for _, row := range termRows {
		if row.want != nil {
			f.Add(rowSubject + row.obj + "\n")
		}
	}
	f.Fuzz(func(t *testing.T, doc string) {
		nt, err := ntriples.ParseString(doc)
		if err != nil {
			return
		}
		ttl, err := turtle.ParseString(doc)
		if err != nil {
			t.Fatalf("N-Triples accepts %q, Turtle refuses it: %v", doc, err)
		}
		if !reflect.DeepEqual(nt, ttl) {
			t.Fatalf("%q: N-Triples read %v, Turtle %v", doc, nt, ttl)
		}
	})
}

// FuzzQueryNamesReaderTerms: a query names the terms a load stores. For
// every single-triple document Turtle accepts, ASK { s p o } written from
// the triple's terms' String() parses to the same three terms and is true
// over the graph of that triple. The empty IRI is left out: Turtle reads
// <> as the base, and a query refuses it.
func FuzzQueryNamesReaderTerms(f *testing.F) {
	for _, row := range append(termRows[:len(termRows):len(termRows)], stringFormRows...) {
		if row.want != nil {
			f.Add(rowSubject + row.obj + "\n")
		}
	}
	f.Add("@prefix ex: <http://ex.org/> .\nex:s a ex:T .\n")
	f.Add("_:b <http://p> -2.5e3 .")
	f.Fuzz(func(t *testing.T, doc string) {
		ts, err := turtle.ParseString(doc)
		if err != nil || len(ts) != 1 {
			return
		}
		tr := ts[0]
		for _, term := range []rdf.Term{tr.S, tr.P, tr.O} {
			if term.Kind == rdf.IRI && term.Value == "" {
				return
			}
		}
		src := "ASK { " + tr.S.String() + " " + tr.P.String() + " " + tr.O.String() + " }"
		q, err := query.Parse(src)
		if err != nil {
			t.Fatalf("Turtle read %q as %v; the query %q is refused: %v", doc, tr, src, err)
		}
		want := query.Pattern{S: query.Const(tr.S), P: query.Const(tr.P), O: query.Const(tr.O)}
		if len(q.Patterns) != 1 || q.Patterns[0] != want {
			t.Fatalf("%q: query read %v, want %v", src, q.Patterns, want)
		}
		g := store.FromTriples(ts)
		if found, err := query.Ask(g, store.NewIndex(g), q); err != nil || !found {
			t.Fatalf("%q over %v: %v (%v), want true", src, tr, found, err)
		}
	})
}
