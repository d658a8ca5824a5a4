package load

import (
	"reflect"
	"testing"

	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
	"rdfsum/internal/turtle"
)

// termRows is the conformance table of the terminals both readers read
// through ntriples.Lexer: IRIREF, string escapes (ECHAR, UCHAR), LANGTAG,
// datatype IRIs and BLANK_NODE_LABEL. Each row is the object of one
// statement, everything after `<http://a/s> <http://a/p> `. A row with a
// want term is accepted by both readers as that term; a row without one is
// refused by both.
var termRows = []struct {
	name, obj string
	want      *rdf.Term
}{
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

	{"language tag", `"v"@en-GB .`, lit("v", "en-GB", "")},
	{"language tag with digits", `"v"@x-1a .`, lit("v", "x-1a", "")},
	{"language tag ending in '-'", `"v"@en- .`, lit("v", "en-", "")},
	{"language tag before the final dot", `"v"@en.`, lit("v", "en", "")},
	{"empty language tag", `"v"@ .`, nil},

	{"datatype IRI", `"1"^^<http://a/int> .`, lit("1", "", "http://a/int")},
	{"datatype IRI with a UCHAR", `"1"^^<http://a/\u0069nt> .`, lit("1", "", "http://a/int")},
	{"datatype IRI with an ECHAR", `"x"^^<http://t\n> .`, nil},
	{"datatype IRI with a space", `"x"^^<http://t x> .`, nil},

	{"blank label", `_:b0 .`, blank("b0")},
	{"blank label of a digit", `_:0 .`, blank("0")},
	{"blank label with '_' and '-'", `_:a_b-c .`, blank("a_b-c")},
	{"blank label starting with '-'", `_:-a .`, blank("-a")},
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

func iri(v string) *rdf.Term { t := rdf.NewIRI(v); return &t }

func blank(v string) *rdf.Term { t := rdf.NewBlank(v); return &t }

func lit(v, lang, dt string) *rdf.Term {
	t := rdf.Term{Kind: rdf.Literal, Value: v, Lang: lang, Datatype: dt}
	return &t
}

const rowSubject = "<http://a/s> <http://a/p> "

// TestTermConformance runs every row of termRows through both readers.
func TestTermConformance(t *testing.T) {
	for _, row := range termRows {
		t.Run(row.name, func(t *testing.T) {
			doc := rowSubject + row.obj + "\n"
			nt, ntErr := ntriples.ParseString(doc)
			ttl, ttlErr := turtle.ParseString(doc)
			if row.want == nil {
				if ntErr == nil || ttlErr == nil {
					t.Fatalf("%q: want both readers to refuse it; N-Triples: %v, Turtle: %v", doc, ntErr, ttlErr)
				}
				return
			}
			want := []rdf.Triple{{S: rdf.NewIRI("http://a/s"), P: rdf.NewIRI("http://a/p"), O: *row.want}}
			if ntErr != nil || !reflect.DeepEqual(nt, want) {
				t.Errorf("%q: N-Triples read %v (%v), want %v", doc, nt, ntErr, want)
			}
			if ttlErr != nil || !reflect.DeepEqual(ttl, want) {
				t.Errorf("%q: Turtle read %v (%v), want %v", doc, ttl, ttlErr, want)
			}
		})
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
