package turtle

import (
	"errors"
	"reflect"
	"testing"

	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
)

func mustParse(t *testing.T, s string) []rdf.Triple {
	t.Helper()
	ts, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return ts
}

func TestBasicTriples(t *testing.T) {
	ts := mustParse(t, `
@prefix ex: <http://ex.org/> .
# a comment
ex:s ex:p ex:o .
<http://ex.org/s2> a ex:Book .
_:b1 ex:p "lit" .
`)
	want := []rdf.Triple{
		{S: rdf.NewIRI("http://ex.org/s"), P: rdf.NewIRI("http://ex.org/p"), O: rdf.NewIRI("http://ex.org/o")},
		{S: rdf.NewIRI("http://ex.org/s2"), P: rdf.Type(), O: rdf.NewIRI("http://ex.org/Book")},
		{S: rdf.NewBlank("b1"), P: rdf.NewIRI("http://ex.org/p"), O: rdf.NewLiteral("lit")},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("parsed %v, want %v", ts, want)
	}
}

func TestPredicateAndObjectLists(t *testing.T) {
	ts := mustParse(t, `
@prefix ex: <http://ex.org/> .
ex:s ex:p ex:o1 , ex:o2 ;
     ex:q "a" , "b" ;
     a ex:Thing .
`)
	if len(ts) != 5 {
		t.Fatalf("parsed %d triples, want 5: %v", len(ts), ts)
	}
	for _, tr := range ts[:4] {
		if tr.S != rdf.NewIRI("http://ex.org/s") {
			t.Errorf("subject not shared across ';' list: %v", tr)
		}
	}
	// Dangling semicolon is legal.
	ts = mustParse(t, "@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o ; .")
	if len(ts) != 1 {
		t.Errorf("dangling ';': %d triples, want 1", len(ts))
	}
}

func TestLiteralForms(t *testing.T) {
	ts := mustParse(t, `
@prefix ex: <http://ex.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:a "plain" .
ex:s ex:b "tagged"@en-GB .
ex:s ex:c "typed"^^xsd:string .
ex:s ex:d "typed2"^^<http://ex.org/dt> .
ex:s ex:e 42 .
ex:s ex:f -3.14 .
ex:s ex:g 1.0e6 .
ex:s ex:h true .
ex:s ex:i false .
ex:s ex:j """long
"quoted" string""" .
ex:s ex:k "esc\t\"é"@fr .
`)
	want := []rdf.Term{
		rdf.NewLiteral("plain"),
		rdf.NewLangLiteral("tagged", "en-GB"),
		rdf.NewTypedLiteral("typed", rdf.XSDString),
		rdf.NewTypedLiteral("typed2", "http://ex.org/dt"),
		rdf.NewTypedLiteral("42", rdf.XSDInteger),
		rdf.NewTypedLiteral("-3.14", rdf.XSDDecimal),
		rdf.NewTypedLiteral("1.0e6", rdf.XSDDouble),
		rdf.NewTypedLiteral("true", rdf.XSDBoolean),
		rdf.NewTypedLiteral("false", rdf.XSDBoolean),
		rdf.NewLiteral("long\n\"quoted\" string"),
		rdf.NewLangLiteral("esc\t\"é", "fr"),
	}
	if len(ts) != len(want) {
		t.Fatalf("parsed %d triples, want %d", len(ts), len(want))
	}
	for i, w := range want {
		if ts[i].O != w {
			t.Errorf("object %d = %#v, want %#v", i, ts[i].O, w)
		}
	}
}

func TestBaseAndSparqlStyleDirectives(t *testing.T) {
	ts := mustParse(t, `
BASE <http://base.org/>
PREFIX ex: <http://ex.org/>
<rel> ex:p <http://abs.org/x> .
`)
	if ts[0].S != rdf.NewIRI("http://base.org/rel") {
		t.Errorf("base resolution: %v", ts[0].S)
	}
	if ts[0].O != rdf.NewIRI("http://abs.org/x") {
		t.Errorf("absolute IRI must not be re-based: %v", ts[0].O)
	}
}

// TestDottedLocalNames: inner dots, runs of them and a dot before '-'
// included, are part of a local name, as the writer's validLocal allows;
// a final dot ends the statement.
func TestDottedLocalNames(t *testing.T) {
	for _, local := range []string{"a.b", "a..b", "a.-b"} {
		ts := mustParse(t, "@prefix ex: <http://ex.org/> .\nex:"+local+" ex:p ex:"+local+".")
		if want := rdf.NewIRI("http://ex.org/" + local); ts[0].S != want || ts[0].O != want {
			t.Errorf("ex:%s read as %v and %v", local, ts[0].S, ts[0].O)
		}
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"ex:s ex:p ex:o .", // undeclared prefix
		"@prefix ex: <http://x/> .\nex:s ex:p [ ex:q 1 ] .", // anon blank
		"@prefix ex: <http://x/> .\nex:s ex:p ( 1 2 ) .",    // collection
		"@prefix ex: <http://x/> .\nex:s ex:p 'open .",      // unterminated single quotes
		"@prefix a b: <http://x/> .\na:s a:p a:o .",         // a prefix is one name
		"@prefix ex: <http://x/> .\nex:s ex:p \"open .",     // unterminated
		"@prefix ex: <http://x/> \nex:s ex:p ex:o .",        // @prefix missing dot... (SPARQL form ok, @ form needs '.')
		"@prefix ex: <http://x/> .\nex:s ex:p ex:o ,",       // dangling comma
		"@prefix ex: <http://x/> .\n\"lit\" ex:p ex:o .",    // literal subject
		"@prefix ex: <http://x/> .\nex:s ex:p ex:o ex:x .",  // missing separator
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", s)
		} else {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("ParseString(%q): error %T, want *ParseError", s, err)
			}
		}
	}
}

// TestErrorPositions pins where and how syntax errors are reported: every
// row was recorded from the parser as it stood before the streaming loop
// and its substring fast paths (which hand anything but a clean, closed
// span to the rune-by-rune code, from the same position).
func TestErrorPositions(t *testing.T) {
	cases := []struct {
		doc       string
		line, col int
		msg       string
	}{
		{"@prefix ex: <http://x/> .\nex:s ex:p zzz .", 2, 11, "expected a prefixed name"},
		{"ex:s ex:p ex:o .", 1, 5, "undeclared prefix \"ex\""},
		{"@prefix ex: <http://x/> .\nex:s ex:p [ ex:q 1 ] .", 2, 11, "anonymous blank nodes '[...]' are not supported by this subset"},
		{"@prefix ex: <http://x/> .\nex:s ex:p ( 1 2 ) .", 2, 11, "collections '(...)' are not supported by this subset"},
		{"@prefix ex: <http://x/> .\nex:s ex:p 'open .", 2, 18, "unterminated string"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"open .", 2, 18, "unterminated string"},
		{"@prefix ex: <http://x/> \nex:s ex:p ex:o .", 2, 1, "@-directive must end with '.'"},
		{"@prefix ex: <http://x/> .\nex:s ex:p ex:o ,", 2, 17, "expected an object"},
		{"@prefix ex: <http://x/> .\n\"lit\" ex:p ex:o .", 2, 1, "expected a prefixed name"},
		{"@prefix ex: <http://x/> .\nex:s ex:p ex:o ex:x .", 2, 16, "expected ';' or '.', got 'e'"},
		{"@prefix ex: <http://x/> .\nex:s ex:p <http://a b> .", 2, 20, "whitespace inside IRI"},
		{"@prefix ex: <http://x/> .\nex:s ex:p <http://a\tb> .", 2, 20, "whitespace inside IRI"},
		{"@prefix ex: <http://x/> .\nex:s ex:p <http://a\nb> .", 2, 20, "whitespace inside IRI"},
		{"@prefix ex: <http://x/> .\n\nex:s ex:p <http://a/\\u00e9 b> .", 3, 27, "whitespace inside IRI"},
		{"@prefix ex: <http://x/> .\nex:s ex:p <http://unterminated", 2, 31, "unterminated IRI"},
		{"@prefix ex: <http://x/> .\nex:s ex:p <http://unterminated\\u00e9", 2, 37, "unterminated IRI"},
		{"<http://a b> <http://p> <http://o> .", 1, 10, "whitespace inside IRI"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"open", 2, 16, "unterminated string"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"two\nlines\" .", 2, 15, "unterminated string"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"esc\\t two\nlines\" .", 2, 21, "unterminated string"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"\"\"open long\n .", 2, 14, "unterminated long string"},
		{"@prefix ex: <http://x/> .\nex:s\n  ex:p und:o .", 3, 13, "undeclared prefix \"und\""},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"1\"^^und:integer .", 2, 27, "undeclared prefix \"und\""},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"bad \\u00zz\" .", 2, 16, "invalid hex digit 'z'"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"bad \\u00\" .", 2, 16, "invalid hex digit '\"'"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"\"\"long\nbad \\u00zz\"\"\" .", 3, 14, "invalid hex digit 'z'"},
		{"@prefix ex: <http://x/> .\nex:s ex:p <http://a/\\u00zz> .", 2, 21, "invalid hex digit 'z'"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"bad \\q\" .", 2, 16, "invalid escape \\q"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"dangling\\", 2, 20, "dangling backslash"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"x\"@ .", 2, 15, "empty language tag"},
		{"@prefix ex: <http://x/> .\nex:s ex:p -x .", 2, 12, "malformed numeric literal \"-\""},
		{"@prefix ex: <http://x/> .\n_:b ex:p _: .", 2, 12, "empty blank node label"},
		{"@prefix ex: <http://x/> .\n_b ex:p ex:o .", 2, 1, "blank node must start with \"_:\""},
		{"@prefix ex <http://x/> .", 1, 9, "prefix declaration: expected a prefix name and ':'"},
		{"@prefix a b: <http://x/> .", 1, 9, "prefix declaration: expected a prefix name and ':'"},
		{"PREFIX ex : <http://x/>", 1, 8, "prefix declaration: expected a prefix name and ':'"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"\"\"a\\\"\"\"", 2, 14, "unterminated long string"},
		{"@prefix ex: http://x/ .", 1, 13, "expected '<IRI>'"},
		{"@prefix ex: <http://x/> .\nex:s ex:p ex:o", 2, 15, "expected ';' or '.' after objects"},
		{"@prefix ex: <http://x/> .\nex:s ex:p ex:o ; ex:q", 2, 22, "expected an object"},
		{"@prefix ex: <http://x/> .\nex:s", 2, 5, "expected a predicate"},
		{"@prefix ex: <http://x/> .\nex:s ex:p \"é\" ; ex:q <http://é b> .", 2, 31, "whitespace inside IRI"},
	}
	for _, c := range cases {
		_, err := ParseString(c.doc)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("ParseString(%q): want *ParseError, got %v", c.doc, err)
			continue
		}
		if pe.Line != c.line || pe.Col != c.col || pe.Msg != c.msg {
			t.Errorf("ParseString(%q): error at %d:%d %q, want %d:%d %q", c.doc, pe.Line, pe.Col, pe.Msg, c.line, c.col, c.msg)
		}
	}
}

// TestSpellingsYieldEqualTerms: a term is the same term however it is
// written — escaped or not, short or long string, relative or absolute,
// prefixed or in angle brackets — whichever of the substring and
// rune-by-rune paths reads it.
func TestSpellingsYieldEqualTerms(t *testing.T) {
	const head = "@prefix ex: <http://a/> .\n@base <http://b/> .\n"
	cases := []struct{ name, a, b string }{
		{"escaped IRI", `<http://a/\u00e9>`, `<http://a/é>`},
		{"escaped IRI and prefixed name", `<http://a/\u00e9>`, `ex:é`},
		{"escaped quote and long string", `"a\"b"`, `"""a"b"""`},
		{"long string holding quotes", `"""long "" string"""`, `"long \"\" string"`},
		{"escaped newline and long string", `"x\ny"`, "\"\"\"x\ny\"\"\""},
		{"escaped quote closing a long string", `"""a\""""`, `"a\""`},
		{"single and double quotes", `'a"b\''`, `"a\"b'"`},
		{"single-quoted long string", "'''x\ny'''", `"x\ny"`},
		{"base-relative IRI", `<rel>`, `<http://b/rel>`},
		{"escaped base-relative IRI", `<r\u0065l>`, `<http://b/rel>`},
		{"dotted non-ASCII local name", `ex:a.é`, `<http://a/a.é>`},
		{"datatype by name and by IRI", `"1"^^ex:int`, `"1"^^<http://a/int>`},
		{"escaped language-tagged string", `"caf\u00e9"@fr`, `"café"@fr`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := mustParse(t, head+"ex:s ex:p "+c.a+" , "+c.b+" .")
			if ts[0].O != ts[1].O {
				t.Fatalf("objects %s and %s parsed as %#v and %#v", c.a, c.b, ts[0].O, ts[1].O)
			}
			if !ts[0].O.IsIRI() {
				return
			}
			ts = mustParse(t, head+c.a+" ex:p ex:o .\n"+c.b+" ex:p ex:o .")
			if ts[0].S != ts[1].S {
				t.Errorf("subjects %s and %s parsed as %#v and %#v", c.a, c.b, ts[0].S, ts[1].S)
			}
		})
	}
}

// TestPrefixRebinding: a spelling seen under one binding of its prefix
// must not answer for the same spelling under the next.
func TestPrefixRebinding(t *testing.T) {
	ts := mustParse(t, "@prefix ex: <http://a/> . ex:x ex:p ex:y . @prefix ex: <http://b/> . ex:x ex:p ex:y .")
	want := []rdf.Triple{
		{S: rdf.NewIRI("http://a/x"), P: rdf.NewIRI("http://a/p"), O: rdf.NewIRI("http://a/y")},
		{S: rdf.NewIRI("http://b/x"), P: rdf.NewIRI("http://b/p"), O: rdf.NewIRI("http://b/y")},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("parsed %v, want %v", ts, want)
	}
}

// TestInternCalls pins what Stream hands to intern: a subject once per
// statement, a predicate once per ';' list, a prefixed name (and 'a')
// once per spelling, and a datatype written as a prefixed name never —
// it is part of its literal, not a term.
func TestInternCalls(t *testing.T) {
	doc := `@prefix ex: <http://a/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:p "1"^^xsd:integer , "2"^^xsd:integer ; ex:q ex:s , <http://a/s> .
<http://a/s> a ex:T ; a ex:U .
`
	var interned []rdf.Term
	triples := 0
	err := Stream(doc,
		func(t rdf.Term) uint32 {
			interned = append(interned, t)
			return uint32(len(interned) - 1)
		},
		func(s, p, o uint32) error {
			triples++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []rdf.Term{
		rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"),
		rdf.NewTypedLiteral("1", rdf.XSDInteger), rdf.NewTypedLiteral("2", rdf.XSDInteger),
		rdf.NewIRI("http://a/q"), rdf.NewIRI("http://a/s"), // <http://a/s> in brackets: no spelling cache
		rdf.NewIRI("http://a/s"), rdf.Type(), rdf.NewIRI("http://a/T"), rdf.NewIRI("http://a/U"),
	}
	if triples != 6 || !reflect.DeepEqual(interned, want) {
		t.Errorf("%d triples, interned %v\nwant 6 triples, interned %v", triples, interned, want)
	}
}

// TestAgreesWithNTriples: any N-Triples document is also valid Turtle with
// identical meaning (N-Triples ⊂ Turtle). FuzzNTriplesIsTurtle
// (internal/load) checks it on arbitrary documents.
func TestAgreesWithNTriples(t *testing.T) {
	doc := `<http://x/s> <http://x/p> <http://x/o> .
<http://x/s> <http://x/q> "lit"@en .
_:b0 <http://x/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:a.b <http://x/p> _:c.d.
`
	nt, err := ntriples.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(nt, ttl) {
		t.Errorf("N-Triples and Turtle disagree:\nnt:  %v\nttl: %v", nt, ttl)
	}
}
