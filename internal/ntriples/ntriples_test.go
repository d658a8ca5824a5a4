package ntriples

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

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

func TestParseBasicTriples(t *testing.T) {
	ts := mustParse(t, `
# a comment
<http://x/s> <http://x/p> <http://x/o> .
<http://x/s> <http://x/p> "lit" .

_:b1 <http://x/p> _:b2 .	# trailing comment
<http://x/s> <http://x/p> "v"@en .
<http://x/s> <http://x/p> "3"^^<http://www.w3.org/2001/XMLSchema#integer> .
`)
	want := []rdf.Triple{
		{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewIRI("http://x/o")},
		{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLiteral("lit")},
		{S: rdf.NewBlank("b1"), P: rdf.NewIRI("http://x/p"), O: rdf.NewBlank("b2")},
		{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLangLiteral("v", "en")},
		{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewTypedLiteral("3", rdf.XSDInteger)},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("parsed %v, want %v", ts, want)
	}
}

func TestParseEscapes(t *testing.T) {
	ts := mustParse(t, `<http://x/s> <http://x/p> "a\tb\nc\"d\\eA\U0001F600" .`)
	if got, want := ts[0].O.Value, "a\tb\nc\"d\\eA\U0001F600"; got != want {
		t.Errorf("literal = %q, want %q", got, want)
	}
	ts = mustParse(t, `<http://x/aBc> <http://x/p> "x" .`)
	if got, want := ts[0].S.Value, "http://x/aBc"; got != want {
		t.Errorf("IRI = %q, want %q", got, want)
	}
}

func TestParseBlankLabelDots(t *testing.T) {
	// Dots are allowed inside a blank node label; the final dot terminates.
	ts := mustParse(t, `_:a.b <http://x/p> _:c .`)
	if got := ts[0].S.Value; got != "a.b" {
		t.Errorf("blank label = %q, want %q", got, "a.b")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<http://x/s> <http://x/p> .`,                   // missing object
		`<http://x/s> <http://x/p> <http://x/o>`,        // missing dot
		`<http://x/s> "p" <http://x/o> .`,               // literal property
		`"s" <http://x/p> <http://x/o> .`,               // literal subject
		`<http://x/s> <http://x/p> "unterminated .`,     // unterminated literal
		`<http://x/s <http://x/p> <http://x/o> .`,       // whitespace in IRI
		`<http://x/s> <http://x/p> <http://x/o> . junk`, // trailing junk
		`<http://x/s> <http://x/p> "v"@ .`,              // empty lang tag
		`<http://x/s> <http://x/p> "v"^^x .`,            // bad datatype
		`<> <http://x/p> <http://x/o> .`,                // empty IRI
		`_: <http://x/p> <http://x/o> .`,                // empty blank label
		`_:0 <http://x/p> _:0..`,                        // blank label ending in '.'
		`<http://x/s> <http://x/p> "bad\qescape" .`,     // invalid escape
		`<http://x/s> <http://x/p> "trunc\u00" .`,       // truncated escape
	}
	for _, s := range bad {
		if _, err := ParseString(s); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", s)
		} else {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("ParseString(%q) error %T, want *ParseError", s, err)
			} else if pe.Line != 1 {
				t.Errorf("ParseString(%q) error line %d, want 1", s, pe.Line)
			}
		}
	}
}

func TestParseErrorLineNumber(t *testing.T) {
	_, err := ParseString("<http://x/s> <http://x/p> <http://x/o> .\n\nbroken\n")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Errorf("error message %q should mention the line", pe.Error())
	}
}

func TestParseFuncStopsOnCallbackError(t *testing.T) {
	sentinel := errors.New("stop")
	n := 0
	err := ParseFunc(strings.NewReader(
		"<http://x/s> <http://x/p> <http://x/o> .\n<http://x/s2> <http://x/p> <http://x/o> .\n"),
		func(rdf.Triple) error { n++; return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("ParseFunc error = %v, want sentinel", err)
	}
	if n != 1 {
		t.Errorf("callback ran %d times, want 1", n)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	in := []rdf.Triple{
		{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLiteral("line1\nline2\t\"q\"\\")},
		{S: rdf.NewBlank("b.0"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLangLiteral("été", "fr-CA")},
		{S: rdf.NewIRI("http://x/s"), P: rdf.NewIRI("http://x/p"), O: rdf.NewTypedLiteral("1.5", rdf.XSDDecimal)},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse(serialized): %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %v\nout: %v", in, out)
	}
}

// Property: serializing and re-parsing any valid triple built from random
// strings yields the identical triple.
func TestRoundTripProperty(t *testing.T) {
	f := func(s, p, o, lang8 string, kind uint8) bool {
		subj := rdf.NewIRI("http://x/s" + sanitizeIRI(s))
		if kind&8 != 0 {
			subj = rdf.NewBlank(dottedLabel(s))
		}
		prop := rdf.NewIRI("http://x/p" + sanitizeIRI(p))
		var obj rdf.Term
		switch kind % 4 {
		case 0:
			obj = rdf.NewIRI("http://x/o" + sanitizeIRI(o))
		case 1:
			obj = rdf.NewLiteral(o)
		case 2:
			obj = rdf.NewTypedLiteral(o, rdf.XSDString)
		default:
			obj = rdf.NewBlank(dottedLabel(o))
		}
		in := []rdf.Triple{{S: subj, P: prop, O: obj}}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Parse(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// sanitizeIRI strips characters that are not valid raw inside an IRI so the
// property test exercises round-tripping, not IRI validity rules.
func sanitizeIRI(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '<', '>', '"', '{', '}', '|', '^', '`', '\\', ' ', '\t', '\n', '\r':
			return -1
		}
		if r < 0x20 {
			return -1
		}
		return r
	}, s)
}

// dottedLabel turns s into a blank node label: each ASCII letter, digit,
// '_' and '-' kept, every other rune a dot — so most labels hold inner
// dots, runs of them included — between a first and a last letter.
func dottedLabel(s string) string {
	return "b" + strings.Map(func(r rune) rune {
		if r < utf8.RuneSelf && nameBytes[r] {
			return r
		}
		return '.'
	}, s) + "z"
}
