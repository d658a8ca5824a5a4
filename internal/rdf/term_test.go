package rdf

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTermConstructorsAndPredicates(t *testing.T) {
	iri := NewIRI("http://example.org/a")
	if !iri.IsIRI() || iri.IsBlank() || iri.IsLiteral() || iri.IsZero() {
		t.Errorf("IRI predicates wrong: %+v", iri)
	}
	b := NewBlank("b0")
	if !b.IsBlank() || b.IsIRI() || b.IsLiteral() {
		t.Errorf("blank predicates wrong: %+v", b)
	}
	l := NewLiteral("x")
	if !l.IsLiteral() || l.IsIRI() || l.IsBlank() {
		t.Errorf("literal predicates wrong: %+v", l)
	}
	var zero Term
	if !zero.IsZero() {
		t.Errorf("zero term should be zero")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/a"), "<http://x/a>"},
		{NewBlank("b1"), "_:b1"},
		{NewLiteral("hi"), `"hi"`},
		{NewLangLiteral("bonjour", "fr"), `"bonjour"@fr`},
		{NewTypedLiteral("3", XSDInteger), `"3"^^<http://www.w3.org/2001/XMLSchema#integer>`},
		{NewLiteral("a\"b\\c\nd\te\rf"), `"a\"b\\c\nd\te\rf"`},
		{NewIRI("http://x/<odd>"), `<http://x/\u003Codd\u003E>`},
		{NewIRI("http://x/a b\x01|é"), `<http://x/a\u0020b\u0001\u007Cé>`},
		{NewLiteral("é\xffz"), "\"é\uFFFDz\""}, // an invalid byte renders as U+FFFD
		{NewIRI("http://x/" + strings.Repeat("long/", 60)), "<http://x/" + strings.Repeat("long/", 60) + ">"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.term, got, c.want)
		}
	}
}

func TestTermKindString(t *testing.T) {
	kinds := map[TermKind]string{IRI: "iri", Blank: "blank", Literal: "literal", Invalid: "invalid"}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("TermKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestTermCompare(t *testing.T) {
	ordered := []Term{
		NewIRI("http://x/a"),
		NewIRI("http://x/b"),
		NewBlank("a"),
		NewBlank("b"),
		NewLiteral("a"),
		NewLangLiteral("a", "en"),
		NewTypedLiteral("a", XSDInteger),
		NewLiteral("b"),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestTripleStringAndValidate(t *testing.T) {
	tr := NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), NewLiteral("o"))
	if got, want := tr.String(), `<http://x/s> <http://x/p> "o" .`; got != want {
		t.Errorf("Triple.String() = %q, want %q", got, want)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
	bad := []Triple{
		NewTriple(NewLiteral("s"), NewIRI("http://x/p"), NewLiteral("o")),
		NewTriple(NewIRI("http://x/s"), NewBlank("p"), NewLiteral("o")),
		NewTriple(NewIRI("http://x/s"), NewIRI("http://x/p"), Term{}),
		NewTriple(Term{}, NewIRI("http://x/p"), NewLiteral("o")),
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", b)
		}
	}
}

func TestSortAndDedupTriples(t *testing.T) {
	a := NewTriple(NewIRI("http://x/s1"), NewIRI("http://x/p"), NewLiteral("1"))
	b := NewTriple(NewIRI("http://x/s2"), NewIRI("http://x/p"), NewLiteral("2"))
	ts := []Triple{b, a, b, a, a}
	ts = DedupTriples(ts)
	if len(ts) != 2 {
		t.Fatalf("DedupTriples: got %d triples, want 2", len(ts))
	}
	if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 }) {
		t.Errorf("DedupTriples result not sorted: %v", ts)
	}
}

// Property: Compare is antisymmetric and consistent with equality for
// arbitrary literal terms.
func TestTermCompareProperties(t *testing.T) {
	f := func(v1, v2, dt1, dt2, l1, l2 string) bool {
		a := Term{Kind: Literal, Value: v1, Datatype: dt1, Lang: l1}
		b := Term{Kind: Literal, Value: v2, Datatype: dt2, Lang: l2}
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		return (a.Compare(b) == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVocabHelpers(t *testing.T) {
	if !IsSchemaProperty(RDFSSubClassOf) || !IsSchemaProperty(RDFSSubProperty) ||
		!IsSchemaProperty(RDFSDomain) || !IsSchemaProperty(RDFSRange) {
		t.Error("IsSchemaProperty must accept the four constraint properties")
	}
	if IsSchemaProperty(RDFType) || IsSchemaProperty(RDFSLabel) {
		t.Error("IsSchemaProperty must reject rdf:type and rdfs:label")
	}
	if Type().Value != RDFType || SubClassOf().Value != RDFSSubClassOf ||
		SubPropertyOf().Value != RDFSSubProperty || Domain().Value != RDFSDomain ||
		Range().Value != RDFSRange {
		t.Error("vocabulary term constructors return wrong IRIs")
	}
}

func TestCheckWellBehaved(t *testing.T) {
	person := NewIRI("http://x/Person")
	alice := NewIRI("http://x/alice")
	knows := NewIRI("http://x/knows")
	good := []Triple{
		NewTriple(alice, Type(), person),
		NewTriple(alice, knows, alice),
		NewTriple(person, SubClassOf(), NewIRI("http://x/Agent")),
		NewTriple(person, NewIRI(RDFSLabel), NewLiteral("Person")),
	}
	if v := CheckWellBehaved(good); v != nil {
		t.Errorf("CheckWellBehaved(good) = %v, want nil", v)
	}
	// A class used as a property.
	bad1 := append(append([]Triple(nil), good...),
		NewTriple(alice, person, alice))
	if v := CheckWellBehaved(bad1); len(v) == 0 {
		t.Error("CheckWellBehaved must flag a class in property position")
	} else if v[0].Error() == "" {
		t.Error("violation must render a message")
	}
	// A class with a data property.
	bad2 := append(append([]Triple(nil), good...),
		NewTriple(person, knows, alice))
	if v := CheckWellBehaved(bad2); len(v) == 0 {
		t.Error("CheckWellBehaved must flag a class with a data property")
	}
}
