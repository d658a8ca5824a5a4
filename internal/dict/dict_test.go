package dict

import (
	"testing"
	"testing/quick"

	"rdfsum/internal/rdf"
)

func TestEncodeIsIdempotent(t *testing.T) {
	d := New()
	a := rdf.NewIRI("http://x/a")
	id1 := d.Encode(a)
	id2 := d.Encode(a)
	if id1 != id2 {
		t.Errorf("Encode twice: %d != %d", id1, id2)
	}
	if id1 == None {
		t.Error("Encode must never return None")
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

func TestDistinctTermsDistinctIDs(t *testing.T) {
	d := New()
	terms := []rdf.Term{
		rdf.NewIRI("http://x/a"),
		rdf.NewBlank("a"),
		rdf.NewLiteral("http://x/a"), // same string, different kind
		rdf.NewLangLiteral("http://x/a", "en"),
		rdf.NewTypedLiteral("http://x/a", rdf.XSDString),
	}
	seen := map[ID]bool{}
	for _, tm := range terms {
		id := d.Encode(tm)
		if seen[id] {
			t.Errorf("term %v got duplicate id %d", tm, id)
		}
		seen[id] = true
	}
	if d.Len() != len(terms) {
		t.Errorf("Len = %d, want %d", d.Len(), len(terms))
	}
}

func TestLookupAndTerm(t *testing.T) {
	d := New()
	a := rdf.NewIRI("http://x/a")
	if _, ok := d.Lookup(a); ok {
		t.Error("Lookup before Encode must miss")
	}
	id := d.Encode(a)
	got, ok := d.Lookup(a)
	if !ok || got != id {
		t.Errorf("Lookup = (%d,%v), want (%d,true)", got, ok, id)
	}
	if d.Term(id) != a {
		t.Errorf("Term(%d) = %v, want %v", id, d.Term(id), a)
	}
	if id2, ok := d.LookupIRI("http://x/a"); !ok || id2 != id {
		t.Errorf("LookupIRI = (%d,%v), want (%d,true)", id2, ok, id)
	}
	if d.MaxID() != ID(d.Len()) {
		t.Errorf("MaxID %d != Len %d", d.MaxID(), d.Len())
	}
}

func TestTermPanicsOnBadID(t *testing.T) {
	d := New()
	d.EncodeIRI("http://x/a")
	for _, bad := range []ID{None, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Term(%d) did not panic", bad)
				}
			}()
			d.Term(bad)
		}()
	}
}

// Property: Encode/Term is a bijection over arbitrary interleavings.
func TestEncodeTermBijection(t *testing.T) {
	f := func(values []string) bool {
		d := New()
		ids := make([]ID, len(values))
		for i, v := range values {
			ids[i] = d.Encode(rdf.NewLiteral(v))
		}
		for i, v := range values {
			if d.Term(ids[i]) != rdf.NewLiteral(v) {
				return false
			}
			if got := d.Encode(rdf.NewLiteral(v)); got != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
