package dict

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rdfsum/internal/rdf"
)

// randTerms builds n distinct terms with heavy shared prefixes (the case
// front-coding exists for) across all three kinds.
func randTerms(rng *rand.Rand, n int) []rdf.Term {
	seen := map[rdf.Term]bool{}
	out := make([]rdf.Term, 0, n)
	for len(out) < n {
		var t rdf.Term
		switch rng.IntN(5) {
		case 0:
			t = rdf.NewLiteral(fmt.Sprintf("value %d", rng.IntN(4*n)))
		case 1:
			t = rdf.NewLangLiteral(fmt.Sprintf("wert %d", rng.IntN(4*n)), []string{"en", "de", ""}[rng.IntN(3)])
		case 2:
			t = rdf.NewTypedLiteral(fmt.Sprintf("%d", rng.IntN(4*n)), "http://www.w3.org/2001/XMLSchema#int")
		case 3:
			t = rdf.NewBlank(fmt.Sprintf("b%d", rng.IntN(4*n)))
		default:
			t = rdf.NewIRI(fmt.Sprintf("http://example.org/ns/entity/%d", rng.IntN(4*n)))
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// frontCoded interns terms (distinct, so terms[i] gets ID i+1) and
// returns the three sections WriteFrontCoded produces for them.
func frontCoded(t *testing.T, terms []rdf.Term) (pages, dir, sorted []byte) {
	t.Helper()
	d := New()
	for _, tm := range terms {
		d.Encode(tm)
	}
	var buf bytes.Buffer
	n, dir, sorted, err := d.WriteFrontCoded(&buf)
	if err != nil || n != len(terms) {
		t.Fatalf("WriteFrontCoded = %d terms, %v; want %d", n, err, len(terms))
	}
	return buf.Bytes(), dir, sorted
}

// TestFrontCodedRoundTrip: Term(id) reproduces every term at its original
// insertion-order ID, and Lookup inverts Term exactly, across block
// boundaries (sizes chosen around multiples of BlockTerms).
func TestFrontCodedRoundTrip(t *testing.T) {
	for _, n := range []int{1, BlockTerms - 1, BlockTerms, BlockTerms + 1, 5*BlockTerms + 3} {
		rng := rand.New(rand.NewPCG(uint64(n), 2))
		terms := randTerms(rng, n)
		pages, dir, sorted := frontCoded(t, terms)
		m, err := NewMapped(pages, dir, sorted, n)
		if err != nil {
			t.Fatalf("n=%d: NewMapped: %v", n, err)
		}
		if m.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, m.Len())
		}
		for i, want := range terms {
			if got := m.Term(ID(i + 1)); got != want {
				t.Fatalf("n=%d: Term(%d) = %v, want %v", n, i+1, got, want)
			}
			id, ok := m.Lookup(want)
			if !ok || id != ID(i+1) {
				t.Fatalf("n=%d: Lookup(%v) = (%d,%v), want (%d,true)", n, want, id, ok, i+1)
			}
		}
		if _, ok := m.Lookup(rdf.NewIRI("http://example.org/definitely-absent")); ok {
			t.Fatalf("n=%d: Lookup found an absent term", n)
		}
	}
}

// TestFrontCodedTouchHook: every decoding access fires the Touch hook
// (the seam the store uses for lazy CRC verification).
func TestFrontCodedTouchHook(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	terms := randTerms(rng, 40)
	pages, dir, sorted := frontCoded(t, terms)
	m, err := NewMapped(pages, dir, sorted, len(terms))
	if err != nil {
		t.Fatal(err)
	}
	touched := 0
	m.Touch = func() { touched++ }
	m.Term(7)
	if touched == 0 {
		t.Fatal("Term did not fire Touch")
	}
	before := touched
	m.Lookup(terms[11])
	if touched == before {
		t.Fatal("Lookup did not fire Touch")
	}
}

// TestDictWithBase: a mutable dict layered over a mapped base preserves
// base IDs, extends with fresh IDs, and answers Encode/Lookup/Term across
// the seam exactly like a flat dict holding the same terms.
func TestDictWithBase(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 6))
		nBase := rng.IntN(3*BlockTerms) + 1
		nNew := rng.IntN(20) + 1
		all := randTerms(rng, nBase+nNew)
		baseTerms, newTerms := all[:nBase], all[nBase:]

		pages, dir, sorted := frontCoded(t, baseTerms)
		m, err := NewMapped(pages, dir, sorted, nBase)
		if err != nil {
			t.Fatalf("NewMapped: %v", err)
		}
		layered := WithBase(m)
		flat := New()
		for _, bt := range baseTerms {
			flat.Encode(bt)
		}
		// Interleave re-encodes of base terms with new terms.
		for i, nt := range newTerms {
			if got, want := layered.Encode(nt), flat.Encode(nt); got != want {
				t.Fatalf("Encode(new %v) = %d, want %d", nt, got, want)
			}
			bt := baseTerms[i%nBase]
			if got, want := layered.Encode(bt), flat.Encode(bt); got != want {
				t.Fatalf("Encode(base %v) = %d, want %d", bt, got, want)
			}
		}
		if layered.Len() != flat.Len() {
			return false
		}
		for id := ID(1); id <= ID(flat.Len()); id++ {
			if layered.Term(id) != flat.Term(id) {
				return false
			}
		}
		for _, term := range all {
			li, lok := layered.Lookup(term)
			fi, fok := flat.Lookup(term)
			if li != fi || lok != fok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
