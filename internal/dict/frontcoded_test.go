package dict

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"strings"
	"sync"
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
// insertion-order ID, and a dictionary over the pages looks up every term
// at that ID, across block boundaries (sizes chosen around multiples of
// BlockTerms).
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
		d := WithBase(m)
		for i, want := range terms {
			if got := m.Term(ID(i + 1)); got != want {
				t.Fatalf("n=%d: Term(%d) = %v, want %v", n, i+1, got, want)
			}
			id, ok := d.Lookup(want)
			if !ok || id != ID(i+1) {
				t.Fatalf("n=%d: Lookup(%v) = (%d,%v), want (%d,true)", n, want, id, ok, i+1)
			}
		}
		if _, ok := d.Lookup(rdf.NewIRI("http://example.org/definitely-absent")); ok {
			t.Fatalf("n=%d: Lookup found an absent term", n)
		}
	}
}

// TestFrontCodedTouchHook: every access that reads the pages fires Touch
// (the seam the store uses for lazy CRC verification) — a decode, and the
// walk that indexes the base on the first lookup — and only a compaction's
// merge fires TouchSorted.
func TestFrontCodedTouchHook(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	terms := randTerms(rng, 40)
	pages, dir, sorted := frontCoded(t, terms)
	m, err := NewMapped(pages, dir, sorted, len(terms))
	if err != nil {
		t.Fatal(err)
	}
	touched, sortedTouched := 0, 0
	m.Touch = func() { touched++ }
	m.TouchSorted = func() { sortedTouched++ }
	m.Term(7)
	if touched == 0 {
		t.Fatal("Term did not fire Touch")
	}
	before := touched
	d := WithBase(m)
	d.Lookup(terms[11])
	if touched == before {
		t.Fatal("Lookup did not fire Touch")
	}
	d.EncodeIRI("http://example.org/new")
	if sortedTouched != 0 {
		t.Fatalf("Term, Lookup and Encode fired TouchSorted %d times: only a merge reads the permutation", sortedTouched)
	}
	if _, _, _, err := d.WriteFrontCoded(io.Discard); err != nil {
		t.Fatal(err)
	}
	if sortedTouched == 0 {
		t.Fatal("WriteFrontCoded merged the permutation without firing TouchSorted")
	}
}

// TestDictWithBase: a mutable dict layered over a mapped base preserves
// base IDs, extends with fresh IDs, and answers Encode/Lookup/Term across
// the seam exactly like a flat dict holding the same terms — plain keys
// (IRIs, blank nodes) and framed ones (literals plain, typed and tagged,
// and one longer than every stack buffer), present and absent, directly
// and through an overlay stacked on each — and writes the same
// front-coded sections: a compaction of a reopened store streams the
// base, a compaction of a heap store encodes every term, and the files
// must not differ.
func TestDictWithBase(t *testing.T) {
	long := rdf.NewLangLiteral(strings.Repeat("a literal longer than any scratch buffer ", 10), "en")
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 6))
		nBase := rng.IntN(3*BlockTerms) + 1
		nNew := rng.IntN(20) + 1
		all := randTerms(rng, nBase+nNew+5)
		all[rng.IntN(nBase)] = long
		absent := all[nBase+nNew:]
		all = all[:nBase+nNew]
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
		if rng.IntN(2) == 0 {
			// Either probe may be the one that indexes the base.
			if _, ok := layered.Lookup(absent[0]); ok {
				t.Fatalf("Lookup(absent %v) hit", absent[0])
			}
		}
		lo, fo := Overlay(layered), Overlay(flat)
		// Interleave re-encodes of base terms with new terms; the overlays
		// encode a base term, a term the dictionary under them interned
		// and one of their own.
		for i, nt := range newTerms {
			if got, want := layered.Encode(nt), flat.Encode(nt); got != want {
				t.Fatalf("Encode(new %v) = %d, want %d", nt, got, want)
			}
			bt := baseTerms[i%nBase]
			if got, want := layered.Encode(bt), flat.Encode(bt); got != want {
				t.Fatalf("Encode(base %v) = %d, want %d", bt, got, want)
			}
			for _, term := range []rdf.Term{bt, nt, absent[i%len(absent)]} {
				if got, want := lo.Encode(term), fo.Encode(term); got != want {
					t.Fatalf("overlay Encode(%v) = %#x, want %#x", term, got, want)
				}
			}
		}
		if layered.Len() != flat.Len() || lo.Len() != fo.Len() {
			return false
		}
		for id := ID(1); id <= ID(flat.Len()); id++ {
			if layered.Term(id) != flat.Term(id) {
				return false
			}
		}
		for _, term := range append(all, absent...) {
			li, lok := layered.Lookup(term)
			fi, fok := flat.Lookup(term)
			if li != fi || lok != fok {
				t.Logf("Lookup(%v) = %d, %v over the base, %d, %v flat", term, li, lok, fi, fok)
				return false
			}
			li, lok = lo.Lookup(term)
			fi, fok = fo.Lookup(term)
			if li != fi || lok != fok || (lok && lo.Term(li) != term) {
				t.Logf("overlay Lookup(%v) = %#x, %v over the base, %#x, %v flat", term, li, lok, fi, fok)
				return false
			}
		}

		var lp, fp bytes.Buffer
		ln, ld, ls, err := layered.WriteFrontCoded(&lp)
		if err != nil {
			t.Fatal(err)
		}
		fn, fd, fs, err := flat.WriteFrontCoded(&fp)
		if err != nil {
			t.Fatal(err)
		}
		if ln != fn || !bytes.Equal(lp.Bytes(), fp.Bytes()) || !bytes.Equal(ld, fd) || !bytes.Equal(ls, fs) {
			t.Logf("seed %d: %d base terms + %d: the sections written over the base differ from the flat dictionary's", seed, nBase, nNew)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDictWithBaseSharedFill (run under -race): in shared mode, readers'
// first lookups race the walk that enters the base's IDs into the index,
// while the one writer interns new terms and re-encodes base terms.
func TestDictWithBaseSharedFill(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	nBase := 20*BlockTerms + 7
	terms := randTerms(rng, nBase+200)
	base, fresh := terms[:nBase], terms[nBase:]
	pages, dir, sorted := frontCoded(t, base)
	for round := 0; round < 20; round++ {
		m, err := NewMapped(pages, dir, sorted, nBase)
		if err != nil {
			t.Fatal(err)
		}
		d := WithBase(m)
		d.Share()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := r; i < nBase; i += 4 {
					if id, ok := d.Lookup(base[i]); !ok || id != ID(i+1) || d.Term(id) != base[i] {
						t.Errorf("reader %d: Lookup(%v) = %d, %v; want %d", r, base[i], id, ok, i+1)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i, nt := range fresh {
				if id := d.Encode(nt); id != ID(nBase+i+1) {
					t.Errorf("writer: Encode(new %v) = %d, want %d", nt, id, nBase+i+1)
					return
				}
				if id := d.Encode(base[i*7%nBase]); id != ID(i*7%nBase+1) {
					t.Errorf("writer: Encode(base %v) = %d, want %d", base[i*7%nBase], id, i*7%nBase+1)
					return
				}
			}
		}()
		close(start)
		wg.Wait()
	}
}
