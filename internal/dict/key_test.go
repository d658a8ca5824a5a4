package dict

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"rdfsum/internal/rdf"
)

// roundTrip interns terms into a dictionary and requires
// Term(Encode(t)) == t, idempotent Encode, Lookup agreeing with it, and
// distinct terms under distinct IDs.
func roundTrip(t *testing.T, terms []rdf.Term) {
	t.Helper()
	d := New()
	byID := map[ID]rdf.Term{}
	for _, tm := range terms {
		id := d.Encode(tm)
		if got := d.Term(id); got != tm {
			t.Fatalf("Term(Encode(%#v)) = %#v", tm, got)
		}
		if again := d.Encode(tm); again != id {
			t.Fatalf("Encode(%#v) = %d, then %d", tm, id, again)
		}
		if got, ok := d.Lookup(tm); !ok || got != id {
			t.Fatalf("Lookup(%#v) = %d, %v; Encode gave %d", tm, got, ok, id)
		}
		if prev, seen := byID[id]; seen && prev != tm {
			t.Fatalf("%#v and %#v share id %d", prev, tm, id)
		}
		byID[id] = tm
	}
}

// TestDictKeyRoundTrip: the terms whose keys could collide if the frame
// were ambiguous.
func TestDictKeyRoundTrip(t *testing.T) {
	var buf frameBuf
	framed := string(appendFrame(buf[:0], rdf.NewTypedLiteral("v", "http://x/dt")))
	roundTrip(t, []rdf.Term{
		rdf.NewLiteral(""),
		rdf.NewLiteral("a\x00b"),
		rdf.NewLiteral("a"), rdf.NewLiteral("a\x00"), rdf.NewLangLiteral("a", "\x00"),
		rdf.NewLangLiteral("a", "en"), rdf.NewTypedLiteral("a", "en"), rdf.NewTypedLiteral("en", "a"),
		rdf.NewLangLiteral("", "aen"), rdf.NewTypedLiteral("", "aen"),
		rdf.NewIRI("same"), rdf.NewBlank("same"), rdf.NewLiteral("same"),
		rdf.NewTypedLiteral("v", "http://x/dt"), rdf.NewLiteral(framed), rdf.NewIRI(framed), rdf.NewBlank(framed),
		{},                                // the zero Term stays internable
		{Value: "same"},                   // as does any other term of Invalid kind,
		{Kind: rdf.IRI, Datatype: "same"}, // and an IRI that is not just a value
		{Kind: rdf.Blank, Value: "same", Lang: "en"},
		rdf.NewLiteral(strings.Repeat("long ", 100)), // a frame past the probe buffer
	})
}

// FuzzDictKeyRoundTrip: any two terms, of any kind and any bytes, pass
// roundTrip; run with `make fuzz` or:
//
//	go test -fuzz=FuzzDictKeyRoundTrip -fuzztime=30s -run='^$' ./internal/dict
func FuzzDictKeyRoundTrip(f *testing.F) {
	f.Add(uint8(3), "a", "", "en", uint8(3), "a", "en", "")
	f.Add(uint8(1), "x", "", "", uint8(2), "x", "", "")
	f.Add(uint8(3), "a\x00b", "", "", uint8(3), "a", "\x00b", "")
	f.Add(uint8(0), "", "", "", uint8(3), "", "", "")
	f.Fuzz(func(t *testing.T, k1 uint8, v1, d1, l1 string, k2 uint8, v2, d2, l2 string) {
		roundTrip(t, []rdf.Term{
			{Kind: rdf.TermKind(k1 % 4), Value: v1, Datatype: d1, Lang: l1},
			{Kind: rdf.TermKind(k2 % 4), Value: v2, Datatype: d2, Lang: l2},
		})
	})
}

// TestEncodePresentTermAllocatesNothing: a hit on an IRI probes the map
// with the term's own value; a hit on a literal builds its frame in a
// stack buffer.
func TestEncodePresentTermAllocatesNothing(t *testing.T) {
	d := New()
	d.Share()
	for _, tm := range []rdf.Term{
		rdf.NewIRI("http://example.org/resource/a-typical-iri"),
		rdf.NewBlank("b12"),
		rdf.NewLangLiteral("a label of ordinary length", "en"),
		rdf.NewTypedLiteral(strings.Repeat("x", 100), "http://www.w3.org/2001/XMLSchema#string"), // 160-byte frame
	} {
		id := d.Encode(tm)
		if allocs := testing.AllocsPerRun(100, func() { d.Encode(tm) }); allocs != 0 {
			t.Errorf("Encode of the present %v: %v allocs/op, want 0", tm, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { d.Lookup(tm) }); allocs != 0 {
			t.Errorf("Lookup of the present %v: %v allocs/op, want 0", tm, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { d.Term(id) }); allocs != 0 {
			t.Errorf("Term of %v: %v allocs/op, want 0", tm, allocs)
		}
	}
}

// TestSharedDictReadersDuringEncode (run under -race): readers decode and
// look up published IDs while the one writer interns, and a front-coded
// write takes its view of the table meanwhile.
func TestSharedDictReadersDuringEncode(t *testing.T) {
	d := New()
	d.Share()
	mk := func(i int) rdf.Term {
		if i%3 == 0 {
			return rdf.NewLangLiteral(fmt.Sprintf("label %d", i), "en")
		}
		return rdf.NewIRI(fmt.Sprintf("http://x/t%d", i))
	}
	const n = 4000
	published := make(chan int, n)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range published {
				id, ok := d.Lookup(mk(i))
				if !ok || d.Term(id) != mk(i) {
					t.Errorf("term %d: Lookup = %d, %v; Term = %v", i, id, ok, d.Term(id))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 20; k++ {
			var pages strings.Builder
			nTerms, dir, syms, err := d.WriteFrontCoded(&pages)
			if err != nil {
				t.Error(err)
				return
			}
			m, err := NewMapped([]byte(pages.String()), dir, syms, nTerms)
			if err != nil {
				t.Error(err)
				return
			}
			if nTerms > 0 && m.Term(ID(nTerms)) != d.Term(ID(nTerms)) {
				t.Errorf("front-coded term %d differs from the dictionary's", nTerms)
			}
		}
	}()
	for i := 0; i < n; i++ {
		d.Encode(mk(i))
		published <- i
	}
	close(published)
	wg.Wait()
}
