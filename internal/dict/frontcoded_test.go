package dict

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
func frontCoded(t testing.TB, terms []rdf.Term) (pages, dir, syms []byte) {
	t.Helper()
	d := New()
	for _, tm := range terms {
		d.Encode(tm)
	}
	var buf bytes.Buffer
	n, dir, syms, err := d.WriteFrontCoded(&buf)
	if err != nil || n != len(terms) {
		t.Fatalf("WriteFrontCoded = %d terms, %v; want %d", n, err, len(terms))
	}
	return buf.Bytes(), dir, syms
}

// flaggedCoded returns the pages and directory the builds between the
// kind byte's flags and the symbol table wrote of terms (IDs 1, 2, …):
// this writer's coding, with no suffix packed.
func flaggedCoded(terms []rdf.Term) (pages, dir []byte) {
	e := encoder{tab: newSymtab()} // every code an escape: nothing packs
	for i, t := range terms {
		if i%BlockTerms == 0 {
			dir = binary.LittleEndian.AppendUint64(dir, uint64(len(pages)))
		}
		pages = e.append(pages, t, i%BlockTerms == 0)
	}
	return pages, dir
}

// TestFrontCodedRoundTrip: Term(id) reproduces every term at its original
// insertion-order ID, and a dictionary over the pages looks up every term
// at that ID, across block boundaries (sizes chosen around multiples of
// BlockTerms).
func TestFrontCodedRoundTrip(t *testing.T) {
	for _, n := range []int{1, BlockTerms - 1, BlockTerms, BlockTerms + 1, 5*BlockTerms + 3} {
		rng := rand.New(rand.NewPCG(uint64(n), 2))
		terms := randTerms(rng, n)
		pages, dir, syms := frontCoded(t, terms)
		m, err := NewMapped(pages, dir, syms, n)
		if err != nil {
			t.Fatalf("n=%d: NewMapped: %v", n, err)
		}
		if m.Len() != n {
			t.Fatalf("n=%d: Len() = %d", n, m.Len())
		}
		d, err := WithBase(m)
		if err != nil {
			t.Fatalf("n=%d: WithBase: %v", n, err)
		}
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

// TestDictWithBase: a mutable dict layered over a mapped base preserves
// base IDs, extends with fresh IDs, and answers Encode/Lookup/Term across
// the seam exactly like a flat dict holding the same terms — plain keys
// (IRIs, blank nodes) and framed ones (literals plain, typed and tagged,
// and one longer than every stack buffer), present and absent — and
// writes the same
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

		pages, dir, syms := frontCoded(t, baseTerms)
		m, err := NewMapped(pages, dir, syms, nBase)
		if err != nil {
			t.Fatalf("NewMapped: %v", err)
		}
		layered, err := WithBase(m)
		if err != nil {
			t.Fatalf("WithBase: %v", err)
		}
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
		for _, term := range append(all, absent...) {
			li, lok := layered.Lookup(term)
			fi, fok := flat.Lookup(term)
			if li != fi || lok != fok {
				t.Logf("Lookup(%v) = %d, %v over the base, %d, %v flat", term, li, lok, fi, fok)
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

// TestDictWithBaseSharedFill (run under -race): in shared mode, readers
// look up and decode base terms while the one writer interns new terms
// and re-encodes base terms.
func TestDictWithBaseSharedFill(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	nBase := 20*BlockTerms + 7
	terms := randTerms(rng, nBase+200)
	base, fresh := terms[:nBase], terms[nBase:]
	pages, dir, syms := frontCoded(t, base)
	for round := 0; round < 20; round++ {
		m, err := NewMapped(pages, dir, syms, nBase)
		if err != nil {
			t.Fatal(err)
		}
		d, err := WithBase(m)
		if err != nil {
			t.Fatal(err)
		}
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

// oldCoded returns the two sections every build before the kind byte's
// flags wrote of terms (IDs 1, 2, …): each term front-coded against the
// immediately previous term of its block, whatever their kinds, and every
// literal with its datatype and language in full.
func oldCoded(terms []rdf.Term) (pages, dir []byte) {
	var prev string
	for i, t := range terms {
		lcp := 0
		if i%BlockTerms == 0 {
			dir = binary.LittleEndian.AppendUint64(dir, uint64(len(pages)))
			pages = append(pages, byte(t.Kind))
		} else {
			lcp = commonPrefix([]byte(prev), t.Value)
			pages = append(pages, byte(t.Kind))
			pages = binary.AppendUvarint(pages, uint64(lcp))
		}
		pages = binary.AppendUvarint(pages, uint64(len(t.Value)-lcp))
		pages = append(pages, t.Value[lcp:]...)
		if t.Kind == rdf.Literal {
			pages = binary.AppendUvarint(pages, uint64(len(t.Datatype)))
			pages = append(pages, t.Datatype...)
			pages = binary.AppendUvarint(pages, uint64(len(t.Lang)))
			pages = append(pages, t.Lang...)
		}
		prev = t.Value
	}
	return pages, dir
}

// TestFrontCodedOldCoding: pages in the coding of the builds before the
// kind byte's flags decode to the same terms under the same IDs, and a
// dictionary over them — they hold no symbol table — codes every block
// anew, whatever the base's size: the sections it writes are the flat
// dictionary's, and decode to the same terms again.
func TestFrontCodedOldCoding(t *testing.T) {
	for _, n := range []int{1, BlockTerms - 1, BlockTerms, BlockTerms + 1, 5*BlockTerms + 3, (sampleBlocks+1)*BlockTerms + 3} {
		rng := rand.New(rand.NewPCG(uint64(n), 4))
		terms := randTerms(rng, n+20)
		base, fresh := terms[:n], terms[n:]
		pages, dir := oldCoded(base)
		m, err := NewMapped(pages, dir, nil, n)
		if err != nil {
			t.Fatalf("n=%d: NewMapped: %v", n, err)
		}
		d, err := WithBase(m)
		if err != nil {
			t.Fatalf("n=%d: WithBase of old-coded pages: %v", n, err)
		}
		for i, want := range base {
			if got := d.Term(ID(i + 1)); got != want {
				t.Fatalf("n=%d: Term(%d) = %v, want %v", n, i+1, got, want)
			}
			if id, ok := d.Lookup(want); !ok || id != ID(i+1) {
				t.Fatalf("n=%d: Lookup(%v) = (%d,%v), want (%d,true)", n, want, id, ok, i+1)
			}
		}
		for _, tm := range fresh {
			d.Encode(tm)
		}
		var out bytes.Buffer
		got, outDir, outSyms, err := d.WriteFrontCoded(&out)
		if err != nil || got != len(terms) {
			t.Fatalf("n=%d: WriteFrontCoded = %d terms, %v", n, got, err)
		}
		flatPages, flatDir, flatSyms := frontCoded(t, terms)
		if !bytes.Equal(out.Bytes(), flatPages) || !bytes.Equal(outDir, flatDir) || !bytes.Equal(outSyms, flatSyms) {
			t.Fatalf("n=%d: the sections differ from the flat dictionary's", n)
		}
		again, err := NewMapped(out.Bytes(), outDir, outSyms, len(terms))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WithBase(again); err != nil {
			t.Fatalf("n=%d: WithBase of the written sections: %v", n, err)
		}
		for i, want := range terms {
			if got := again.Term(ID(i + 1)); got != want {
				t.Fatalf("n=%d: written: Term(%d) = %v, want %v", n, i+1, got, want)
			}
		}
	}
}

// TestFrontCodedFlags: the writer sets each flag wherever it applies —
// sameKind on every term with an earlier term of its kind in its block,
// sameTags on every literal whose datatype and language are those of the
// block's previous literal, packed on every term whose suffix codes
// shorter than it is — and nowhere else.
func TestFrontCodedFlags(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	terms := randTerms(rng, 7*BlockTerms+5)
	pages, dir, syms := frontCoded(t, terms)
	m, err := NewMapped(pages, dir, syms, len(terms))
	if err != nil {
		t.Fatal(err)
	}
	flagged := [3]int{}
	w := walker{m: m}
	for i, tm := range terms {
		if i%BlockTerms == 0 {
			w.have = 0
		}
		b := pages[w.pos]
		kindSeen := w.have&(1<<tm.Kind) != 0
		tagsSeen := tm.Kind == rdf.Literal && w.have&(1<<rdf.Literal) != 0 && w.dt == tm.Datatype && w.lang == tm.Lang
		if got := b&sameKind != 0; got != kindSeen {
			t.Fatalf("term %d (%v): sameKind %v, want %v", i+1, tm, got, kindSeen)
		}
		if got := b&sameTags != 0; got != tagsSeen {
			t.Fatalf("term %d (%v): sameTags %v, want %v", i+1, tm, got, tagsSeen)
		}
		if kindSeen {
			flagged[0]++
		}
		if tagsSeen {
			flagged[1]++
		}
		var l link
		if w.step(&l); w.err != nil {
			t.Fatal(w.err)
		}
		suffix := tm.Value[l.lcp:]
		codes, packs := m.tab.encode(nil, suffix)
		if got := b&packed != 0; got != packs {
			t.Fatalf("term %d (%v): packed %v, want %v (%d code bytes for a %d-byte suffix)", i+1, tm, got, packs, len(codes), len(suffix))
		}
		if packs {
			flagged[2]++
		}
	}
	if flagged[0] == 0 || flagged[1] == 0 || flagged[2] == 0 {
		t.Fatalf("the sample flags %d terms sameKind, %d sameTags and %d packed: it exercises not every flag", flagged[0], flagged[1], flagged[2])
	}
	old, _ := oldCoded(terms)
	unpacked, _ := flaggedCoded(terms)
	if len(pages) >= len(unpacked) || len(unpacked) >= len(old) {
		t.Fatalf("the pages take %d bytes, unpacked %d, in the old coding %d", len(pages), len(unpacked), len(old))
	}
}

// TestWriteFrontCodedTableLifetime: a dictionary writes the same bytes
// every time; over a mapped base of more than sampleBlocks blocks it keeps
// the base's symbol table, copies the base's complete blocks and packs
// the new terms with that table; over a base of sampleBlocks blocks it
// trains a table on every term and writes what a flat dictionary writes.
func TestWriteFrontCodedTableLifetime(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	all := randTerms(rng, (sampleBlocks+2)*BlockTerms+40)
	write := func(d *Dict) (pages, dir, syms []byte) {
		t.Helper()
		var buf bytes.Buffer
		n, dir, syms, err := d.WriteFrontCoded(&buf)
		if err != nil || n != d.Len() {
			t.Fatalf("WriteFrontCoded = %d terms, %v; want %d", n, err, d.Len())
		}
		return buf.Bytes(), dir, syms
	}
	for _, c := range []struct {
		nBase int
		reuse bool
	}{{sampleBlocks*BlockTerms + 5, true}, {sampleBlocks * BlockTerms, false}} {
		flat := New()
		for _, tm := range all {
			flat.Encode(tm)
		}
		flatPages, flatDir, flatSyms := write(flat)
		if again, _, againSyms := write(flat); !bytes.Equal(again, flatPages) || !bytes.Equal(againSyms, flatSyms) {
			t.Fatal("a second write of the same dictionary writes other bytes")
		}
		pages, dir, syms := frontCoded(t, all[:c.nBase])
		m, err := NewMapped(pages, dir, syms, c.nBase)
		if err != nil {
			t.Fatal(err)
		}
		d, err := WithBase(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range all[c.nBase:] {
			d.Encode(tm)
		}
		gotPages, gotDir, gotSyms := write(d)
		again, err := NewMapped(gotPages, gotDir, gotSyms, len(all))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WithBase(again); err != nil {
			t.Fatal(err)
		}
		for i, want := range all {
			if got := again.Term(ID(i + 1)); got != want {
				t.Fatalf("base of %d: Term(%d) = %v, want %v", c.nBase, i+1, got, want)
			}
		}
		if !c.reuse {
			if !bytes.Equal(gotPages, flatPages) || !bytes.Equal(gotDir, flatDir) || !bytes.Equal(gotSyms, flatSyms) {
				t.Errorf("base of %d: the sections differ from the flat dictionary's", c.nBase)
			}
			continue
		}
		cut := m.blockStart(c.nBase / BlockTerms)
		if !bytes.Equal(gotSyms, syms) || !bytes.Equal(gotPages[:cut], pages[:cut]) {
			t.Errorf("base of %d: the base's table and complete blocks are not kept", c.nBase)
		}
		basePacked, _ := m.Packed()
		if n, _ := again.Packed(); n <= basePacked {
			t.Errorf("base of %d: %d terms packed, the base packed %d: the new terms do not pack", c.nBase, n, basePacked)
		}
	}
}

// TestPackedPrefixPastThePages: a value packed to a fraction of its
// length is the prefix of the next term, which shares more bytes with it
// than the pages hold; both open and decode.
func TestPackedPrefixPastThePages(t *testing.T) {
	long := "http://x/" + strings.Repeat("abcdefgh", 300)
	terms := []rdf.Term{rdf.NewIRI(long), rdf.NewIRI(long + "/more"), rdf.NewIRI(long[:len(long)-3])}
	pages, dir, syms := frontCoded(t, terms)
	if len(pages) >= len(long) {
		t.Fatalf("the pages take %d bytes for a %d-byte value: it does not pack", len(pages), len(long))
	}
	m, err := NewMapped(pages, dir, syms, len(terms))
	if err != nil {
		t.Fatal(err)
	}
	d, err := WithBase(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range terms {
		if got := d.Term(ID(i + 1)); got != want {
			t.Errorf("Term(%d) = %d bytes, want %d", i+1, len(got.Value), len(want.Value))
		}
	}
}

// TestWithBaseRefusesBadFlags: a flag the pages cannot honour — sameKind
// on a block's first term or with no earlier term of its kind in the
// block, sameTags on a term that is not a literal or with no earlier
// literal in the block, any other high bit, a kind out of range — fails
// WithBase with an error, never a panic; and flags that name a term of
// the block decode against it.
func TestWithBaseRefusesBadFlags(t *testing.T) {
	// block lays out terms, each given as its bytes, as a one-block
	// dictionary and returns it with its directory.
	block := func(terms ...[]byte) ([]byte, []byte, int) {
		var pages []byte
		dir := []byte{}
		for i, tm := range terms {
			if i%BlockTerms == 0 {
				dir = binary.LittleEndian.AppendUint64(dir, uint64(len(pages)))
			}
			pages = append(pages, tm...)
		}
		return pages, dir, len(terms)
	}
	iri := func(v string) []byte { return append([]byte{byte(rdf.IRI), byte(len(v))}, v...) }
	// coded is a term after a block's head: kind byte, lcp, suffix.
	coded := func(kind byte, lcp int, suffix string, fields ...string) []byte {
		b := append([]byte{kind, byte(lcp), byte(len(suffix))}, suffix...)
		for _, f := range fields {
			b = append(append(b, byte(len(f))), f...)
		}
		return b
	}
	lit := byte(rdf.Literal)
	sixteen := [][]byte{iri("a00")}
	for i := 1; i < BlockTerms; i++ {
		sixteen = append(sixteen, coded(byte(rdf.IRI), 0, fmt.Sprintf("a%02d", i)))
	}
	for _, c := range []struct {
		name  string
		terms [][]byte
		want  string
	}{
		{"sameKind on the first term", [][]byte{{byte(rdf.IRI) | sameKind, 1, 'a'}}, "term 1 extends an earlier iri"},
		{"sameKind on a later block's first term", append(sixteen[:BlockTerms:BlockTerms], []byte{byte(rdf.IRI) | sameKind, 1, 'b'}), "term 17 extends an earlier iri"},
		{"sameKind with no earlier term of the kind", [][]byte{iri("a"), coded(byte(rdf.Blank)|sameKind, 0, "b")}, "term 2 extends an earlier blank"},
		{"sameTags on an IRI", [][]byte{iri("a"), coded(byte(rdf.IRI)|sameTags, 0, "b")}, "term 2, a iri, takes the datatype"},
		{"sameTags with no earlier literal", [][]byte{iri("a"), coded(lit|sameTags, 0, "x")}, "term 2, a literal, takes the datatype"},
		{"sameTags on a later block's first literal", append(sixteen[:BlockTerms-1:BlockTerms-1], coded(lit, 0, "x", "", "en"), []byte{lit | sameTags, 1, 'y'}), "term 17, a literal, takes the datatype"},
		{"packed with no symbol table", [][]byte{iri("a"), coded(byte(rdf.IRI)|packed, 0, "b")}, "term 2 is packed, and the dictionary has no symbol table"},
		{"bit 0x80", [][]byte{iri("a"), coded(byte(rdf.IRI)|sameKind|0x80, 0, "b")}, "term 2 has unknown flags 0x90"},
		{"kind 4", [][]byte{iri("a"), coded(4, 0, "b")}, "term 2 has no kind byte"},
		{"kind 0 with a flag", [][]byte{iri("a"), coded(sameKind, 0, "b")}, "term 2 has no kind byte"},
		{"sameKind prefix longer than the term of the kind", [][]byte{iri("a"), {byte(rdf.Blank), 0, 3, 'x', 'y', 'z'}, coded(byte(rdf.IRI)|sameKind, 3, "b")}, "term 3 shares 3 bytes with a 1-byte predecessor"},
	} {
		pages, dir, n := block(c.terms...)
		m, err := NewMapped(pages, dir, nil, n)
		if err != nil {
			t.Fatalf("%s: NewMapped: %v", c.name, err)
		}
		if _, err := WithBase(m); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: WithBase = %v, want an error containing %q", c.name, err, c.want)
		}
	}

	// Well-formed flags: term 3 extends term 1, the last IRI, not term 2;
	// literal 5 takes literal 4's datatype and language.
	pages, dir, n := block(iri("http://x/a"), []byte{byte(rdf.Blank), 0, 2, 'b', '0'},
		coded(byte(rdf.IRI)|sameKind, 9, "b"),
		coded(lit, 0, "1", "http://x/int", ""), coded(lit|sameKind|sameTags, 0, "2"))
	m, err := NewMapped(pages, dir, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := WithBase(m)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range []rdf.Term{rdf.NewIRI("http://x/a"), rdf.NewBlank("b0"), rdf.NewIRI("http://x/b"),
		rdf.NewTypedLiteral("1", "http://x/int"), rdf.NewTypedLiteral("2", "http://x/int")} {
		if got := d.Term(ID(id + 1)); got != want {
			t.Errorf("Term(%d) = %v, want %v", id+1, got, want)
		}
	}
}

// TestWithBaseRefusesBadSymbols: a packed term the table cannot decode
// — a code past the table's end, an escape as its last byte, no table at
// all — a table that does not parse — a symbol of length 0 or more than
// 8, cut short or followed by stray bytes, or an empty section — and a
// packed value shorter than a later term's shared prefix fail NewMapped
// or WithBase with an error, never a panic; and codes the table holds
// decode, whatever is packed around them.
func TestWithBaseRefusesBadSymbols(t *testing.T) {
	// Two symbols: code 0 is "ab", code 1 is "xyz".
	syms := []byte{2, 2, 3, 'a', 'b', 'x', 'y', 'z'}
	iri := byte(rdf.IRI)
	// head is a block's first term, packed with codes.
	head := func(codes ...byte) []byte { return append([]byte{iri | packed, byte(len(codes))}, codes...) }
	open := func(syms []byte, terms ...[]byte) error {
		var pages []byte
		for _, tm := range terms {
			pages = append(pages, tm...)
		}
		m, err := NewMapped(pages, make([]byte, 8*blocks(len(terms))), syms, len(terms))
		if err != nil {
			return err
		}
		_, err = WithBase(m)
		return err
	}
	for _, c := range []struct {
		name  string
		syms  []byte
		terms [][]byte
		want  string
	}{
		{"a code past the table's end", syms, [][]byte{head(0, 2)}, "term 1: code 2 is past the table's 2 symbols"},
		{"code 254 of a two-symbol table", syms, [][]byte{head(254)}, "term 1: code 254 is past the table's 2 symbols"},
		{"an escape as the last byte", syms, [][]byte{head(1, escape)}, "term 1: an escape is its last code byte"},
		{"a packed term with no table", nil, [][]byte{head(escape, 'a')}, "term 1 is packed, and the dictionary has no symbol table"},
		{"a packed term after a plain one with no table", nil, [][]byte{{iri, 1, 'a'}, {iri | packed, 0, 1, 0}}, "term 2 is packed, and the dictionary has no symbol table"},
		{"a symbol of length 0", []byte{2, 0, 3, 'x', 'y', 'z'}, [][]byte{head(1)}, "symbol 0 has length 0"},
		{"a symbol of length 9", []byte{1, 9, '1', '2', '3', '4', '5', '6', '7', '8', '9'}, [][]byte{head(0)}, "symbol 0 has length 9"},
		{"an empty table section", []byte{}, [][]byte{head(0)}, "the symbol table is empty"},
		{"a table cut in its lengths", []byte{3, 1}, [][]byte{head(0)}, "too few for the lengths of its 3 symbols"},
		{"a table cut in its symbols", []byte{2, 2, 3, 'a', 'b', 'x'}, [][]byte{head(0)}, "symbol 1 runs past the symbol table's end"},
		{"bytes after the last symbol", append(append([]byte{}, syms...), 'q'), [][]byte{head(0)}, "1 bytes after the symbol table's last symbol"},
		{"a packed value shorter than a later term's prefix", syms, [][]byte{head(0), {iri, 3, 1, 'c'}}, "term 2 shares 3 bytes with a 2-byte predecessor"},
	} {
		if err := open(c.syms, c.terms...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.want)
		}
	}

	// Well-formed: "ab" + escaped 'c' + "xyz"; then a plain term sharing
	// 4 decoded bytes of it, and a packed one sharing 2 of them.
	var pages []byte
	for _, tm := range [][]byte{head(0, escape, 'c', 1), {iri, 4, 1, 'q'}, {iri | packed, 2, 2, 1, 1}} {
		pages = append(pages, tm...)
	}
	m, err := NewMapped(pages, make([]byte, 8), syms, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := WithBase(m)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range []string{"abcxyz", "abcxq", "abxyzxyz"} {
		if got := d.Term(ID(id + 1)); got != rdf.NewIRI(want) {
			t.Errorf("Term(%d) = %v, want %q", id+1, got, want)
		}
		if got, ok := d.Lookup(rdf.NewIRI(want)); !ok || got != ID(id+1) {
			t.Errorf("Lookup(%q) = %d, %v; want %d", want, got, ok, id+1)
		}
	}
	if n, err := m.Packed(); n != 2 || err != nil {
		t.Errorf("Packed() = %d, %v; want 2", n, err)
	}
}

// FuzzSymbolTable: any table section either fails to parse or, with any
// codes, either fails to decode or decodes to at most eight bytes a code,
// the same bytes by every decode path; and what the table codes a string
// to decodes to that string.
//
//	go test -fuzz=FuzzSymbolTable -fuzztime=30s -run='^$' ./internal/dict
func FuzzSymbolTable(f *testing.F) {
	terms := randTerms(rand.New(rand.NewPCG(7, 7)), 5*BlockTerms)
	_, _, syms := frontCoded(f, terms)
	f.Add(syms, []byte{0, 1, escape, 'x', 2})
	f.Add([]byte{2, 2, 3, 'a', 'b', 'x', 'y', 'z'}, []byte{0, escape, 'c', 1})
	f.Add([]byte{0}, []byte{escape, 0})
	f.Add([]byte{1, 8, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, syms, codes []byte) {
		tab, err := parseSymbols(syms)
		if err != nil {
			return
		}
		if again := tab.appendTo(nil); !bytes.Equal(again, syms) {
			t.Fatalf("the table writes as %x, parsed from %x", again, syms)
		}
		n, err := tab.decodedLen(codes)
		if err != nil {
			return
		}
		out := tab.appendDecoded(nil, codes)
		if len(out) != n || n > 8*len(codes) {
			t.Fatalf("%d codes decode to %d bytes, decodedLen says %d", len(codes), len(out), n)
		}
		part := make([]byte, n/2)
		tab.fill(part, codes)
		if !bytes.Equal(part, out[:n/2]) || !tab.hasPrefix(codes, string(out)) {
			t.Fatalf("fill and hasPrefix disagree with appendDecoded's %q", out)
		}
		if n > 0 {
			wrong := []byte(string(out))
			wrong[n-1]++
			if tab.hasPrefix(codes, string(wrong)) {
				t.Fatalf("hasPrefix accepts %q for %q", wrong, out)
			}
		}
		if recoded, ok := tab.encode(nil, string(out)); ok {
			if back := tab.appendDecoded(nil, recoded); len(recoded) >= n || !bytes.Equal(back, out) {
				t.Fatalf("%q codes to %x, which decodes to %q", out, recoded, back)
			}
		}
	})
}

// FuzzDictPages: on any pages, directory and symbol table, WithBase
// either fails or yields a dictionary that decodes every term and finds
// each under its ID, and whose written sections open again to the same
// terms. Seeded with the three codings: the writer's, that of the builds
// between the kind byte's flags and the table (no term packed, no table),
// and that of the builds before the flags. An empty table stands for a
// file without one.
//
//	go test -fuzz=FuzzDictPages -fuzztime=30s -run='^$' ./internal/dict
func FuzzDictPages(f *testing.F) {
	for _, n := range []int{1, 3, BlockTerms + 2, 3 * BlockTerms} {
		terms := randTerms(rand.New(rand.NewPCG(uint64(n), 5)), n)
		pages, dir, syms := frontCoded(f, terms)
		f.Add(pages, dir, syms, uint16(n))
		pages, dir = flaggedCoded(terms)
		f.Add(pages, dir, []byte{}, uint16(n))
		pages, dir = oldCoded(terms)
		f.Add(pages, dir, []byte{}, uint16(n))
	}
	f.Fuzz(func(t *testing.T, pages, dir, syms []byte, n uint16) {
		if len(syms) == 0 {
			syms = nil
		}
		m, err := NewMapped(pages, dir, syms, int(n))
		if err != nil {
			return
		}
		d, err := WithBase(m)
		if err != nil {
			return
		}
		terms := make([]rdf.Term, n)
		for i := range terms {
			terms[i] = d.Term(ID(i + 1))
			if id, ok := d.Lookup(terms[i]); !ok || id != ID(i+1) {
				t.Fatalf("Lookup(Term(%d) = %v) = %d, %v", i+1, terms[i], id, ok)
			}
		}
		var out bytes.Buffer
		written, outDir, outSyms, err := d.WriteFrontCoded(&out)
		if err != nil || written != int(n) {
			t.Fatalf("WriteFrontCoded = %d terms, %v; want %d", written, err, n)
		}
		again, err := NewMapped(out.Bytes(), outDir, outSyms, written)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := WithBase(again); err != nil {
			t.Fatalf("the written sections do not open: %v", err)
		}
		for i, want := range terms {
			if got := again.Term(ID(i + 1)); got != want {
				t.Fatalf("written: Term(%d) = %v, want %v", i+1, got, want)
			}
		}
	})
}
