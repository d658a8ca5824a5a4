package dict

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"unsafe"

	"rdfsum/internal/rdf"
)

// Front-coded read-only dictionary pages, the on-disk form of a Dict in
// snapshot format v2. Terms are stored in ID order — IDs are dense and
// assigned in insertion order, and summaries are bit-identical only if
// every term keeps its ID — in blocks of BlockTerms, each term
// prefix-compressed against an earlier term of its block. A sparse
// directory (one offset per block) gives O(1) block location for Term.
// Nothing reads the terms in lexical order: the term → ID direction is a
// Dict's hash index over the pages (WithBase).
//
//	pages  := blocks, back to back
//	block  := BlockTerms terms (the last block fewer):
//	  term 0:   u8 kind|flags, uvarint len(suffix), suffix
//	  term i>0: u8 kind|flags, uvarint lcp(value, ref's value), uvarint len(suffix), suffix
//	  literals append, unless flagged sameTags:
//	            uvarint len(datatype), datatype, uvarint len(lang), lang
//	dir    := one u64 per block: block start offset into pages
//
// A term's value is lcp bytes of its ref's value (none for a block's
// first term), then its suffix. A term's ref is the block's previous term
// of its own kind when it is flagged sameKind, and the immediately
// previous term otherwise; a literal flagged sameTags has the datatype
// and language tag of the block's previous literal; the suffix of a term
// flagged packed is stored as codes of the file's symbol table (fsst.go),
// and its length is that of the codes, while lcp counts decoded bytes.
// The writer sets each flag wherever it applies: insertion order
// interleaves kinds (a subject IRI, its name literal, the next IRI), a
// term shares its prefix with the last term of its own kind, not with its
// neighbour, and packs its suffix wherever the codes are shorter. A kind
// byte with no flag decodes as every term did before the flags existed,
// so those pages read unchanged.
const BlockTerms = 16

// The kind byte: the term's rdf.TermKind in the low bits, and three flags.
const (
	kindBits = 0x0f
	sameKind = 0x10 // the lcp is taken against the block's previous term of this kind
	sameTags = 0x20 // a literal with the datatype and language of the block's previous literal
	packed   = 0x40 // the suffix is stored as symbol-table codes
)

// sampleBlocks is how many blocks, evenly spread, a table's sample is
// drawn from (every block of a smaller dictionary), and sampleBytes how
// many suffix bytes it holds at most: an equal share from each block.
const (
	sampleBlocks = 128
	sampleBytes  = 16 << 10
)

// WriteFrontCoded streams the pages section of d's terms, in ID order,
// to pages, and returns how many terms that was with the directory
// section, the only per-term state the encoding keeps — 8 bytes per
// BlockTerms terms — and the symbol table section the packed suffixes
// are coded with.
//
// A dictionary without a mapped base trains its table on a sample of its
// terms (train). Over a mapped base whose table was trained on a sample
// — a base of more than sampleBlocks blocks — the base's table codes the
// new terms, and the base's complete blocks are copied byte for byte: a
// block's encoding depends on its own terms and the table only, so only
// the base's last, partial block is decoded and re-encoded, and the work
// is O(new terms). A smaller base's table saw every term it had: it is
// trained anew, on every term, and every block is re-encoded. So is a
// base of a build before the table, whatever its size, which packs no
// term: the file written holds a table, which a write over that file
// keeps.
//
// In shared mode d is locked only to take a view of its term table — a
// dictionary never rewrites a record, so the view stays valid while the
// writer interns on — and the terms written are those present then.
func (d *Dict) WriteFrontCoded(pages io.Writer) (n int, dir, symbols []byte, err error) {
	if d.mu != nil {
		d.mu.RLock()
	}
	recs := d.recs[:len(d.recs):len(d.recs)]
	if d.mu != nil {
		d.mu.RUnlock()
	}
	bl := d.baseLen()
	n = bl + len(recs)

	full := 0 // the base's blocks copied as they are
	var enc encoder
	if bl > 0 && d.base.tab != nil && blocks(bl) > sampleBlocks { // a table trained on a sample
		full, enc.tab = bl/BlockTerms, d.base.tab
	}
	if enc.tab == nil {
		if enc.tab, err = d.train(recs, n); err != nil {
			return 0, nil, nil, err
		}
	}

	dir = make([]byte, 0, blocks(n)*8)
	var off uint64
	next := 0      // 0-based index of the next term written
	var buf []byte // one term's encoding, reused
	write := func(t rdf.Term) error {
		head := next%BlockTerms == 0
		if head {
			dir = binary.LittleEndian.AppendUint64(dir, off)
		}
		buf = enc.append(buf[:0], t, head)
		if _, err := pages.Write(buf); err != nil {
			return err
		}
		off += uint64(len(buf))
		next++
		return nil
	}

	if bl > 0 {
		m := d.base
		cut := len(m.pages)
		if full*BlockTerms < bl {
			cut = m.blockStart(full)
		}
		if _, err := pages.Write(m.pages[:cut]); err != nil {
			return 0, nil, nil, err
		}
		dir = append(dir, m.dir[:full*8]...)
		off = uint64(cut)
		next = full * BlockTerms
		for c := m.cursorAt(next); c.i < bl; {
			t := c.next()
			if c.err != nil {
				return 0, nil, nil, c.err
			}
			if err := write(t); err != nil {
				return 0, nil, nil, err
			}
		}
	}
	for _, r := range recs {
		if err := write(r.term()); err != nil {
			return 0, nil, nil, err
		}
	}
	return n, dir, enc.tab.appendTo(nil), nil
}

// blocks returns how many blocks n terms take.
func blocks(n int) int { return (n + BlockTerms - 1) / BlockTerms }

// train builds a symbol table for the first n terms of d — the base's,
// then recs — from the suffixes their front coding leaves (no suffix is
// packed in the sample): from each of up to sampleBlocks blocks spread
// evenly over the terms, its first suffixes up to an equal share of
// sampleBytes, the last one cut. Only the base's sampled blocks are
// decoded, as far as their share.
func (d *Dict) train(recs []rec, n int) (*symtab, error) {
	nb := blocks(n)
	cands := min(nb, sampleBlocks)
	share := sampleBytes / max(cands, 1)
	sample := make([]byte, 0, sampleBytes)
	ends := make([]uint16, 0, cands*BlockTerms)
	bl := d.baseLen()
	var c cursor // over the base, reused across blocks
	var e encoder
	for k := range cands {
		i := k * nb / cands * BlockTerms
		hi := min(i+BlockTerms, n)
		if i < bl {
			c.walker = d.base.walkerAt(i)
		}
		for left := share; i < hi && left > 0; i++ {
			var t rdf.Term
			if i < bl {
				if t = c.next(); c.err != nil {
					return nil, c.err
				}
			} else {
				t = recs[i-bl].term()
			}
			_, lcp := e.next(t, i%BlockTerms == 0)
			suffix := t.Value[lcp:]
			suffix = suffix[:min(len(suffix), left)]
			left -= len(suffix)
			sample = append(sample, suffix...)
			ends = append(ends, uint16(len(sample)))
		}
	}
	return trainSymbols(func(yield func(string)) {
		from := 0
		for _, to := range ends {
			yield(unsafe.String(unsafe.SliceData(sample[from:]), int(to)-from))
			from = int(to)
		}
	}), nil
}

// encoder is the writer's state within a block: the last value of each
// kind, the last term's kind and the last literal's datatype and
// language; and the table suffixes are packed with, and a buffer for
// their codes.
type encoder struct {
	vals     [rdf.Literal + 1][]byte // by kind: the block's last value of that kind
	have     uint8                   // bit k: the block holds a term of kind k so far
	prev     rdf.TermKind            // the last term's kind
	dt, lang []byte                  // the block's last literal's fields
	tab      *symtab
	codes    []byte
}

// next moves e past t, a block's first term when head is set, and
// returns t's kind byte, with every flag but packed, and the length of
// the prefix t's value shares with its ref's.
func (e *encoder) next(t rdf.Term, head bool) (kind byte, lcp int) {
	k := t.Kind
	if head {
		e.have = 0
	}
	kind, ref := byte(k), e.prev
	if e.have&(1<<k) != 0 {
		kind, ref = kind|sameKind, k
	}
	if k == rdf.Literal {
		if e.have&(1<<rdf.Literal) != 0 && string(e.dt) == t.Datatype && string(e.lang) == t.Lang {
			kind |= sameTags
		} else {
			e.dt = append(e.dt[:0], t.Datatype...)
			e.lang = append(e.lang[:0], t.Lang...)
		}
	}
	if !head {
		lcp = commonPrefix(e.vals[ref], t.Value)
	}
	e.vals[k] = append(e.vals[k][:0], t.Value...)
	e.prev = k
	e.have |= 1 << k
	return kind, lcp
}

// append appends t's encoding to b; head starts a block.
func (e *encoder) append(b []byte, t rdf.Term, head bool) []byte {
	kind, lcp := e.next(t, head)
	suffix := t.Value[lcp:]
	var ok bool
	if e.codes, ok = e.tab.encode(e.codes[:0], suffix); ok {
		kind |= packed
	}
	b = append(b, kind)
	if !head {
		b = binary.AppendUvarint(b, uint64(lcp))
	}
	if kind&packed != 0 {
		b = binary.AppendUvarint(b, uint64(len(e.codes)))
		b = append(b, e.codes...)
	} else {
		b = binary.AppendUvarint(b, uint64(len(suffix)))
		b = append(b, suffix...)
	}
	if t.Kind == rdf.Literal && kind&sameTags == 0 {
		b = binary.AppendUvarint(b, uint64(len(t.Datatype)))
		b = append(b, t.Datatype...)
		b = binary.AppendUvarint(b, uint64(len(t.Lang)))
		b = append(b, t.Lang...)
	}
	return b
}

// commonPrefix returns the length of the longest common prefix of a and
// b, eight bytes at a time: a term shares tens of bytes with the last
// term of its kind.
func commonPrefix(a []byte, b string) int {
	n := min(len(a), len(b))
	bb := unsafe.Slice(unsafe.StringData(b), len(b)) // read only
	i := 0
	for ; i+8 <= n; i += 8 {
		if x := binary.LittleEndian.Uint64(a[i:]) ^ binary.LittleEndian.Uint64(bb[i:]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < n && a[i] == bb[i] {
		i++
	}
	return i
}

// Mapped is a read-only dictionary served directly from the byte
// sections of a v2 snapshot (typically mmap'd). Safe for concurrent use.
// It decodes terms by ID; the term → ID direction is a Dict's index over
// it (WithBase), whose building walk checks the pages and the directory.
type Mapped struct {
	pages []byte
	dir   []byte
	tab   *symtab // nil for a file of a build before the table: no term is packed
	n     int

	// Owner is kept reachable for as long as m is: the store layer hangs
	// the mapping the sections live in here, so that they stay mapped
	// while the dictionary can read them.
	Owner any
}

// NewMapped wraps the dictionary sections holding n terms: the pages,
// the directory and the symbol table, which is nil when the file has
// none. It checks the directory's length and parses the table only, so
// it costs nothing per term; WithBase walks the pages and checks the
// rest.
func NewMapped(pages, dir, symbols []byte, n int) (*Mapped, error) {
	nBlocks := blocks(n)
	if len(dir) != nBlocks*8 {
		return nil, fmt.Errorf("dict: directory holds %d bytes, want %d for %d terms", len(dir), nBlocks*8, n)
	}
	m := &Mapped{pages: pages, dir: dir, n: n}
	if symbols != nil {
		var err error
		if m.tab, err = parseSymbols(symbols); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Symbols reports how many symbols m's table holds, -1 when the file
// has no table.
func (m *Mapped) Symbols() int {
	if m.tab == nil {
		return -1
	}
	return m.tab.n
}

// Packed walks m's pages and counts the terms whose suffix is packed. It
// fails on pages the walk cannot decode.
func (m *Mapped) Packed() (int, error) {
	n := 0
	w := walker{m: m}
	for w.i < m.n {
		var l link
		if w.step(&l); w.err != nil {
			return 0, w.err
		}
		if l.codes > 0 {
			n++
		}
	}
	return n, nil
}

// Len reports the number of terms.
func (m *Mapped) Len() int { return m.n }

// Term decodes the term interned under id: one parse of its block up to
// it, and one allocation, which holds the term's strings and into which
// the value is built. It panics on an unknown or zero id, matching
// Dict.Term.
func (m *Mapped) Term(id ID) rdf.Term {
	var b block
	b.parse(m, id)
	k, dt, lang := b.tags()
	n := b.valueLen()
	buf := make([]byte, n+len(dt)+len(lang))
	b.fill(buf[:n])
	copy(buf[n:], dt)
	copy(buf[n+len(dt):], lang)
	all, d := unsafe.String(unsafe.SliceData(buf), len(buf)), n+len(dt)
	return rdf.Term{Kind: k, Value: all[:n], Datatype: all[n:d], Lang: all[d:]}
}

// holds reports whether id names t, parsing nothing but id's block up to
// it and building nothing: the value is compared where it lies.
func (m *Mapped) holds(id ID, t rdf.Term) bool {
	var b block
	b.parse(m, id)
	k, dt, lang := b.tags()
	return k == t.Kind && b.valueLen() == len(t.Value) && dt == t.Datatype && lang == t.Lang && b.matches(t.Value)
}

// blockStart returns block b's offset into the pages.
func (m *Mapped) blockStart(b int) int { return int(binary.LittleEndian.Uint64(m.dir[b*8:])) }

// walker parses a mapped dictionary's terms in ID order and checks each,
// rebuilding no value: step reports which earlier term of the block a
// term's value extends, by how many bytes, and where its suffix lies.
// A term extends the last term of its own kind or of the previous term's,
// so the walk keeps one of each kind.
type walker struct {
	m        *Mapped
	i        int                  // 0-based index of the next term
	pos      int                  // the next term's offset into the pages
	kind     rdf.TermKind         // the last term's kind
	ref      rdf.TermKind         // and the kind of the term it extends
	have     uint8                // bit k: the block holds a term of kind k so far
	last     [rdf.Literal + 1]int // by kind: the block's last term of that kind, as an index into it
	lens     [rdf.Literal + 1]int // by kind: that term's value length
	dt, lang string               // the block's last literal's fields, as views of the pages
	err      error                // set on a malformed term; what is parsed after it is garbage
	// trust skips what WithBase checked — the prefix lengths and the
	// packed suffixes' codes — and leaves a packed suffix's length 0:
	// a random access needs only its own term's.
	trust bool
}

// link is one parsed term: its value is lcp bytes of term from's (an index
// into the block, -1 for none), then its suffix of n bytes: pages[off:off+n]
// when codes is 0, else what the codes pages[off:off+codes] decode to (n
// is 0 then in a trusting walk).
type link struct {
	from, lcp, off, n, codes int
}

// walkerAt returns a walker at the head of the block holding 0-based
// index i.
func (m *Mapped) walkerAt(i int) walker {
	b := i / BlockTerms
	w := walker{m: m, i: b * BlockTerms}
	if w.i < m.n {
		w.pos = m.blockStart(b)
	}
	return w
}

// step parses the next term into l, and leaves its kind and the kind of
// the term it extends in w.kind and w.ref. Malformed pages — a term cut
// by their end, an unknown kind or flag, a flag naming a term the block
// does not hold, a prefix longer than the value it is taken from, a
// packed suffix with no table or with codes the table does not decode —
// set w.err, which the caller checks.
func (w *walker) step(l *link) {
	p := w.m.pages
	j := w.i % BlockTerms
	if j == 0 {
		w.have = 0
	}
	if w.pos >= len(p) {
		w.fail(fmt.Errorf("dict: term %d has no kind byte at offset %d of the pages", w.i+1, w.pos))
		return
	}
	b := p[w.pos]
	k := rdf.TermKind(b & kindBits)
	if k-1 > rdf.Literal-1 || b&^(kindBits|sameKind|sameTags|packed) != 0 {
		if k-1 > rdf.Literal-1 {
			w.fail(fmt.Errorf("dict: term %d has no kind byte at offset %d of the pages", w.i+1, w.pos))
		} else {
			w.fail(fmt.Errorf("dict: term %d has unknown flags %#x at offset %d of the pages", w.i+1, b&^kindBits, w.pos))
		}
		return
	}
	ref := w.kind
	l.from, l.lcp = j-1, 0
	if b&sameKind != 0 {
		if w.have&(1<<k) == 0 {
			w.fail(fmt.Errorf("dict: term %d extends an earlier %s its block does not hold", w.i+1, k))
			return
		}
		ref, l.from = k, w.last[k]
	}
	if b&sameTags != 0 && (k != rdf.Literal || w.have&(1<<rdf.Literal) == 0) {
		w.fail(fmt.Errorf("dict: term %d, a %s, takes the datatype and language of an earlier literal its block does not hold", w.i+1, k))
		return
	}
	w.pos++
	if j > 0 {
		if l.lcp = w.uvarint(); l.lcp > w.lens[ref] && !w.trust {
			w.fail(fmt.Errorf("dict: term %d shares %d bytes with a %d-byte predecessor", w.i+1, l.lcp, w.lens[ref]))
			return
		}
	}
	l.n, l.codes = w.uvarint(), 0
	if l.n > len(p)-w.pos {
		w.fail(fmt.Errorf("dict: term %d runs past the pages' end", w.i+1))
		return
	}
	l.off = w.pos
	w.pos += l.n
	if b&packed != 0 && l.n > 0 {
		if w.m.tab == nil {
			w.fail(fmt.Errorf("dict: term %d is packed, and the dictionary has no symbol table", w.i+1))
			return
		}
		l.n, l.codes = 0, l.n
		if !w.trust {
			var err error
			if l.n, err = w.m.tab.decodedLen(p[l.off:w.pos]); err != nil {
				w.fail(fmt.Errorf("dict: term %d: %v", w.i+1, err))
				return
			}
		}
	}
	if k == rdf.Literal && b&sameTags == 0 {
		w.dt = w.field()
		w.lang = w.field()
	}
	w.kind, w.ref = k, ref
	w.have |= 1 << k
	w.last[k] = j
	w.lens[k] = l.lcp + l.n
	w.i++
}

// fail records the walk's first error.
func (w *walker) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// uvarint reads one uvarint at w.pos; a cut one, or one past any length
// the pages can hold, reads as 0 and sets w.err. A prefix counts decoded
// bytes, so it can pass the pages' own length: eight bytes a code.
func (w *walker) uvarint() int {
	if w.pos < len(w.m.pages) && w.m.pages[w.pos] < 0x80 { // most lengths: one byte
		w.pos++
		return int(w.m.pages[w.pos-1])
	}
	v, n := binary.Uvarint(w.m.pages[w.pos:])
	if n <= 0 || v > maxSymbolLen*uint64(len(w.m.pages)) {
		w.fail(fmt.Errorf("dict: term %d has a bad varint at offset %d of the pages", w.i+1, w.pos))
		return 0
	}
	w.pos += n
	return int(v)
}

// field reads one length-prefixed literal field at w.pos, as a view of
// the pages; a field the pages cut reads as empty and sets w.err.
func (w *walker) field() string {
	n := w.uvarint()
	if n > len(w.m.pages)-w.pos {
		w.fail(fmt.Errorf("dict: term %d runs past the pages' end", w.i+1))
		return ""
	}
	f := w.m.pages[w.pos : w.pos+n]
	w.pos += n
	return unsafe.String(unsafe.SliceData(f), n)
}

// block is one term's block as a walk from its head parsed it, up to the
// term: every term's link, from which fill and matches follow the term's
// chain of references back to the head.
type block struct {
	walker
	links [BlockTerms]link
	j     int // the term's index into the block
}

// parse walks id's block up to id. It panics on an unknown or zero id,
// and on pages that do not parse, which WithBase would have refused.
func (b *block) parse(m *Mapped, id ID) {
	if id == None || int(id) > m.n {
		panic(fmt.Sprintf("dict: unknown id %d (mapped dictionary holds %d terms)", id, m.n))
	}
	b.walker = m.walkerAt(int(id - 1))
	b.trust = true
	b.j = int(id-1) % BlockTerms
	for j := 0; j <= b.j; j++ {
		b.step(&b.links[j])
	}
	if b.err != nil { // pages WithBase did not check: a store bug
		panic(b.err)
	}
}

// valueLen returns the length of the parsed term's value.
func (b *block) valueLen() int {
	l := &b.links[b.j]
	if l.codes > 0 {
		n, _ := b.m.tab.decodedLen(b.m.pages[l.off : l.off+l.codes]) // WithBase checked the codes
		return l.lcp + n
	}
	return l.lcp + l.n
}

// tags returns the parsed term's kind, datatype and language.
func (b *block) tags() (rdf.TermKind, string, string) {
	if b.kind != rdf.Literal {
		return b.kind, "", ""
	}
	return rdf.Literal, b.dt, b.lang
}

// fill builds the parsed term's value in out, whose length is the value's.
// Each byte is copied once, from the suffix of the nearest term along the
// chain of references that holds it.
func (b *block) fill(out []byte) {
	p := b.m.pages
	for j, need := b.j, len(out); need > 0; j = b.links[j].from {
		if l := &b.links[j]; need > l.lcp {
			if l.codes > 0 {
				b.m.tab.fill(out[l.lcp:need], p[l.off:l.off+l.codes])
			} else {
				copy(out[l.lcp:need], p[l.off:l.off+need-l.lcp])
			}
			need = l.lcp
		}
	}
}

// matches reports whether the parsed term's value is v, whose length is
// the value's, comparing each byte where fill would copy it from.
func (b *block) matches(v string) bool {
	p := b.m.pages
	for j, need := b.j, len(v); need > 0; j = b.links[j].from {
		if l := &b.links[j]; need > l.lcp {
			if l.codes > 0 {
				if !b.m.tab.hasPrefix(p[l.off:l.off+l.codes], v[l.lcp:need]) {
					return false
				}
			} else if string(p[l.off:l.off+need-l.lcp]) != v[l.lcp:need] {
				return false
			}
			need = l.lcp
		}
	}
	return true
}

// cursor walks a mapped dictionary's terms in ID order and rebuilds each
// value over the one it extends: the block's last value of the term's
// own kind or of the previous term's, so it keeps one value of each kind.
type cursor struct {
	walker
	vals [rdf.Literal + 1][]byte
}

// cursorAt returns a cursor at the head of the block holding 0-based
// index i.
func (m *Mapped) cursorAt(i int) cursor { return cursor{walker: m.walkerAt(i)} }

// next decodes the next term, as a view: its value lives in the cursor
// until the next term of its kind, its literal fields in the pages. On
// malformed pages it sets c.err, which the caller checks.
func (c *cursor) next() rdf.Term {
	var l link
	if c.step(&l); c.err != nil {
		return rdf.Term{}
	}
	v := c.vals[c.kind]
	if c.ref == c.kind {
		v = v[:l.lcp]
	} else {
		v = append(v[:0], c.vals[c.ref][:l.lcp]...)
	}
	if l.codes > 0 {
		v = c.m.tab.appendDecoded(v, c.m.pages[l.off:l.off+l.codes])
	} else {
		v = append(v, c.m.pages[l.off:l.off+l.n]...)
	}
	c.vals[c.kind] = v
	t := rdf.Term{Kind: c.kind, Value: unsafe.String(unsafe.SliceData(v), len(v))}
	if c.kind == rdf.Literal {
		t.Datatype, t.Lang = c.dt, c.lang
	}
	return t
}
