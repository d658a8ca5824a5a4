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
//	  term 0:   u8 kind, uvarint len(value), value
//	  term i>0: u8 kind|flags, uvarint lcp(value, ref's value), uvarint len(suffix), suffix
//	  literals append, unless flagged sameTags:
//	            uvarint len(datatype), datatype, uvarint len(lang), lang
//	dir    := one u64 per block: block start offset into pages
//
// A term's ref is the block's previous term of its own kind when it is
// flagged sameKind, and the immediately previous term otherwise; a
// literal flagged sameTags has the datatype and language tag of the
// block's previous literal. The writer sets each flag wherever it applies:
// insertion order interleaves kinds (a subject IRI, its name literal, the
// next IRI), and a term shares its prefix with the last term of its own
// kind, not with its neighbour. A kind byte with neither flag decodes as
// every term did before the flags existed, so those pages read unchanged.
const BlockTerms = 16

// The kind byte: the term's rdf.TermKind in the low bits, and two flags.
const (
	kindBits = 0x0f
	sameKind = 0x10 // the lcp is taken against the block's previous term of this kind
	sameTags = 0x20 // a literal with the datatype and language of the block's previous literal
)

// WriteFrontCoded streams the pages section of d's terms, in ID order,
// to pages, and returns how many terms that was with the directory
// section, the only per-term state the encoding keeps: 8 bytes per
// BlockTerms terms.
//
// Over a mapped base, the base's complete blocks are copied byte for byte
// — a block's encoding depends on its own terms only, and a block without
// flags, which a build before them wrote, decodes as one with them — so
// only the base's last, partial block is decoded and re-encoded: the work
// is O(new terms).
//
// In shared mode d is locked only to take a view of its term table — a
// dictionary never rewrites a record, so the view stays valid while the
// writer interns on — and the terms written are those present then.
func (d *Dict) WriteFrontCoded(pages io.Writer) (n int, dir []byte, err error) {
	if d.mu != nil {
		d.mu.RLock()
	}
	recs := d.recs[:len(d.recs):len(d.recs)]
	if d.mu != nil {
		d.mu.RUnlock()
	}
	bl := d.baseLen()
	n = bl + len(recs)

	dir = make([]byte, 0, (n+BlockTerms-1)/BlockTerms*8)
	var off uint64
	next := 0      // 0-based index of the next term written
	var buf []byte // one term's encoding, reused
	var enc encoder
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
		full := bl / BlockTerms
		cut := len(m.pages)
		if full*BlockTerms < bl {
			cut = m.blockStart(full)
		}
		if _, err := pages.Write(m.pages[:cut]); err != nil {
			return 0, nil, err
		}
		dir = append(dir, m.dir[:full*8]...)
		off = uint64(cut)
		next = full * BlockTerms
		for c := m.cursorAt(next); c.i < bl; {
			t := c.next()
			if c.err != nil {
				return 0, nil, c.err
			}
			if err := write(t); err != nil {
				return 0, nil, err
			}
		}
	}
	for _, r := range recs {
		if err := write(r.term()); err != nil {
			return 0, nil, err
		}
	}
	return n, dir, nil
}

// encoder is the writer's state within a block: the last value of each
// kind, the last term's kind and the last literal's datatype and language.
type encoder struct {
	vals     [rdf.Literal + 1][]byte // by kind: the block's last value of that kind
	have     uint8                   // bit k: the block holds a term of kind k so far
	prev     rdf.TermKind            // the last term's kind
	dt, lang []byte                  // the block's last literal's fields
}

// append appends t's encoding to b; head starts a block.
func (e *encoder) append(b []byte, t rdf.Term, head bool) []byte {
	k := t.Kind
	if head {
		e.have = 0
	}
	kind, ref := byte(k), e.prev
	if e.have&(1<<k) != 0 {
		kind, ref = kind|sameKind, k
	}
	literal := k == rdf.Literal
	tags := literal && e.have&(1<<rdf.Literal) != 0 && string(e.dt) == t.Datatype && string(e.lang) == t.Lang
	if tags {
		kind |= sameTags
	}
	b = append(b, kind)
	lcp := 0
	if !head {
		lcp = commonPrefix(e.vals[ref], t.Value)
		b = binary.AppendUvarint(b, uint64(lcp))
	}
	b = binary.AppendUvarint(b, uint64(len(t.Value)-lcp))
	b = append(b, t.Value[lcp:]...)
	if literal && !tags {
		b = binary.AppendUvarint(b, uint64(len(t.Datatype)))
		b = append(b, t.Datatype...)
		b = binary.AppendUvarint(b, uint64(len(t.Lang)))
		b = append(b, t.Lang...)
		e.dt = append(e.dt[:0], t.Datatype...)
		e.lang = append(e.lang[:0], t.Lang...)
	}
	e.vals[k] = append(e.vals[k][:0], t.Value...)
	e.prev = k
	e.have |= 1 << k
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
	n     int

	// Owner is kept reachable for as long as m is: the store layer hangs
	// the mapping the sections live in here, so that they stay mapped
	// while the dictionary can read them.
	Owner any
}

// NewMapped wraps the two dictionary sections holding n terms. It checks
// the directory's length only, so it costs nothing per term; WithBase
// walks the pages and checks the rest.
func NewMapped(pages, dir []byte, n int) (*Mapped, error) {
	nBlocks := (n + BlockTerms - 1) / BlockTerms
	if len(dir) != nBlocks*8 {
		return nil, fmt.Errorf("dict: directory holds %d bytes, want %d for %d terms", len(dir), nBlocks*8, n)
	}
	return &Mapped{pages: pages, dir: dir, n: n}, nil
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
	n := b.lens[k]
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
	return k == t.Kind && b.lens[k] == len(t.Value) && dt == t.Datatype && lang == t.Lang && b.matches(t.Value)
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
}

// link is one parsed term: its value is lcp bytes of term from's (an index
// into the block, -1 for none), then its suffix, pages[off:off+n].
type link struct {
	from, lcp, off, n int
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
// does not hold, a prefix longer than the value it is taken from — set
// w.err, which the caller checks.
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
	if k-1 > rdf.Literal-1 || b&^(kindBits|sameKind|sameTags) != 0 {
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
		if l.lcp = w.uvarint(); l.lcp > w.lens[ref] {
			w.fail(fmt.Errorf("dict: term %d shares %d bytes with a %d-byte predecessor", w.i+1, l.lcp, w.lens[ref]))
			return
		}
	}
	l.n = w.uvarint()
	if l.n > len(p)-w.pos {
		w.fail(fmt.Errorf("dict: term %d runs past the pages' end", w.i+1))
		return
	}
	l.off = w.pos
	w.pos += l.n
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
// the pages hold, reads as 0 and sets w.err.
func (w *walker) uvarint() int {
	if w.pos < len(w.m.pages) && w.m.pages[w.pos] < 0x80 { // most lengths: one byte
		w.pos++
		return int(w.m.pages[w.pos-1])
	}
	v, n := binary.Uvarint(w.m.pages[w.pos:])
	if n <= 0 || v > uint64(len(w.m.pages)) {
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
	b.j = int(id-1) % BlockTerms
	for j := 0; j <= b.j; j++ {
		b.step(&b.links[j])
	}
	if b.err != nil { // pages WithBase did not check: a store bug
		panic(b.err)
	}
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
			copy(out[l.lcp:need], p[l.off:l.off+need-l.lcp])
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
			if string(p[l.off:l.off+need-l.lcp]) != v[l.lcp:need] {
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
	v = append(v, c.m.pages[l.off:l.off+l.n]...)
	c.vals[c.kind] = v
	t := rdf.Term{Kind: c.kind, Value: unsafe.String(unsafe.SliceData(v), len(v))}
	if c.kind == rdf.Literal {
		t.Datatype, t.Lang = c.dt, c.lang
	}
	return t
}
