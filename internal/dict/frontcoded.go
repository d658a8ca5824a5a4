package dict

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"unsafe"

	"rdfsum/internal/rdf"
)

// Front-coded read-only dictionary pages, the on-disk form of a Dict in
// snapshot format v2. Terms are stored in ID order — IDs are dense and
// assigned in insertion order, and summaries are bit-identical only if
// every term keeps its ID — in blocks of BlockTerms, each term
// prefix-compressed against its predecessor's Value. A sparse directory
// (one offset per block) gives O(1) block location for Term. Nothing
// reads the terms in lexical order: the term → ID direction is a Dict's
// hash index over the pages (WithBase).
//
//	pages  := blocks, back to back
//	block  := BlockTerms terms (the last block fewer):
//	  term 0:   u8 kind, uvarint len(value), value
//	  term i>0: u8 kind, uvarint lcp(value, prev value), uvarint len(suffix), suffix
//	  literals append: uvarint len(datatype), datatype, uvarint len(lang), lang
//	dir    := one u64 per block: block start offset into pages
const BlockTerms = 16

// WriteFrontCoded streams the pages section of d's terms, in ID order,
// to pages, and returns how many terms that was with the directory
// section, the only per-term state the encoding keeps: 8 bytes per
// BlockTerms terms.
//
// Over a mapped base, the base's complete blocks are copied byte for byte
// — a block's encoding depends on its own terms only — so only the base's
// last, partial block is decoded and re-encoded: the work is O(new terms).
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
	next := 0       // 0-based index of the next term written
	var buf []byte  // one term's encoding, reused
	var prev []byte // the previous term's value
	write := func(t rdf.Term) error {
		buf = append(buf[:0], byte(t.Kind))
		if next%BlockTerms == 0 {
			dir = binary.LittleEndian.AppendUint64(dir, off)
			buf = binary.AppendUvarint(buf, uint64(len(t.Value)))
			buf = append(buf, t.Value...)
		} else {
			lcp := commonPrefix(prev, t.Value)
			buf = binary.AppendUvarint(buf, uint64(lcp))
			buf = binary.AppendUvarint(buf, uint64(len(t.Value)-lcp))
			buf = append(buf, t.Value[lcp:]...)
		}
		if t.Kind == rdf.Literal {
			buf = binary.AppendUvarint(buf, uint64(len(t.Datatype)))
			buf = append(buf, t.Datatype...)
			buf = binary.AppendUvarint(buf, uint64(len(t.Lang)))
			buf = append(buf, t.Lang...)
		}
		if _, err := pages.Write(buf); err != nil {
			return err
		}
		off += uint64(len(buf))
		prev = append(prev[:0], t.Value...)
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
		var value []byte
		for c := m.cursorAt(next); c.i < bl; {
			if value = c.next(value); c.err != nil {
				return 0, nil, c.err
			}
			if err := write(c.term(value)); err != nil {
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

func commonPrefix(a []byte, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
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

// Term decodes the term interned under id: one walk from its block's
// head, and one allocation for the term's strings. It panics on an
// unknown or zero id, matching Dict.Term.
func (m *Mapped) Term(id ID) rdf.Term {
	var scratch [256]byte
	v := m.decode(id, scratch[:0])
	var s strings.Builder
	s.Grow(len(v.Value) + len(v.Datatype) + len(v.Lang))
	s.WriteString(v.Value)
	s.WriteString(v.Datatype)
	s.WriteString(v.Lang)
	all, a, b := s.String(), len(v.Value), len(v.Value)+len(v.Datatype)
	return rdf.Term{Kind: v.Kind, Value: all[:a], Datatype: all[a:b], Lang: all[b:]}
}

// holds reports whether id names t, decoding nothing but id's block.
func (m *Mapped) holds(id ID, t rdf.Term) bool {
	var scratch [256]byte
	return m.decode(id, scratch[:0]) == t
}

// decode returns a view of the term under id, its value built in buf: it
// lives as long as buf and the pages do.
func (m *Mapped) decode(id ID, buf []byte) rdf.Term {
	if id == None || int(id) > m.n {
		panic(fmt.Sprintf("dict: unknown id %d (mapped dictionary holds %d terms)", id, m.n))
	}
	c := m.cursorAt(int(id - 1))
	for c.i < int(id) && c.err == nil {
		buf = c.next(buf)
	}
	if c.err != nil { // pages WithBase did not check: a store bug
		panic(c.err)
	}
	return c.term(buf)
}

// blockStart returns block b's offset into the pages.
func (m *Mapped) blockStart(b int) int { return int(binary.LittleEndian.Uint64(m.dir[b*8:])) }

// cursor walks a mapped dictionary's terms in ID order. Front coding
// rebuilds a value from its predecessor's, so a walk starts at a block
// head, and next builds each value over the last in a buffer the caller
// passes through it — not one the cursor holds, so that a caller's stack
// buffer stays on the stack.
type cursor struct {
	m        *Mapped
	i        int          // 0-based index of the next term; the last one decoded is ID i
	pos      int          // the next term's offset into the pages
	kind     rdf.TermKind // the last term's kind
	dt, lang string       // and its literal fields, as views of the pages
	err      error        // set on a malformed term; what is decoded after it is garbage
}

// cursorAt returns a cursor at the head of the block holding 0-based
// index i.
func (m *Mapped) cursorAt(i int) cursor {
	b := i / BlockTerms
	c := cursor{m: m, i: b * BlockTerms}
	if c.i < m.n {
		c.pos = m.blockStart(b)
	}
	return c
}

// next decodes the next term, building its value in buf, which holds the
// previous term's (nothing, at a block head), and returns the value.
// Malformed pages — a term cut by their end, an unknown kind, a prefix
// longer than the previous value — set c.err, which the caller checks.
func (c *cursor) next(buf []byte) []byte {
	p := c.m.pages
	if c.pos >= len(p) || p[c.pos] == byte(rdf.Invalid) || p[c.pos] > byte(rdf.Literal) {
		c.err = fmt.Errorf("dict: term %d has no kind byte at offset %d of the pages", c.i+1, c.pos)
		return buf
	}
	c.kind = rdf.TermKind(p[c.pos])
	c.pos++
	lcp := 0
	if c.i%BlockTerms != 0 {
		if lcp = c.uvarint(); lcp > len(buf) {
			c.err = fmt.Errorf("dict: term %d shares %d bytes with a %d-byte predecessor", c.i+1, lcp, len(buf))
			return buf
		}
	}
	buf = append(buf[:lcp], c.run()...)
	c.dt, c.lang = "", ""
	if c.kind == rdf.Literal {
		c.dt = c.field()
		c.lang = c.field()
	}
	c.i++
	return buf
}

// term returns the last term decoded, whose value next returned, as a
// view: its strings alias value and the pages.
func (c *cursor) term(value []byte) rdf.Term {
	return rdf.Term{Kind: c.kind, Value: unsafe.String(unsafe.SliceData(value), len(value)), Datatype: c.dt, Lang: c.lang}
}

// uvarint reads one uvarint at c.pos; a cut one, or one past any length
// the pages hold, reads as 0 and sets c.err.
func (c *cursor) uvarint() int {
	v, w := binary.Uvarint(c.m.pages[c.pos:])
	if w <= 0 || v > uint64(len(c.m.pages)) {
		c.err = fmt.Errorf("dict: term %d has a bad varint at offset %d of the pages", c.i+1, c.pos)
		return 0
	}
	c.pos += w
	return int(v)
}

// run reads a uvarint length and the bytes it counts, as a view of the
// pages; a run the pages cut reads as empty and sets c.err.
func (c *cursor) run() []byte {
	n := c.uvarint()
	if n > len(c.m.pages)-c.pos {
		c.err = fmt.Errorf("dict: term %d runs past the pages' end", c.i+1)
		return nil
	}
	r := c.m.pages[c.pos : c.pos+n]
	c.pos += n
	return r
}

// field reads one length-prefixed literal field at c.pos, as a view of
// the pages.
func (c *cursor) field() string {
	f := c.run()
	return unsafe.String(unsafe.SliceData(f), len(f))
}
