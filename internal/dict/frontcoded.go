package dict

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"rdfsum/internal/rdf"
)

// Front-coded read-only dictionary pages, the on-disk form of a Dict in
// snapshot format v2. Terms are stored in ID order — IDs are dense and
// assigned in insertion order, and summaries are bit-identical only if
// every term keeps its ID — in blocks of BlockTerms, each term
// prefix-compressed against its predecessor's Value. A sparse directory
// (one offset per block) gives O(1) block location for Term, and a
// term-sorted ID permutation lets the next compaction merge the terms
// interned since into the order instead of sorting every term again.
//
//	pages  := blocks, back to back
//	block  := BlockTerms terms (the last block fewer):
//	  term 0:   u8 kind, uvarint len(value), value
//	  term i>0: u8 kind, uvarint lcp(value, prev value), uvarint len(suffix), suffix
//	  literals append: uvarint len(datatype), datatype, uvarint len(lang), lang
//	dir    := one u64 per block: block start offset into pages
//	sorted := one u32 per term: IDs ordered by rdf.Term.Compare
const BlockTerms = 16

// WriteFrontCoded streams the pages section of d's terms, in ID order,
// to pages, and returns how many terms that was with the other two
// dictionary sections, the only per-term state the encoding keeps:
// 8 bytes of directory per BlockTerms terms and 4 bytes of permutation
// per term (4 more per term outside a mapped base, while those are
// sorted). d must not be an overlay (its IDs are not dense).
//
// Over a mapped base, the base's complete blocks are copied byte for byte
// — a block's encoding depends on its own terms only — and the
// permutation is the base's merged with the newly interned terms', so no
// base term is decoded beyond the base's last, partial block and the
// terms the merge compares.
//
// In shared mode d is locked only to take a view of its term table — a
// dictionary never rewrites a record, so the view stays valid while the
// writer interns on — and the terms written are those present then.
func (d *Dict) WriteFrontCoded(pages io.Writer) (n int, dir, sorted []byte, err error) {
	if d.under != nil {
		panic("dict: WriteFrontCoded of an overlay")
	}
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
		m.touch()
		if m.TouchSorted != nil {
			m.TouchSorted()
		}
		full := bl / BlockTerms
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
		var value []byte
		for c := m.cursorAt(next); c.i < bl; {
			value = c.next(value)
			if err := write(c.term(value)); err != nil {
				return 0, nil, nil, err
			}
		}
	}
	for _, r := range recs {
		if err := write(r.term()); err != nil {
			return 0, nil, nil, err
		}
	}

	// recs' IDs, sorted; then merged into the base's own order.
	perm := make([]ID, len(recs))
	for i := range perm {
		perm[i] = ID(bl + i + 1)
	}
	termOf := func(id ID) rec { return recs[int(id)-bl-1] }
	slices.SortFunc(perm, func(a, b ID) int { return termOf(a).compare(termOf(b)) })
	sorted = make([]byte, 0, n*4)
	lo := 0 // the base's terms at sorted positions below lo are written
	for _, id := range perm {
		if bl > 0 {
			hi := lo + d.base.sortedRank(lo, termOf(id).term())
			sorted = append(sorted, d.base.sorted[lo*4:hi*4]...)
			lo = hi
		}
		sorted = binary.LittleEndian.AppendUint32(sorted, uint32(id))
	}
	if bl > 0 {
		sorted = append(sorted, d.base.sorted[lo*4:]...)
	}
	return n, dir, sorted, nil
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
// it (WithBase).
type Mapped struct {
	pages  []byte
	dir    []byte
	sorted []byte
	n      int

	// Touch, when set, runs before any access that reads the pages or the
	// directory, and TouchSorted before one that reads the sorted
	// permutation (only WriteFrontCoded's merge does); the store layer
	// hooks lazy per-section CRC verification here without this package
	// knowing about snapshot containers.
	Touch, TouchSorted func()
	// Owner is kept reachable for as long as m is: the store layer hangs
	// the mapping the sections live in here, so that they stay mapped
	// while the dictionary can read them.
	Owner any
}

// NewMapped wraps the three dictionary sections holding n terms. It
// validates section framing (not content — that is the CRC's job).
func NewMapped(pages, dir, sorted []byte, n int) (*Mapped, error) {
	nBlocks := (n + BlockTerms - 1) / BlockTerms
	if len(dir) != nBlocks*8 {
		return nil, fmt.Errorf("dict: directory holds %d bytes, want %d for %d terms", len(dir), nBlocks*8, n)
	}
	if len(sorted) != n*4 {
		return nil, fmt.Errorf("dict: sorted permutation holds %d bytes, want %d for %d terms", len(sorted), n*4, n)
	}
	return &Mapped{pages: pages, dir: dir, sorted: sorted, n: n}, nil
}

// Len reports the number of terms.
func (m *Mapped) Len() int { return m.n }

func (m *Mapped) touch() {
	if m.Touch != nil {
		m.Touch()
	}
}

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
	m.touch()
	c := m.cursorAt(int(id - 1))
	for c.i < int(id) {
		buf = c.next(buf)
	}
	return c.term(buf)
}

// sortedRank returns how many of the base's terms from sorted position
// lo on sort before t, which the base does not hold. Each probe decodes a
// block, and consecutive new terms usually land close together, so it
// gallops — probes lo, lo+1, lo+3, lo+7, … — before it bisects: O(log
// gap) probes, not O(log n). The caller has run Touch and TouchSorted.
func (m *Mapped) sortedRank(lo int, t rdf.Term) int {
	var scratch [256]byte
	beyond := func(k int) bool { // the term at sorted position lo+k sorts after t
		id := ID(binary.LittleEndian.Uint32(m.sorted[(lo+k)*4:]))
		return after(m.decode(id, scratch[:0]), t)
	}
	n, bound := m.n-lo, 1
	for bound <= n && !beyond(bound-1) {
		bound *= 2
	}
	// The rank is in [bound/2, min(bound-1, n)].
	from, to := bound/2, min(bound-1, n)
	return from + sort.Search(to-from, func(k int) bool { return beyond(from + k) })
}

// after reports whether u sorts after t in rdf.Term.Compare's order. It
// compares with operators, which — unlike Compare — let u be a view of a
// stack buffer.
func after(u, t rdf.Term) bool {
	switch {
	case u.Kind != t.Kind:
		return u.Kind > t.Kind
	case u.Value != t.Value:
		return u.Value > t.Value
	case u.Datatype != t.Datatype:
		return u.Datatype > t.Datatype
	}
	return u.Lang > t.Lang
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
}

// cursorAt returns a cursor at the head of the block holding 0-based
// index i. The caller has run Touch.
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
// Malformed pages panic — the bytes are CRC-verified before first decode,
// so this indicates memory corruption or a store-layer bug, not a bad
// file.
func (c *cursor) next(buf []byte) []byte {
	p := c.m.pages
	c.kind = rdf.TermKind(p[c.pos])
	c.pos++
	lcp := 0
	if c.i%BlockTerms != 0 {
		lcp = c.uvarint()
		if lcp > len(buf) {
			panic(fmt.Sprintf("dict: term %d shares %d bytes with a %d-byte predecessor", c.i+1, lcp, len(buf)))
		}
	}
	n := c.uvarint()
	buf = append(buf[:lcp], p[c.pos:c.pos+n]...)
	c.pos += n
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

// uvarint reads one uvarint at c.pos.
func (c *cursor) uvarint() int {
	v, w := binary.Uvarint(c.m.pages[c.pos:])
	if w <= 0 {
		panic(fmt.Sprintf("dict: cut varint at offset %d of the mapped pages", c.pos))
	}
	c.pos += w
	return int(v)
}

// field reads one length-prefixed literal field at c.pos, as a view of
// the pages.
func (c *cursor) field() string {
	n := c.uvarint()
	f := c.m.pages[c.pos : c.pos+n]
	c.pos += n
	return unsafe.String(unsafe.SliceData(f), n)
}
