package dict

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"

	"rdfsum/internal/rdf"
)

// Front-coded read-only dictionary pages, the on-disk form of a Dict in
// snapshot format v2. Terms are stored in ID order — IDs are dense and
// assigned in insertion order, and summaries are bit-identical only if
// every term keeps its ID — in blocks of BlockTerms, each term
// prefix-compressed against its predecessor's Value. A sparse directory
// (one offset per block) gives O(1) block location for Term, and a
// term-sorted ID permutation gives O(log n) Lookup without an index map.
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
// per term (twice, while it is serialized) — and, over a mapped base, the
// base's decoded terms. d must not be an overlay (its IDs are not dense).
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
	if bl := d.baseLen(); bl > 0 {
		// A mapped base decodes a term by walking its block: decode its
		// terms once, here, not at every comparison of the sort below.
		all := make([]rec, bl, bl+len(recs))
		for i := range all {
			all[i] = recOf(d.base.Term(ID(i + 1)))
		}
		recs = append(all, recs...)
	}
	n = len(recs) // recs[i] is the term with ID i+1

	dir = make([]byte, 0, (n+BlockTerms-1)/BlockTerms*8)
	var off uint64
	var buf []byte // one term's encoding, reused
	prev := ""
	for i, r := range recs {
		t := r.term()
		buf = append(buf[:0], byte(t.Kind))
		if i%BlockTerms == 0 {
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
			return 0, nil, nil, err
		}
		off += uint64(len(buf))
		prev = t.Value
	}

	perm := make([]ID, n)
	for i := range perm {
		perm[i] = ID(i + 1)
	}
	slices.SortFunc(perm, func(a, b ID) int { return recs[a-1].compare(recs[b-1]) })
	sorted = make([]byte, 0, n*4)
	for _, id := range perm {
		sorted = binary.LittleEndian.AppendUint32(sorted, uint32(id))
	}
	return n, dir, sorted, nil
}

func commonPrefix(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Mapped is a read-only dictionary served directly from the byte
// sections of a v2 snapshot (typically mmap'd). Safe for concurrent use.
type Mapped struct {
	pages  []byte
	dir    []byte
	sorted []byte
	n      int

	// Touch, when set, runs before any access that reads the section
	// bytes; the store layer hooks lazy per-section CRC verification
	// here without this package knowing about snapshot containers.
	Touch func()
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

// Term decodes the term interned under id. It panics on an unknown or
// zero id, matching Dict.Term.
func (m *Mapped) Term(id ID) rdf.Term {
	if id == None || int(id) > m.n {
		panic(fmt.Sprintf("dict: unknown id %d (mapped dictionary holds %d terms)", id, m.n))
	}
	m.touch()
	b := int(id-1) / BlockTerms
	t, _ := m.decodeUpTo(b, int(id-1)%BlockTerms)
	return t
}

// decodeUpTo decodes block b until in-block index want, returning that
// term and the number of terms decoded. Malformed pages panic — the
// bytes are CRC-verified before first decode, so this indicates memory
// corruption or a store-layer bug, not a bad file.
func (m *Mapped) decodeUpTo(b, want int) (rdf.Term, int) {
	pos := int(binary.LittleEndian.Uint64(m.dir[b*8:]))
	hi := b*BlockTerms + BlockTerms
	if hi > m.n {
		hi = m.n
	}
	count := hi - b*BlockTerms
	readUvarint := func() int {
		v, w := binary.Uvarint(m.pages[pos:])
		if w <= 0 {
			panic(fmt.Sprintf("dict: cut varint in block %d at offset %d", b, pos))
		}
		pos += w
		return int(v)
	}
	var t rdf.Term
	value := ""
	for i := 0; i < count; i++ {
		kind := rdf.TermKind(m.pages[pos])
		pos++
		if i == 0 {
			n := readUvarint()
			value = string(m.pages[pos : pos+n])
			pos += n
		} else {
			lcp := readUvarint()
			n := readUvarint()
			value = value[:lcp] + string(m.pages[pos:pos+n])
			pos += n
		}
		t = rdf.Term{Kind: kind, Value: value}
		if kind == rdf.Literal {
			n := readUvarint()
			t.Datatype = string(m.pages[pos : pos+n])
			pos += n
			n = readUvarint()
			t.Lang = string(m.pages[pos : pos+n])
			pos += n
		}
		if i == want {
			return t, i + 1
		}
	}
	return t, count
}

// sortedID returns the id at sorted-order position j.
func (m *Mapped) sortedID(j int) ID {
	return ID(binary.LittleEndian.Uint32(m.sorted[j*4:]))
}

// Lookup returns the ID of t without interning it, by binary search over
// the term-sorted permutation. Each probe decodes one dictionary block.
func (m *Mapped) Lookup(t rdf.Term) (ID, bool) {
	m.touch()
	j := sort.Search(m.n, func(i int) bool {
		id := m.sortedID(i)
		b := int(id-1) / BlockTerms
		u, _ := m.decodeUpTo(b, int(id-1)%BlockTerms)
		return u.Compare(t) >= 0
	})
	if j == m.n {
		return None, false
	}
	id := m.sortedID(j)
	b := int(id-1) / BlockTerms
	if u, _ := m.decodeUpTo(b, int(id-1)%BlockTerms); u.Compare(t) == 0 {
		return id, true
	}
	return None, false
}
