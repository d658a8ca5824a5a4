package dict

import (
	"encoding/binary"
	"fmt"
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

// EncodeFrontCoded serializes terms (terms[i] carries ID i+1, as in
// Dict) into the three v2 dictionary sections.
func EncodeFrontCoded(terms []rdf.Term) (pages, dir, sorted []byte) {
	nBlocks := (len(terms) + BlockTerms - 1) / BlockTerms
	dir = make([]byte, nBlocks*8)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		pages = append(pages, tmp[:n]...)
	}
	for b := 0; b < nBlocks; b++ {
		binary.LittleEndian.PutUint64(dir[b*8:], uint64(len(pages)))
		lo := b * BlockTerms
		hi := lo + BlockTerms
		if hi > len(terms) {
			hi = len(terms)
		}
		prev := ""
		for i := lo; i < hi; i++ {
			t := terms[i]
			pages = append(pages, byte(t.Kind))
			if i == lo {
				putUvarint(uint64(len(t.Value)))
				pages = append(pages, t.Value...)
			} else {
				lcp := commonPrefix(prev, t.Value)
				putUvarint(uint64(lcp))
				putUvarint(uint64(len(t.Value) - lcp))
				pages = append(pages, t.Value[lcp:]...)
			}
			if t.Kind == rdf.Literal {
				putUvarint(uint64(len(t.Datatype)))
				pages = append(pages, t.Datatype...)
				putUvarint(uint64(len(t.Lang)))
				pages = append(pages, t.Lang...)
			}
			prev = t.Value
		}
	}
	perm := make([]ID, len(terms))
	for i := range perm {
		perm[i] = ID(i + 1)
	}
	slices.SortFunc(perm, func(a, b ID) int { return terms[a-1].Compare(terms[b-1]) })
	sorted = make([]byte, len(perm)*4)
	for i, id := range perm {
		binary.LittleEndian.PutUint32(sorted[i*4:], uint32(id))
	}
	return pages, dir, sorted
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
