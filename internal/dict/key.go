package dict

import (
	"cmp"
	"encoding/binary"
	"strings"

	"rdfsum/internal/rdf"
)

// The package's one term-keying scheme: a term is held as a single key
// string, and every index (Dict, overlay) is a termIndex over such keys.
//
// An IRI or a blank node with nothing but a value — every one a parser or
// a constructor produces — is keyed by that value, IRIs and blanks in
// separate maps, so a probe builds nothing and a label cannot collide
// across kinds. Every other term (literals; also the zero Term and any
// hand-built oddity such as an IRI carrying a datatype, which stay
// internable) is keyed by its frame:
//
//	u8 kind, uvarint len(value), value, uvarint len(datatype), datatype, lang
//
// Lengths prefix the fields rather than a separator joining them: U+0000
// is a legal literal character.

// rec is what the dictionary keeps per interned term: the key (the one
// copy of the term's bytes) and how to read it. Term rebuilds the
// rdf.Term as substrings of key, so decoding allocates nothing.
type rec struct {
	key    string
	kind   rdf.TermKind // of a plain key; a frame carries its own
	framed bool
}

// recBytes is the size of a rec (16-byte string header + 2, padded).
const recBytes = 24

// slotBytes estimates what one entry costs in a Go map[string]uint32:
// 24-byte slots and a control byte each, in tables that grow by doubling
// and so sit near 2/3 full on average.
const slotBytes = 38

// frameBuf is the stack buffer a frame is probed through: a literal
// whose frame fits is looked up without allocating.
type frameBuf [192]byte

// plain reports whether t is keyed by its bare value.
func plain(t rdf.Term) bool {
	return (t.Kind == rdf.IRI || t.Kind == rdf.Blank) && t.Datatype == "" && t.Lang == ""
}

// appendFrame appends t's frame to b.
func appendFrame(b []byte, t rdf.Term) []byte {
	b = append(b, byte(t.Kind))
	b = binary.AppendUvarint(b, uint64(len(t.Value)))
	b = append(b, t.Value...)
	b = binary.AppendUvarint(b, uint64(len(t.Datatype)))
	b = append(b, t.Datatype...)
	return append(b, t.Lang...)
}

// uvarint is binary.Uvarint over a string. Frames are written by
// appendFrame only, so a malformed one cannot occur.
func uvarint(s string) (v uint64, n int) {
	for shift := uint(0); ; shift += 7 {
		c := s[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
}

// recOf returns t's record. A frame is a fresh string; a plain key is
// t.Value itself.
func recOf(t rdf.Term) rec {
	if plain(t) {
		return rec{key: t.Value, kind: t.Kind}
	}
	var buf frameBuf
	return rec{key: string(appendFrame(buf[:0], t)), framed: true}
}

// termKind and value read the two fields every comparison starts with
// without rebuilding the term.
func (r rec) termKind() rdf.TermKind {
	if r.framed {
		return rdf.TermKind(r.key[0])
	}
	return r.kind
}

func (r rec) value() string {
	if !r.framed {
		return r.key
	}
	n, w := uvarint(r.key[1:])
	return r.key[1+w : 1+w+int(n)]
}

// compare orders interned terms as rdf.Term.Compare orders them. Kind and
// value decide all but literals that differ in datatype or language only.
func (r rec) compare(o rec) int {
	if c := cmp.Compare(r.termKind(), o.termKind()); c != 0 {
		return c
	}
	if c := strings.Compare(r.value(), o.value()); c != 0 || !(r.framed || o.framed) {
		return c
	}
	return r.term().Compare(o.term())
}

// term rebuilds the interned term; its strings alias r.key.
func (r rec) term() rdf.Term {
	if !r.framed {
		return rdf.Term{Kind: r.kind, Value: r.key}
	}
	t := rdf.Term{Kind: rdf.TermKind(r.key[0])}
	rest := r.key[1:]
	n, w := uvarint(rest)
	t.Value, rest = rest[w:w+int(n)], rest[w+int(n):]
	n, w = uvarint(rest)
	t.Datatype, t.Lang = rest[w:w+int(n)], rest[w+int(n):]
	return t
}

// termIndex maps terms to uint32 values (their IDs) through their keys.
type termIndex struct {
	iris, blanks, framed map[string]uint32
	keyBytes             int // total len of the keys held
}

func newTermIndex() termIndex {
	return termIndex{
		iris:   make(map[string]uint32),
		blanks: make(map[string]uint32),
		framed: make(map[string]uint32),
	}
}

// get returns the value t was put under.
func (x *termIndex) get(t rdf.Term) (uint32, bool) {
	if plain(t) {
		m := x.iris
		if t.Kind == rdf.Blank {
			m = x.blanks
		}
		v, ok := m[t.Value]
		return v, ok
	}
	var buf frameBuf
	v, ok := x.framed[string(appendFrame(buf[:0], t))]
	return v, ok
}

// put records t (absent so far) under v and returns its rec, over a copy
// of t's bytes: t may be a substring of a parse buffer, which a stored
// reference would pin for the dictionary's lifetime.
func (x *termIndex) put(t rdf.Term, v uint32) rec {
	r := recOf(t)
	if !r.framed {
		r.key = strings.Clone(r.key)
	}
	switch {
	case r.framed:
		x.framed[r.key] = v
	case r.kind == rdf.Blank:
		x.blanks[r.key] = v
	default:
		x.iris[r.key] = v
	}
	x.keyBytes += len(r.key)
	return r
}

// memoryBytes is what the index and n recs beside it hold on the heap,
// computed from their own lengths: key bytes + records + map slots.
func (x *termIndex) memoryBytes(recs []rec) int64 {
	entries := len(x.iris) + len(x.blanks) + len(x.framed)
	return int64(x.keyBytes) + int64(cap(recs))*recBytes + int64(entries)*slotBytes
}
