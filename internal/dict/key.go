package dict

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"strings"

	"rdfsum/internal/rdf"
)

// The package's one term-keying scheme: a term is held as a single key
// string, and every dictionary layer (Dict, overlay) finds its terms
// through a termIndex of their keys' hashes.
//
// An IRI or a blank node with nothing but a value — every one a parser or
// a constructor produces — is keyed by that value, so a probe builds
// nothing. Every other term (literals; also the zero Term and any
// hand-built oddity such as an IRI carrying a datatype, which stay
// internable) is keyed by its frame:
//
//	u8 kind, uvarint len(value), value, uvarint len(datatype), datatype, lang
//
// Lengths prefix the fields rather than a separator joining them: U+0000
// is a legal literal character. An IRI and a blank node of the same value
// share a key hash; the index tells them apart when it verifies the term.

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

// frameBuf is the stack buffer a frame is hashed through: a literal
// whose frame fits is probed without allocating.
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

// newRec returns t's record over a copy of t's bytes: t may be a
// substring of a parse buffer, which a stored reference would pin for the
// dictionary's lifetime.
func newRec(t rdf.Term) rec {
	if plain(t) {
		return rec{key: strings.Clone(t.Value), kind: t.Kind}
	}
	var buf frameBuf
	return rec{key: string(appendFrame(buf[:0], t)), framed: true}
}

// hashSeed keys every term hash in the process, so that a hash computed
// for one dictionary layer probes the layers under it too.
var hashSeed = maphash.MakeSeed()

// termHash hashes t's key: its value, or its frame built on the stack.
func termHash(t rdf.Term) uint64 {
	if plain(t) {
		return maphash.String(hashSeed, t.Value)
	}
	var buf frameBuf
	return maphash.Bytes(hashSeed, appendFrame(buf[:0], t))
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

// termIndex is an open-addressed hash table of IDs with linear probing.
// A slot is 8 bytes: the ID in the low half (0 marks an empty slot — no
// layer issues ID 0) and the low 32 bits of its term's key hash, the tag,
// in the high half. The tag is also what places the slot, so the table
// grows without hashing a term again, and a probe compares a term only
// with the IDs whose tag equals its own. The terms live with the caller
// (records, a mapped base), which verifies them; see Dict.find.
type termIndex struct {
	slots []uint64
	n     int // occupied slots
}

// bytes is the table's heap. It is at most 3/4 full and doubles, so an
// entry costs 10.7–21.3 bytes.
func (x *termIndex) bytes() int64 { return int64(len(x.slots)) * 8 }

// reserve makes room for n entries without growing again.
func (x *termIndex) reserve(n int) {
	size := 8
	for size*3 < n*4 {
		size *= 2
	}
	if size <= len(x.slots) {
		return
	}
	old := x.slots
	x.slots = make([]uint64, size)
	for _, s := range old {
		if s != 0 {
			x.place(s)
		}
	}
}

// place stores slot s in the first free slot from its tag's home on.
func (x *termIndex) place(s uint64) {
	mask := uint32(len(x.slots) - 1)
	for i := uint32(s>>32) & mask; ; i = (i + 1) & mask {
		if x.slots[i] == 0 {
			x.slots[i] = s
			return
		}
	}
}

// insert records id, absent so far, under its term's key hash h.
func (x *termIndex) insert(h uint64, id ID) {
	if (x.n+1)*4 > len(x.slots)*3 {
		x.reserve(x.n + 1)
	}
	x.place(uint64(uint32(h))<<32 | uint64(id))
	x.n++
}
