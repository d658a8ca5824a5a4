package dict

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"unsafe"
)

// A static symbol table in the manner of FSST (Boncz, Neumann & Leis,
// "FSST: Fast Random Access String Compression", PVLDB 13(11), 2020): up
// to 255 symbols of 1–8 bytes, each coded as one byte, and code 255 an
// escape that the next byte follows raw. A term whose front-coded suffix
// codes shorter is stored as codes (the packed flag, frontcoded.go).
// Decoding a suffix needs the table and nothing else, so every term stays
// randomly accessible. The table is the dict-symbols section:
//
//	symbols := u8 count (0..255), count × u8 len (1..8), the symbols' bytes back to back
const (
	escape       = 255 // the code whose next byte is a raw byte
	maxSymbols   = 255
	maxSymbolLen = 8
)

// symtab is a parsed symbol table: code c (< n) stands for lens[c] bytes,
// the low bytes of sym[c]. lens[c] is 0 for every code past the table.
//
// The encoder finds the longest symbol at a position with one probe of
// each length class, as FSST's does: one[b] is the code of the one-byte
// symbol b, pair[h] and long[h] that of the two-byte symbol and of the
// longer symbol whose first two, and first three, bytes hash to h;
// escape where there is none. A symbol is indexed only where its slot is
// free: a trained table holds no symbol another's slot hides, and of a
// parsed one, the encoder uses the first in code order.
type symtab struct {
	n    int
	sym  [256]uint64
	lens [256]uint8
	one  [256]uint8
	pair [hashSlots]uint8
	long [hashSlots]uint8
}

// hashSlots is the size of the encoder's two hash indexes.
const hashSlots = 2048

// slot returns the index slot of a symbol or text beginning with the
// low l bytes of w (2, or 3 for every longer symbol).
func slot(w uint64, l int) int {
	return int(uint32(w&mask(l))*0x9e3779b1>>21) & (hashSlots - 1)
}

// mask keeps the low l (0..8) bytes of a word.
func mask(l int) uint64 { return ^uint64(0) >> (64 - 8*uint(l)) }

// mask(l) keeps the low l bytes of a word.

// reset empties t.
func (t *symtab) reset() {
	t.n = 0
	t.lens = [256]uint8{}
	for i := range t.one {
		t.one[i] = escape
	}
	for i := range t.pair {
		t.pair[i], t.long[i] = escape, escape
	}
}

// newSymtab returns an empty table.
func newSymtab() *symtab {
	t := new(symtab)
	t.reset()
	return t
}

// add makes the symbol of l bytes in w the next code, and indexes it. A
// symbol whose index slot is taken is added only when always is set, and
// then not indexed; add reports whether it was added.
func (t *symtab) add(w uint64, l int, always bool) bool {
	at := &t.long[slot(w, 3)]
	switch l {
	case 1:
		at = &t.one[byte(w)]
	case 2:
		at = &t.pair[slot(w, 2)]
	}
	if *at != escape && !always {
		return false
	}
	c := uint8(t.n)
	if *at == escape {
		*at = c
	}
	t.sym[c], t.lens[c] = w&mask(l), uint8(l)
	t.n++
	return true
}

// parseSymbols parses a dict-symbols section.
func parseSymbols(raw []byte) (*symtab, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("dict: the symbol table is empty, want at least its count byte")
	}
	n := int(raw[0])
	if len(raw) < 1+n {
		return nil, fmt.Errorf("dict: the symbol table holds %d bytes, too few for the lengths of its %d symbols", len(raw), n)
	}
	lens := raw[1 : 1+n]
	t := newSymtab()
	at := 1 + n
	for c, l := range lens {
		if l == 0 || l > maxSymbolLen {
			return nil, fmt.Errorf("dict: symbol %d has length %d, want 1 to %d", c, l, maxSymbolLen)
		}
		if int(l) > len(raw)-at {
			return nil, fmt.Errorf("dict: symbol %d runs past the symbol table's end", c)
		}
		var w [8]byte
		copy(w[:], raw[at:at+int(l)])
		t.add(binary.LittleEndian.Uint64(w[:]), int(l), true)
		at += int(l)
	}
	if at != len(raw) {
		return nil, fmt.Errorf("dict: %d bytes after the symbol table's last symbol", len(raw)-at)
	}
	return t, nil
}

// appendTo appends t as a dict-symbols section to b.
func (t *symtab) appendTo(b []byte) []byte {
	b = append(b, byte(t.n))
	b = append(b, t.lens[:t.n]...)
	for c := range t.n {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], t.sym[c])
		b = append(b, w[:t.lens[c]]...)
	}
	return b
}

// word returns the (up to) eight bytes of s at i as a little-endian word,
// zero past s's end.
func word(s string, i int) uint64 {
	if len(s)-i >= 8 {
		return binary.LittleEndian.Uint64(unsafe.Slice(unsafe.StringData(s[i:]), 8))
	}
	var w [8]byte
	copy(w[:], s[i:])
	return binary.LittleEndian.Uint64(w[:])
}

// match returns the code of the longest symbol the index finds that the
// rest bytes in w — all eight, if rest is larger — begin with, and how
// many bytes it stands for; escape and 1 when it finds none.
func (t *symtab) match(w uint64, rest int) (uint8, int) {
	q := t.long[slot(w, 3)]
	if l := int(t.lens[q]); l != 0 && l <= rest && (w^t.sym[q])&mask(l) == 0 {
		return q, l
	}
	if p := t.pair[slot(w, 2)]; t.lens[p] == 2 && rest >= 2 && uint16(t.sym[p]) == uint16(w) {
		return p, 2
	}
	return t.one[byte(w)], 1
}

// encode appends the codes of s to dst, longest match first, and reports
// true if they are shorter than s. It gives up once they are not, and
// then returns dst as it was and false.
func (t *symtab) encode(dst []byte, s string) ([]byte, bool) {
	start, limit := len(dst), len(s)
	dst = slices.Grow(dst, limit+2)
	out := dst[start : start+limit+2] // a code or an escape past the limit fits
	n := 0
	for i := 0; i < len(s) && n < limit; {
		w := word(s, i)
		c, l := t.match(w, len(s)-i)
		out[n] = c
		if n++; c == escape {
			out[n] = byte(w)
			n++
		}
		i += l
	}
	if n >= limit {
		return dst, false
	}
	return dst[:start+n], true
}

// decodedLen checks codes and returns how many bytes they decode to: a
// code past the table, or an escape with no byte after it, is an error.
func (t *symtab) decodedLen(codes []byte) (int, error) {
	n := 0
	for i := 0; i < len(codes); i++ {
		c := codes[i]
		if c == escape {
			if i++; i == len(codes) {
				return 0, fmt.Errorf("an escape is its last code byte")
			}
			n++
			continue
		}
		if t.lens[c] == 0 {
			return 0, fmt.Errorf("code %d is past the table's %d symbols", c, t.n)
		}
		n += int(t.lens[c])
	}
	return n, nil
}

// appendDecoded appends what codes, which decodedLen accepts, decode to.
// A symbol is stored as one word: dst is grown by eight bytes a code
// first, and cut back to the bytes decoded.
func (t *symtab) appendDecoded(dst, codes []byte) []byte {
	n := len(dst)
	buf := slices.Grow(dst, 8*len(codes))
	buf = buf[:cap(buf)]
	for i := 0; i < len(codes); i++ {
		c := codes[i]
		if c == escape {
			i++
			buf[n] = codes[i]
			n++
			continue
		}
		binary.LittleEndian.PutUint64(buf[n:], t.sym[c])
		n += int(t.lens[c])
	}
	return buf[:n]
}

// fill sets out to the first len(out) bytes that codes, which decodedLen
// accepts and which decode to at least that many, decode to: a symbol as
// one word while a whole word fits, and the last few bytes through a
// scratch word pair.
func (t *symtab) fill(out, codes []byte) {
	i, o := 0, 0
	for ; o+8 <= len(out); i++ {
		if c := codes[i]; c != escape {
			binary.LittleEndian.PutUint64(out[o:], t.sym[c])
			o += int(t.lens[c])
		} else {
			i++
			out[o] = codes[i]
			o++
		}
	}
	var tail [16]byte
	for k := 0; o+k < len(out); i++ {
		if c := codes[i]; c != escape {
			binary.LittleEndian.PutUint64(tail[k:], t.sym[c])
			k += int(t.lens[c])
		} else {
			i++
			tail[k] = codes[i]
			k++
		}
	}
	copy(out[o:], tail[:])
}

// hasPrefix reports whether what codes decode to, at least len(v) bytes,
// begins with v.
func (t *symtab) hasPrefix(codes []byte, v string) bool {
	for i, o := 0, 0; o < len(v); i++ {
		c := codes[i]
		if c == escape {
			i++
			if codes[i] != v[o] {
				return false
			}
			o++
			continue
		}
		l := min(int(t.lens[c]), len(v)-o)
		if (word(v, o)^t.sym[c])&mask(l) != 0 {
			return false
		}
		o += l
	}
	return true
}

// Training, after FSST's few-generation greedy algorithm: each
// generation codes the sample with the table so far, counting each
// symbol it uses and each concatenation of two symbols it uses in a row
// (cut to eight bytes), and the next table holds the 255 candidates with
// the highest gain — count × length, × 8 for a single byte, which cuts
// the escapes. Candidates are ordered by gain, then by their bytes, so a
// table is a function of its sample alone.
const (
	generations = 5
	// candSlots bounds the distinct candidates one generation counts; a
	// candidate first seen with the table 7/8 full is not counted.
	candSlots = 1 << candBits
	candBits  = 11
	// minCount is the fewest uses a candidate needs to enter a table.
	minCount = 2
)

// trainer is one generation's candidate counts: an open-addressed table
// keyed by the candidate's bytes and length.
type trainer struct {
	words [candSlots]uint64
	meta  [candSlots]uint32 // length << 28 | count; 0 for an empty slot
	used  int
}

const countMask = 1<<28 - 1

// add counts one use of the candidate of l bytes in w.
func (tr *trainer) add(w uint64, l int) {
	w &= mask(l)
	h := (w ^ uint64(l)) * 0x9e3779b97f4a7c15
	for i := int(h >> (64 - candBits)); ; i = (i + 1) & (candSlots - 1) {
		m := tr.meta[i]
		if m == 0 {
			if tr.used >= candSlots*7/8 {
				return
			}
			tr.words[i], tr.meta[i] = w, uint32(l)<<28|1
			tr.used++
			return
		}
		if tr.words[i] == w && int(m>>28) == l {
			if m&countMask != countMask {
				tr.meta[i]++
			}
			return
		}
	}
}

// gain is a candidate's worth: count × length, × 8 for a single byte.
func gain(m uint32) uint64 {
	g := uint64(m&countMask) * uint64(m>>28)
	if m>>28 == 1 {
		g *= 8
	}
	return g
}

// Len, Less and Swap sort the counted candidates, packed at the front of
// the table, by gain, then bytes.
func (tr *trainer) Len() int { return tr.used }
func (tr *trainer) Less(i, j int) bool {
	if gi, gj := gain(tr.meta[i]), gain(tr.meta[j]); gi != gj {
		return gi > gj
	}
	var a, b [8]byte
	binary.LittleEndian.PutUint64(a[:], tr.words[i])
	binary.LittleEndian.PutUint64(b[:], tr.words[j])
	return bytes.Compare(a[:tr.meta[i]>>28], b[:tr.meta[j]>>28]) < 0
}
func (tr *trainer) Swap(i, j int) {
	tr.words[i], tr.words[j] = tr.words[j], tr.words[i]
	tr.meta[i], tr.meta[j] = tr.meta[j], tr.meta[i]
}

// trainSymbols builds a table from the strings sample calls yield with,
// the same strings, in the same order, on every call.
func trainSymbols(sample func(yield func(string))) *symtab {
	t, next := newSymtab(), new(symtab)
	tr := new(trainer)
	for range generations {
		*tr = trainer{}
		sample(func(s string) {
			prevW, prevL := uint64(0), 0
			for i := 0; i < len(s); {
				w := word(s, i)
				_, l := t.match(w, len(s)-i)
				tr.add(w, l)
				if prevL > 0 && prevL < maxSymbolLen {
					tr.add(prevW|w<<(8*prevL), min(prevL+l, maxSymbolLen))
				}
				prevW, prevL = w&mask(l), l
				i += l
			}
		})
		// Pack the counted candidates at the front, drop the rare ones,
		// and take the best whose index slots are free.
		k := 0
		for i := range candSlots {
			if m := tr.meta[i]; m&countMask >= minCount {
				tr.words[k], tr.meta[k] = tr.words[i], m
				k++
			}
		}
		tr.used = k
		sort.Sort(tr)
		next.reset()
		for i := 0; i < k && next.n < maxSymbols; i++ {
			next.add(tr.words[i], int(tr.meta[i]>>28), false)
		}
		t, next = next, t
	}
	return t
}
