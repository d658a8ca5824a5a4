package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"iter"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"rdfsum/internal/dict"
)

// Column encoding: one sorted order of a run as a sequence of
// varint-delta blocks with a fixed-width skip index, designed to be
// searched and scanned in place — from an mmap'd snapshot file, and from
// the heap bytes of a large folded run (encodeCols), which use the same
// encoding and the same reader.
//
//	payload :=
//	  u32 nTriples
//	  u32 nBlocks
//	  skip entries, nBlocks × 20 bytes:
//	      u32 k1, u32 k2, u32 k3   — sort key of the block's first triple
//	      u64 off                  — block start, relative to payload[0]
//	  blocks
//
// A block covers colBlockTriples triples (the last one fewer). Its first
// triple lives in the skip entry; each following triple is a step from
// its predecessor in key space, whose first varint v is tagged by the
// first key that moved (appendStep):
//
//	v&1 == 1: Δk1 = v>>1 (> 0), then zigzag-svarint Δk2, zigzag-svarint Δk3
//	v&3 == 2: k1 unchanged, Δk2 = v>>2 (> 0), then zigzag-svarint Δk3
//	v&3 == 0: k1 and k2 unchanged, Δk3 = v>>2 (0 for a duplicate triple)
//
// so a triple whose leading keys repeat its predecessor's costs one byte
// when its last key moved by less than 32 (RDF-3X's leaves leave out the
// unchanged leading values the same way).
//
// Scans decode blocks sequentially from the skip index's offsets. Range
// lookups binary-search in-memory fences (one every fenceTriples triples,
// derived by one pass over the column at its first lookup — they are not
// on disk — or by ReadGraph's) and decode at most fenceTriples-1
// triples past one. Nothing is materialized at open time.

// colBlockTriples is the number of triples per block: large enough that
// the skip index stays sparse (20 bytes per 512 triples ≈ 0.3% overhead).
// A multiple of fenceTriples, so no fence window crosses a block.
const colBlockTriples = 512

const colSkipEntryBytes = 20

// fenceTriples is the spacing of an encoded column's in-memory fences: 16
// bytes every 8 triples, 2 B a triple. On the LUBM-52 joins a mapped base
// with 8-triple fences matched the heap index; 16 took 1.7× its time and
// 32 took 2.4×.
const fenceTriples = 8

// fence is the key of a column's triple i (i a multiple of
// fenceTriples), packed as its sortKey so that a search compares it as
// it stands, and the offset, from the start of i's block, of the varints
// of triple i+1.
type fence struct {
	hi  uint64 // sortKey.hi
	lo  uint32 // sortKey.lo
	off uint32
}

func (f fence) sortKey() sortKey { return sortKey{hi: f.hi, lo: f.lo} }

func (f fence) colKey() colKey {
	return colKey{dict.ID(f.hi >> 32), dict.ID(uint32(f.hi)), dict.ID(f.lo)}
}

// unkey reverses Order.key: rebuilds a Triple from its permuted sort key.
func (o Order) unkey(k1, k2, k3 dict.ID) Triple {
	switch o {
	case OrderPOS:
		return Triple{S: k3, P: k1, O: k2}
	default:
		return Triple{S: k1, P: k2, O: k3}
	}
}

func zigzag(x int64) uint64   { return uint64((x << 1) ^ (x >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// writeCol streams n triples, sorted in ord, as one column payload to w:
// a snapshot's column section, or the heap bytes of a folded run
// (encodeCols). The skip index precedes the blocks and holds their
// offsets, so ts is ranged over twice and nothing is buffered: the first
// pass writes each block's skip entry, its offset summed from the sizes
// of the steps before it (stepLen), the second the steps (appendStep).
// Either pass failing to find exactly n triples is an error. A w that can
// Grow (a bytes.Buffer) is grown to the skip index, then to the steps.
func writeCol(w io.Writer, ord Order, n int, ts iter.Seq[Triple]) error {
	nBlocks := (n + colBlockTriples - 1) / colBlockTriples
	grow, _ := w.(interface{ Grow(int) })
	if grow != nil {
		grow.Grow(8 + nBlocks*colSkipEntryBytes)
	}
	var e [colSkipEntryBytes]byte
	binary.LittleEndian.PutUint32(e[0:4], uint32(n))
	binary.LittleEndian.PutUint32(e[4:8], uint32(nBlocks))
	w.Write(e[:8]) //nolint:errcheck // sticky

	head := uint64(8 + nBlocks*colSkipEntryBytes)
	off, i := head, 0
	var p1, p2, p3 dict.ID
	for t := range ts {
		c1, c2, c3 := ord.key(t)
		if i%colBlockTriples == 0 {
			binary.LittleEndian.PutUint32(e[0:4], uint32(c1))
			binary.LittleEndian.PutUint32(e[4:8], uint32(c2))
			binary.LittleEndian.PutUint32(e[8:12], uint32(c3))
			binary.LittleEndian.PutUint64(e[12:20], off)
			w.Write(e[:]) //nolint:errcheck // sticky
		} else {
			off += uint64(stepLen(p1, p2, p3, c1, c2, c3))
		}
		p1, p2, p3 = c1, c2, c3
		i++
	}
	if i != n {
		return fmt.Errorf("store: column %v of %d triples handed %d", ord, n, i)
	}
	if grow != nil {
		grow.Grow(int(off - head))
	}

	// The steps pass through one chunk, handed to w whenever it might not
	// hold another.
	chunk := make([]byte, 0, colChunkBytes)
	i = 0
	for t := range ts {
		c1, c2, c3 := ord.key(t)
		if i%colBlockTriples != 0 { // a block's first triple lives in its skip entry
			if len(chunk) > colChunkBytes-maxStepBytes {
				w.Write(chunk) //nolint:errcheck // sticky
				chunk = chunk[:0]
			}
			chunk = appendStep(chunk, p1, p2, p3, c1, c2, c3)
		}
		p1, p2, p3 = c1, c2, c3
		i++
	}
	if i != n {
		return fmt.Errorf("store: column %v of %d triples handed %d", ord, n, i)
	}
	w.Write(chunk) //nolint:errcheck // sticky
	return nil
}

// colChunkBytes is the size of the chunk writeCol encodes through.
const colChunkBytes = 4 << 10

// maxStepBytes bounds a step's bytes: three varints of at most 33 bits.
const maxStepBytes = 15

// appendStep appends to b the step from key p to the key c after it in
// its column: the tagged varint of the first key that moved, then the
// zigzag deltas of the keys after that one (see the format above).
// Deltas are taken modulo 2^32, as step adds them back, so any two keys
// round-trip; a sorted column's leading deltas are positive.
func appendStep(b []byte, p1, p2, p3, c1, c2, c3 dict.ID) []byte {
	switch {
	case c1 != p1:
		b = appendUvarint(b, uint64(c1-p1)<<1|1)
		b = appendUvarint(b, zigzag(int64(c2)-int64(p2)))
	case c2 != p2:
		b = appendUvarint(b, uint64(c2-p2)<<2|2)
	default:
		return appendUvarint(b, uint64(c3-p3)<<2)
	}
	return appendUvarint(b, zigzag(int64(c3)-int64(p3)))
}

// stepLen is the number of bytes appendStep appends for the step from p
// to c, without appending them. The tag is picked by selects rather than
// branches: which key moved is what a column's steps vary in most.
func stepLen(p1, p2, p3, c1, c2, c3 dict.ID) int {
	l2 := uvarintLen(zigzag(int64(c2) - int64(p2)))
	l3 := uvarintLen(zigzag(int64(c3) - int64(p3)))
	v, n := uint64(c3-p3)<<2, 0
	if c2 != p2 {
		v, n = uint64(c2-p2)<<2|2, l3
	}
	if c1 != p1 {
		v, n = uint64(c1-p1)<<1|1, l2+l3
	}
	return uvarintLen(v) + n
}

// appendUvarint is binary.AppendUvarint unrolled up to three bytes: the
// deltas of a sorted column, between IDs of a dictionary below 2^20
// terms.
func appendUvarint(b []byte, v uint64) []byte {
	switch {
	case v < 1<<7:
		return append(b, byte(v))
	case v < 1<<14:
		return append(b, byte(v)|0x80, byte(v>>7))
	case v < 1<<21:
		return append(b, byte(v)|0x80, byte(v>>7)|0x80, byte(v>>14))
	}
	return binary.AppendUvarint(b, v)
}

// encCol serves one encoded column without materializing it: the
// payload bytes — a snapshot's column section, mapped (or read into
// memory), or a folded run's heap bytes — are decoded on demand into each
// cursor's own buffer. Safe for concurrent readers.
type encCol struct {
	ord     Order
	n       int
	nBlocks int
	payload []byte
	file    *mapping // keeps payload mapped while the column is reachable; nil for heap bytes

	lowest, highest sortKey // the column's first and last key, when n > 0

	fenceMu sync.Mutex
	fences  atomic.Pointer[[]fence] // nil until the first range lookup
}

// openCol checks a column payload's header and skip index against the
// wantLen triples it must hold, and that its bytes can hold that many
// steps, decodes its last block, and returns the column view.
func openCol(ord Order, payload []byte, wantLen int, file *mapping) (*encCol, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: column %v section only %d bytes", ErrSnapshotCorrupt, ord, len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload[0:4]))
	nBlocks := int(binary.LittleEndian.Uint32(payload[4:8]))
	if n != wantLen {
		return nil, fmt.Errorf("%w: column %v holds %d triples, header says %d", ErrSnapshotCorrupt, ord, n, wantLen)
	}
	wantBlocks := (n + colBlockTriples - 1) / colBlockTriples
	if nBlocks != wantBlocks || len(payload) < 8+nBlocks*colSkipEntryBytes {
		return nil, fmt.Errorf("%w: column %v skip index truncated (%d blocks for %d triples)",
			ErrSnapshotCorrupt, ord, nBlocks, n)
	}
	// Each triple but a block's first takes at least one byte: a count the
	// payload cannot hold is refused before an open allocates for it.
	if len(payload) < 8+nBlocks*colSkipEntryBytes+(n-nBlocks) {
		return nil, fmt.Errorf("%w: column %v of %d triples in %d bytes", ErrSnapshotCorrupt, ord, n, len(payload))
	}
	m := &encCol{ord: ord, n: n, nBlocks: nBlocks, payload: payload, file: file}
	if n == 0 {
		return m, nil
	}
	// The last key: decode the last block, which the skip index must place
	// after itself and inside the payload.
	b := m.nBlocks - 1
	k, pos := m.first(b), m.blockOff(b)
	if pos < 8+m.nBlocks*colSkipEntryBytes || pos > len(payload) {
		return nil, fmt.Errorf("%w: column %v block %d at byte %d of %d", ErrSnapshotCorrupt, ord, b, pos, len(payload))
	}
	for i := b*colBlockTriples + 1; i < m.n; i++ {
		var err error
		if pos, err = m.step(&k, pos); err != nil {
			return nil, err
		}
	}
	m.lowest, m.highest = m.first(0).sortKey(), k.sortKey()
	return m, nil
}

func (m *encCol) Len() int { return m.n }

// colKey is an encoded column's decoding state: the key, in the column's
// order, of the triple last decoded.
type colKey [3]dict.ID

// first returns block b's first key, straight from the skip index.
func (m *encCol) first(b int) colKey {
	e := m.payload[8+b*colSkipEntryBytes:]
	return colKey{
		dict.ID(binary.LittleEndian.Uint32(e[0:4])),
		dict.ID(binary.LittleEndian.Uint32(e[4:8])),
		dict.ID(binary.LittleEndian.Uint32(e[8:12])),
	}
}

func (m *encCol) blockOff(b int) int {
	e := m.payload[8+b*colSkipEntryBytes:]
	return int(binary.LittleEndian.Uint64(e[12:20]))
}

// step decodes the key after k from the step at payload[pos:] and
// returns the position past it, or an error if the payload cuts it.
func (m *encCol) step(k *colKey, pos int) (int, error) {
	p := m.payload
	if pos+3 <= len(p) { // steps of one-byte varints: most triples
		switch b0 := p[pos]; {
		case b0&0x83 == 0: // only k3 moved, by less than 32
			k[2] += dict.ID(b0 >> 2)
			return pos + 1, nil
		case b0&0x83 == 2 && p[pos+1] < 0x80:
			k[1] += dict.ID(b0 >> 2)
			k[2] = dict.ID(int64(k[2]) + unzigzag(uint64(p[pos+1])))
			return pos + 2, nil
		case b0&0x81 == 1 && p[pos+1]|p[pos+2] < 0x80:
			k[0] += dict.ID(b0 >> 1)
			k[1] = dict.ID(int64(k[1]) + unzigzag(uint64(p[pos+1])))
			k[2] = dict.ID(int64(k[2]) + unzigzag(uint64(p[pos+2])))
			return pos + 3, nil
		}
	}
	v, next := readUvarint(p, pos)
	if next <= pos {
		return pos, fmt.Errorf("%w: column %v cut at byte %d", ErrSnapshotCorrupt, m.ord, pos)
	}
	var from int // the first key a zigzag delta follows for
	switch {
	case v&1 != 0:
		k[0] += dict.ID(v >> 1)
		from = 1
	case v&2 != 0:
		k[1] += dict.ID(v >> 2)
		from = 2
	default:
		k[2] += dict.ID(v >> 2)
		return next, nil
	}
	for j := from; j < 3; j++ {
		pos = next
		if v, next = readUvarint(p, pos); next <= pos {
			return pos, fmt.Errorf("%w: column %v cut at byte %d", ErrSnapshotCorrupt, m.ord, pos)
		}
		k[j] = dict.ID(int64(k[j]) + unzigzag(v))
	}
	return next, nil
}

// readUvarint decodes the uvarint at p[pos:] and returns it with the
// position past it, or pos itself if p cuts it: binary.Uvarint unrolled
// to three bytes, appendUvarint's cases.
func readUvarint(p []byte, pos int) (uint64, int) {
	if pos+3 <= len(p) {
		b0, b1, b2 := uint64(p[pos]), uint64(p[pos+1]), uint64(p[pos+2])
		switch {
		case b0 < 0x80:
			return b0, pos + 1
		case b1 < 0x80:
			return b0&0x7f | b1<<7, pos + 2
		case b2 < 0x80:
			return b0&0x7f | (b1&0x7f)<<7 | b2<<14, pos + 3
		}
	}
	v, w := binary.Uvarint(p[pos:])
	if w <= 0 {
		return 0, pos
	}
	return v, pos + w
}

// must returns v, or panics with err as a corruption for the column
// readers, which have no error return.
func must[T any](v T, err error) T {
	if err != nil {
		panic(corruptionPanic(err))
	}
	return v
}

func (k colKey) sortKey() sortKey { return packKey(k[0], k[1], k[2]) }

// walk decodes the whole column once, through step, hands each triple
// to each (when not nil) in the column's order, and returns its fences.
// It fails on a block that does not begin where the one before it ends
// (the first just past the skip index, the last ending the payload), on
// a cut varint, and on an ID outside 1..maxID.
func (m *encCol) walk(maxID dict.ID, each func(Triple)) (fs []fence, err error) {
	fs = make([]fence, 0, (m.n+fenceTriples-1)/fenceTriples)
	pos := 8 + m.nBlocks*colSkipEntryBytes
	for b := 0; b < m.nBlocks; b++ {
		start := m.blockOff(b)
		if start != pos {
			return nil, fmt.Errorf("%w: column %v block %d at byte %d, not %d", ErrSnapshotCorrupt, m.ord, b, start, pos)
		}
		k := m.first(b)
		for i := b * colBlockTriples; i < min(m.n, (b+1)*colBlockTriples); i++ {
			if i > b*colBlockTriples {
				if pos, err = m.step(&k, pos); err != nil {
					return nil, err
				}
			}
			// An ID of 0 wraps around to the top, so one compare a term
			// checks both ends of 1..maxID.
			if k[0]-1 >= maxID || k[1]-1 >= maxID || k[2]-1 >= maxID {
				return nil, fmt.Errorf("%w: column %v triple %d references an unknown term id in %v", ErrSnapshotCorrupt, m.ord, i, k)
			}
			if each != nil {
				each(m.ord.unkey(k[0], k[1], k[2]))
			}
			if i%fenceTriples == 0 {
				sk := k.sortKey()
				fs = append(fs, fence{hi: sk.hi, lo: sk.lo, off: uint32(pos - start)})
			}
		}
	}
	if pos != len(m.payload) {
		return nil, fmt.Errorf("%w: %d bytes after column %v's last triple", ErrSnapshotCorrupt, len(m.payload)-pos, m.ord)
	}
	return fs, nil
}

// fenceTable returns the column's fences, deriving them on first use by
// one walk.
func (m *encCol) fenceTable() []fence {
	if fs := m.fences.Load(); fs != nil {
		return *fs
	}
	m.fenceMu.Lock()
	defer m.fenceMu.Unlock()
	if fs := m.fences.Load(); fs != nil {
		return *fs
	}
	fs := must(m.walk(^dict.ID(0), nil))
	m.fences.Store(&fs)
	return fs
}

// fenceBytes is what the column's fences hold, 0 before they are built.
func (m *encCol) fenceBytes() int64 {
	if fs := m.fences.Load(); fs != nil {
		return int64(cap(*fs)) * int64(unsafe.Sizeof(fence{}))
	}
	return 0
}

// at returns the decoding state at fence f: the key of triple
// f·fenceTriples and the position of the varints after it.
func (m *encCol) at(fs []fence, f int) (colKey, int) {
	return fs[f].colKey(), m.blockOff(f*fenceTriples/colBlockTriples) + int(fs[f].off)
}

func (m *encCol) Range(bound Triple, n int) (lo, hi int) {
	if n == 0 || m.n == 0 {
		return 0, m.n
	}
	kl, kh := m.ord.prefixBounds(bound, n)
	switch {
	case !m.highest.reaches(kl, false): // every key sorts before the range
		return m.n, m.n
	case m.lowest.reaches(kh, true): // every key sorts after it
		return 0, 0
	}
	fs := m.fenceTable()
	lo, key, pos := m.search(fs, 0, len(fs), kl, false)
	// Most ranges are short: walk on from lo to the next fence first.
	hi, end := lo, min(m.n, (lo/fenceTriples+1)*fenceTriples)
	for hi < end && !key.sortKey().reaches(kh, true) {
		if hi++; hi < end {
			pos = must(m.step(&key, pos))
		}
	}
	if hi < end || hi == m.n {
		return lo, hi
	}
	// The range runs past fence hi/fenceTriples: gallop over the fences
	// from there, then bisect.
	short, f := hi/fenceTriples-1, hi/fenceTriples
	for d := 1; f < len(fs) && !fs[f].sortKey().reaches(kh, true); d *= 2 {
		short, f = f, f+d
	}
	hi, _, _ = m.search(fs, short+1, min(f, len(fs)), kh, true)
	return lo, hi
}

func (m *encCol) Lead(k1 dict.ID) (dict.ID, bool) {
	k := packKey(k1, 0, 0)
	switch {
	case m.n == 0 || !m.highest.reaches(k, false):
		return 0, false
	case m.lowest.reaches(k, false):
		return dict.ID(m.lowest.hi >> 32), true
	}
	fs := m.fenceTable()
	_, key, _ := m.search(fs, 0, len(fs), k, false)
	return key[0], true
}

// search returns the first index i whose key reaches k (Len if none
// does), and, when i < Len, that key and the position of the varints
// after it — given that the first fence to reach k is in [from, to]
// (to = len(fs) standing for none). It bisects those fences, then decodes
// the triples between the last fence short of k and the next.
func (m *encCol) search(fs []fence, from, to int, k sortKey, strict bool) (int, colKey, int) {
	lo, hi := from, to
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if fs[h].sortKey().reaches(k, strict) {
			hi = h
		} else {
			lo = h + 1
		}
	}
	if lo > 0 {
		i := (lo - 1) * fenceTriples
		end := min(m.n, i+fenceTriples)
		key, pos := m.at(fs, lo-1)
		for i++; i < end; i++ {
			pos = must(m.step(&key, pos))
			if key.sortKey().reaches(k, strict) {
				return i, key, pos
			}
		}
		if end == m.n {
			return end, colKey{}, 0
		}
	}
	key, pos := m.at(fs, lo)
	return lo * fenceTriples, key, pos
}

func (m *encCol) Cursor(lo, hi int) Cursor {
	return Cursor{pos: lo, hi: hi, col: m}
}

// window decodes triples i, i+1, … up to hi or the end of i's block,
// whichever comes first, into buf (reusing its capacity). A window from a
// block start reads the skip index; one from inside a block starts at the
// fence before i.
func (m *encCol) window(i, hi int, buf []Triple) []Triple {
	if buf == nil {
		buf = make([]Triple, 0, min(hi-i, colBlockTriples))
	}
	b := i / colBlockTriples
	end := min(hi, (b+1)*colBlockTriples)
	var k colKey
	var pos int
	at := i - i%fenceTriples
	if i%colBlockTriples == 0 {
		k, pos = m.first(b), m.blockOff(b)
	} else {
		k, pos = m.at(m.fenceTable(), i/fenceTriples)
	}
	for ; at < i; at++ {
		pos = must(m.step(&k, pos))
	}
	buf = append(buf[:0], m.ord.unkey(k[0], k[1], k[2]))
	for at++; at < end; at++ {
		pos = must(m.step(&k, pos))
		buf = append(buf, m.ord.unkey(k[0], k[1], k[2]))
	}
	return buf
}

// encCols is the encoded RunCols: two encCol views over the column
// sections of one snapshot, or over the heap payloads encodeCols builds
// for a large folded run.
type encCols struct {
	n    int
	cols [NumOrders]*encCol
	src  *container // the snapshot the columns are sections of; nil for heap payloads
}

func (m *encCols) length() int     { return m.n }
func (m *encCols) col(o Order) Col { return m.cols[o] }

// encodeCols adopts ts and encodes it, sorted in place into each order in
// turn, as two heap-resident columns (writeCol): a run at about 4.4 B a
// triple on LUBM where memCols holds 24, plus the fences of the columns
// that serve range lookups. One scratch buffer serves both sorts, and ts
// is garbage once this returns.
func encodeCols(ts []Triple) *encCols {
	var scratch []Triple
	if len(ts) >= radixCutoff {
		scratch = make([]Triple, len(ts))
	}
	m := &encCols{n: len(ts)}
	for o := range m.cols {
		sortTriples(Order(o), ts, scratch)
		m.cols[o] = heapCol(Order(o), ts)
	}
	return m
}

// heapCol encodes ts, sorted in ord, as a heap-resident column.
func heapCol(ord Order, ts []Triple) *encCol {
	var b bytes.Buffer
	writeCol(&b, ord, len(ts), slices.Values(ts)) //nolint:errcheck // a slice holds its length
	return must(openCol(ord, b.Bytes(), len(ts), nil))
}

// fileBytes is what the run's column sections hold in its snapshot file:
// 0 for heap columns.
func (m *encCols) fileBytes() int64 {
	var n int64
	for _, c := range m.cols {
		if c.file != nil {
			n += int64(len(c.payload))
		}
	}
	return n
}

// heapBytes is what the run holds on the heap: its heap payloads and the
// fences its columns have built.
func (m *encCols) heapBytes() int64 {
	var n int64
	for _, c := range m.cols {
		if c.file == nil {
			n += int64(len(c.payload))
		}
		n += c.fenceBytes()
	}
	return n
}
