package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"rdfsum/internal/dict"
)

// On-disk column encoding: one sorted order of a run as a sequence of
// varint-delta blocks with a fixed-width skip index, designed to be
// searched and scanned directly from an mmap'd file.
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
// triple lives in the skip entry; each following triple is three varints
// against its predecessor in key space: uvarint(Δk1) (non-negative in a
// sorted column), then zigzag-svarint(Δk2) and zigzag-svarint(Δk3).
//
// Scans decode blocks sequentially from the skip index's offsets. Range
// lookups binary-search in-memory fences (one every fenceTriples triples,
// derived by one pass over the column at its first lookup — they are not
// on disk) and decode at most fenceTriples-1 triples past one. Nothing is
// materialized at open time.

// colBlockTriples is the number of triples per block: large enough that
// the skip index stays sparse (20 bytes per 512 triples ≈ 0.3% overhead).
// A multiple of fenceTriples, so no fence window crosses a block.
const colBlockTriples = 512

const colSkipEntryBytes = 20

// fenceTriples is the spacing of a mapped column's in-memory fences: 16
// bytes every 8 triples, 2 B a triple. On the LUBM-52 joins a mapped base
// with 8-triple fences matched the heap index; 16 took 1.7× its time and
// 32 took 2.4×.
const fenceTriples = 8

// fence is the key of a column's triple i (i a multiple of fenceTriples)
// and the offset, from the start of i's block, of the varints of triple
// i+1.
type fence struct {
	key colKey
	off uint32
}

// unkey reverses Order.key: rebuilds a Triple from its permuted sort key.
func (o Order) unkey(k1, k2, k3 dict.ID) Triple {
	switch o {
	case OrderPOS:
		return Triple{S: k3, P: k1, O: k2}
	case OrderOSP:
		return Triple{S: k2, P: k3, O: k1}
	default:
		return Triple{S: k1, P: k2, O: k3}
	}
}

func zigzag(x int64) uint64   { return uint64((x << 1) ^ (x >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen is the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// writeCol streams ts — sorted in ord — as one column section. The skip
// index precedes the blocks and holds their offsets, so ts is read twice:
// once sizing the blocks to fill the skip index, once encoding them.
func writeCol(w *containerWriter, ord Order, ts []Triple) {
	n := len(ts)
	nBlocks := (n + colBlockTriples - 1) / colBlockTriples

	head := make([]byte, 8, 8+nBlocks*colSkipEntryBytes)
	binary.LittleEndian.PutUint32(head[0:4], uint32(n))
	binary.LittleEndian.PutUint32(head[4:8], uint32(nBlocks))
	off := uint64(cap(head))
	for b := 0; b < nBlocks; b++ {
		block := ts[b*colBlockTriples : min(n, (b+1)*colBlockTriples)]
		p1, p2, p3 := ord.key(block[0])
		head = binary.LittleEndian.AppendUint32(head, uint32(p1))
		head = binary.LittleEndian.AppendUint32(head, uint32(p2))
		head = binary.LittleEndian.AppendUint32(head, uint32(p3))
		head = binary.LittleEndian.AppendUint64(head, off)
		for _, t := range block[1:] {
			c1, c2, c3 := ord.key(t)
			off += uint64(uvarintLen(uint64(c1-p1)) +
				uvarintLen(zigzag(int64(c2)-int64(p2))) +
				uvarintLen(zigzag(int64(c3)-int64(p3))))
			p1, p2, p3 = c1, c2, c3
		}
	}
	w.Write(head) //nolint:errcheck // sticky

	var tmp [3 * binary.MaxVarintLen64]byte
	for b := 0; b < nBlocks; b++ {
		block := ts[b*colBlockTriples : min(n, (b+1)*colBlockTriples)]
		p1, p2, p3 := ord.key(block[0]) // lives in the skip entry
		for _, t := range block[1:] {
			c1, c2, c3 := ord.key(t)
			k := binary.PutUvarint(tmp[:], uint64(c1-p1))
			k += binary.PutUvarint(tmp[k:], zigzag(int64(c2)-int64(p2)))
			k += binary.PutUvarint(tmp[k:], zigzag(int64(c3)-int64(p3)))
			w.Write(tmp[:k]) //nolint:errcheck // sticky
			p1, p2, p3 = c1, c2, c3
		}
	}
}

// mappedCol serves one encoded column without materializing it: the
// payload bytes (typically an mmap'd file section) are decoded on demand
// into each cursor's own buffer. Safe for concurrent readers.
type mappedCol struct {
	ord     Order
	n       int
	nBlocks int
	sec     *section // lazy per-section CRC verification on first touch
	payload []byte
	file    *mapping // keeps payload mapped while the column is reachable

	fenceMu sync.Mutex
	fences  atomic.Pointer[[]fence] // nil until the first range lookup
}

// openCol validates the payload framing and returns the column view.
// wantLen < 0 skips the length cross-check.
func openCol(ord Order, sec *section, wantLen int, file *mapping) (*mappedCol, error) {
	payload := sec.raw
	if len(payload) < 8 {
		return nil, fmt.Errorf("%w: column %v section only %d bytes", ErrSnapshotCorrupt, ord, len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload[0:4]))
	nBlocks := int(binary.LittleEndian.Uint32(payload[4:8]))
	if wantLen >= 0 && n != wantLen {
		return nil, fmt.Errorf("%w: column %v holds %d triples, header says %d", ErrSnapshotCorrupt, ord, n, wantLen)
	}
	wantBlocks := (n + colBlockTriples - 1) / colBlockTriples
	if nBlocks != wantBlocks || len(payload) < 8+nBlocks*colSkipEntryBytes {
		return nil, fmt.Errorf("%w: column %v skip index truncated (%d blocks for %d triples)",
			ErrSnapshotCorrupt, ord, nBlocks, n)
	}
	return &mappedCol{ord: ord, n: n, nBlocks: nBlocks, sec: sec, payload: payload, file: file}, nil
}

func (m *mappedCol) Len() int { return m.n }

// colKey is a mapped column's decoding state: the key, in the column's
// order, of the triple last decoded.
type colKey [3]dict.ID

// first returns block b's first key, straight from the skip index.
func (m *mappedCol) first(b int) colKey {
	e := m.payload[8+b*colSkipEntryBytes:]
	return colKey{
		dict.ID(binary.LittleEndian.Uint32(e[0:4])),
		dict.ID(binary.LittleEndian.Uint32(e[4:8])),
		dict.ID(binary.LittleEndian.Uint32(e[8:12])),
	}
}

func (m *mappedCol) blockOff(b int) int {
	e := m.payload[8+b*colSkipEntryBytes:]
	return int(binary.LittleEndian.Uint64(e[12:20]))
}

// step decodes the key after k from the varints at payload[pos:] and
// returns the position past them. A cut varint in a section whose CRC
// passed is a writer bug or a memory fault, and panics like the lazy
// checks do.
func (m *mappedCol) step(k *colKey, pos int) int {
	var d [3]uint64
	for j := range d {
		if pos < len(m.payload) && m.payload[pos] < 0x80 { // one-byte varint: most deltas
			d[j], pos = uint64(m.payload[pos]), pos+1
			continue
		}
		v, w := binary.Uvarint(m.payload[pos:])
		if w <= 0 {
			panic(corruptionPanic(fmt.Errorf("%w: column %v cut at byte %d", ErrSnapshotCorrupt, m.ord, pos)))
		}
		d[j], pos = v, pos+w
	}
	k[0] += dict.ID(d[0])
	k[1] = dict.ID(int64(k[1]) + unzigzag(d[1]))
	k[2] = dict.ID(int64(k[2]) + unzigzag(d[2]))
	return pos
}

func (k colKey) sortKey() sortKey { return packKey(k[0], k[1], k[2]) }

// fenceTable returns the column's fences, deriving them on first use by
// one pass over the verified section.
func (m *mappedCol) fenceTable() []fence {
	if fs := m.fences.Load(); fs != nil {
		return *fs
	}
	m.fenceMu.Lock()
	defer m.fenceMu.Unlock()
	if fs := m.fences.Load(); fs != nil {
		return *fs
	}
	m.sec.verifyLazy()
	fs := make([]fence, 0, (m.n+fenceTriples-1)/fenceTriples)
	for b := 0; b < m.nBlocks; b++ {
		start := m.blockOff(b)
		k, pos := m.first(b), start
		for i := b * colBlockTriples; i < min(m.n, (b+1)*colBlockTriples); i++ {
			if i > b*colBlockTriples {
				pos = m.step(&k, pos)
			}
			if i%fenceTriples == 0 {
				fs = append(fs, fence{key: k, off: uint32(pos - start)})
			}
		}
	}
	m.fences.Store(&fs)
	return fs
}

// fenceBytes is what the column's fences hold, 0 before they are built.
func (m *mappedCol) fenceBytes() int64 {
	if fs := m.fences.Load(); fs != nil {
		return int64(cap(*fs)) * int64(unsafe.Sizeof(fence{}))
	}
	return 0
}

// at returns the decoding state at fence f: the key of triple
// f·fenceTriples and the position of the varints after it.
func (m *mappedCol) at(fs []fence, f int) (colKey, int) {
	return fs[f].key, m.blockOff(f*fenceTriples/colBlockTriples) + int(fs[f].off)
}

func (m *mappedCol) Range(bound Triple, n int) (lo, hi int) {
	if n == 0 || m.n == 0 {
		return 0, m.n
	}
	fs := m.fenceTable()
	kl, kh := m.ord.prefixBounds(bound, n)
	lo, key, pos := m.search(fs, 0, len(fs), kl, false)
	// Most ranges are short: walk on from lo to the next fence first.
	hi, end := lo, min(m.n, (lo/fenceTriples+1)*fenceTriples)
	for hi < end && !key.sortKey().reaches(kh, true) {
		if hi++; hi < end {
			pos = m.step(&key, pos)
		}
	}
	if hi < end || hi == m.n {
		return lo, hi
	}
	// The range runs past fence hi/fenceTriples: gallop over the fences
	// from there, then bisect.
	short, f := hi/fenceTriples-1, hi/fenceTriples
	for d := 1; f < len(fs) && !fs[f].key.sortKey().reaches(kh, true); d *= 2 {
		short, f = f, f+d
	}
	hi, _, _ = m.search(fs, short+1, min(f, len(fs)), kh, true)
	return lo, hi
}

// search returns the first index i whose key reaches k (Len if none
// does), and, when i < Len, that key and the position of the varints
// after it — given that the first fence to reach k is in [from, to]
// (to = len(fs) standing for none). It bisects those fences, then decodes
// the triples between the last fence short of k and the next.
func (m *mappedCol) search(fs []fence, from, to int, k sortKey, strict bool) (int, colKey, int) {
	lo, hi := from, to
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if fs[h].key.sortKey().reaches(k, strict) {
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
			pos = m.step(&key, pos)
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

func (m *mappedCol) Cursor(lo, hi int) Cursor {
	return Cursor{pos: lo, hi: hi, col: m}
}

// window decodes triples i, i+1, … up to hi or the end of i's block,
// whichever comes first, into buf (reusing its capacity). A window from a
// block start reads the skip index; one from inside a block starts at the
// fence before i.
func (m *mappedCol) window(i, hi int, buf []Triple) []Triple {
	if buf == nil {
		buf = make([]Triple, 0, min(hi-i, colBlockTriples))
	}
	b := i / colBlockTriples
	end := min(hi, (b+1)*colBlockTriples)
	var k colKey
	var pos int
	at := i - i%fenceTriples
	if i%colBlockTriples == 0 {
		m.sec.verifyLazy()
		k, pos = m.first(b), m.blockOff(b)
	} else {
		k, pos = m.at(m.fenceTable(), i/fenceTriples)
	}
	for ; at < i; at++ {
		pos = m.step(&k, pos)
	}
	buf = append(buf[:0], m.ord.unkey(k[0], k[1], k[2]))
	for at++; at < end; at++ {
		pos = m.step(&k, pos)
		buf = append(buf, m.ord.unkey(k[0], k[1], k[2]))
	}
	return buf
}

// mappedCols is the on-disk RunCols: three mappedCol views over the col
// sections of one container (snapshot or spill file).
type mappedCols struct {
	n    int
	cols [NumOrders]*mappedCol
}

func (m *mappedCols) length() int     { return m.n }
func (m *mappedCols) col(o Order) Col { return m.cols[o] }

// bytes is what the run's three column sections hold.
func (m *mappedCols) bytes() int64 {
	var n int64
	for _, c := range m.cols {
		n += int64(len(c.payload))
	}
	return n
}

// fenceBytes is what the run's built fences hold on the heap.
func (m *mappedCols) fenceBytes() int64 {
	var n int64
	for _, c := range m.cols {
		n += c.fenceBytes()
	}
	return n
}
