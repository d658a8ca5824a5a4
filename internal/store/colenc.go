package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

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
// Point and range lookups binary-search the skip index without touching
// any block (20-byte fixed entries), then decode exactly one block; scans
// decode blocks sequentially. Nothing is materialized at open time.

// colBlockTriples is the number of triples per block: small enough that
// a point lookup decodes little, large enough that the skip index stays
// sparse (20 bytes per 512 triples ≈ 0.3% overhead).
const colBlockTriples = 512

const colSkipEntryBytes = 20

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

// writeCol streams col — sorted in ord — as one column section. The
// skip index precedes the blocks and holds their offsets, so the column
// is read twice through a Cursor: once sizing the blocks to fill the
// skip index, once encoding them. Heap, mapped and spilled columns all
// encode, to the same bytes for the same triples.
func writeCol(w *containerWriter, ord Order, col Col) {
	n := col.Len()
	nBlocks := (n + colBlockTriples - 1) / colBlockTriples
	blockLen := func(b int) int { return min(colBlockTriples, n-b*colBlockTriples) }

	head := make([]byte, 8, 8+nBlocks*colSkipEntryBytes)
	binary.LittleEndian.PutUint32(head[0:4], uint32(n))
	binary.LittleEndian.PutUint32(head[4:8], uint32(nBlocks))
	off := uint64(cap(head))
	cur := col.Cursor(0, n)
	for b := 0; b < nBlocks; b++ {
		p1, p2, p3 := ord.key(cur.Next())
		head = binary.LittleEndian.AppendUint32(head, uint32(p1))
		head = binary.LittleEndian.AppendUint32(head, uint32(p2))
		head = binary.LittleEndian.AppendUint32(head, uint32(p3))
		head = binary.LittleEndian.AppendUint64(head, off)
		for i := blockLen(b) - 1; i > 0; i-- {
			c1, c2, c3 := ord.key(cur.Next())
			off += uint64(uvarintLen(uint64(c1-p1)) +
				uvarintLen(zigzag(int64(c2)-int64(p2))) +
				uvarintLen(zigzag(int64(c3)-int64(p3))))
			p1, p2, p3 = c1, c2, c3
		}
	}
	w.Write(head) //nolint:errcheck // sticky

	var tmp [3 * binary.MaxVarintLen64]byte
	cur = col.Cursor(0, n)
	for b := 0; b < nBlocks; b++ {
		p1, p2, p3 := ord.key(cur.Next()) // lives in the skip entry
		for i := blockLen(b) - 1; i > 0; i-- {
			c1, c2, c3 := ord.key(cur.Next())
			k := binary.PutUvarint(tmp[:], uint64(c1-p1))
			k += binary.PutUvarint(tmp[k:], zigzag(int64(c2)-int64(p2)))
			k += binary.PutUvarint(tmp[k:], zigzag(int64(c3)-int64(p3)))
			w.Write(tmp[:k]) //nolint:errcheck // sticky
			p1, p2, p3 = c1, c2, c3
		}
	}
}

// writeCols streams a run's three columns as the three column sections.
func writeCols(w *containerWriter, cols RunCols) {
	for o, id := range colSectionIDs {
		w.begin()
		writeCol(w, Order(o), cols.col(Order(o)))
		w.end(id)
	}
}

// mappedCol serves one encoded column without materializing it: the
// payload bytes (typically an mmap'd file section) are decoded one block
// at a time, on demand. Safe for concurrent readers — decoding writes
// only to freshly allocated block buffers.
type mappedCol struct {
	ord     Order
	n       int
	nBlocks int
	sec     *section // lazy per-section CRC verification on first touch
	payload []byte
}

// openCol validates the payload framing and returns the column view.
// wantLen < 0 skips the length cross-check.
func openCol(ord Order, sec *section, wantLen int) (*mappedCol, error) {
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
	return &mappedCol{ord: ord, n: n, nBlocks: nBlocks, sec: sec, payload: payload}, nil
}

func (m *mappedCol) Len() int { return m.n }

// first returns block b's first triple, straight from the skip index.
func (m *mappedCol) first(b int) Triple {
	e := m.payload[8+b*colSkipEntryBytes:]
	return m.ord.unkey(
		dict.ID(binary.LittleEndian.Uint32(e[0:4])),
		dict.ID(binary.LittleEndian.Uint32(e[4:8])),
		dict.ID(binary.LittleEndian.Uint32(e[8:12])))
}

func (m *mappedCol) blockOff(b int) int {
	if b >= m.nBlocks {
		return len(m.payload)
	}
	e := m.payload[8+b*colSkipEntryBytes:]
	return int(binary.LittleEndian.Uint64(e[12:20]))
}

// decodeBlock materializes block b into a fresh slice.
func (m *mappedCol) decodeBlock(b int) []Triple {
	m.sec.verifyLazy()
	lo := b * colBlockTriples
	hi := lo + colBlockTriples
	if hi > m.n {
		hi = m.n
	}
	out := make([]Triple, 0, hi-lo)
	t := m.first(b)
	out = append(out, t)
	k1, k2, k3 := m.ord.key(t)
	data := m.payload[m.blockOff(b):m.blockOff(b+1)]
	pos := 0
	for i := lo + 1; i < hi; i++ {
		d1, n1 := binary.Uvarint(data[pos:])
		if n1 <= 0 {
			panic(corruptionPanic(fmt.Errorf("%w: column %v block %d cut at triple %d", ErrSnapshotCorrupt, m.ord, b, i)))
		}
		pos += n1
		d2, n2 := binary.Uvarint(data[pos:])
		if n2 <= 0 {
			panic(corruptionPanic(fmt.Errorf("%w: column %v block %d cut at triple %d", ErrSnapshotCorrupt, m.ord, b, i)))
		}
		pos += n2
		d3, n3 := binary.Uvarint(data[pos:])
		if n3 <= 0 {
			panic(corruptionPanic(fmt.Errorf("%w: column %v block %d cut at triple %d", ErrSnapshotCorrupt, m.ord, b, i)))
		}
		pos += n3
		k1 += dict.ID(d1)
		k2 = dict.ID(int64(k2) + unzigzag(d2))
		k3 = dict.ID(int64(k3) + unzigzag(d3))
		out = append(out, m.ord.unkey(k1, k2, k3))
	}
	return out
}

func (m *mappedCol) Search(pred func(Triple) bool) int {
	if m.n == 0 {
		return 0
	}
	// Locate the first block whose first triple satisfies pred: the
	// boundary is inside (or at the end of) the block before it. Only
	// that single block is decoded.
	b := sort.Search(m.nBlocks, func(i int) bool { return pred(m.first(i)) })
	if b == 0 {
		return 0
	}
	dec := m.decodeBlock(b - 1)
	i := sort.Search(len(dec), func(j int) bool { return pred(dec[j]) })
	return (b-1)*colBlockTriples + i
}

func (m *mappedCol) Cursor(lo, hi int) Cursor {
	return Cursor{
		pos: lo, hi: hi,
		bufLo: -1, // force a refill on first access
		refill: func(i int) ([]Triple, int) {
			b := i / colBlockTriples
			return m.decodeBlock(b), b * colBlockTriples
		},
	}
}

// mappedCols is the on-disk RunCols: three mappedCol views over the col
// sections of one container (snapshot or spill file).
type mappedCols struct {
	n    int
	cols [NumOrders]*mappedCol
}

func (m *mappedCols) length() int     { return m.n }
func (m *mappedCols) col(o Order) Col { return m.cols[o] }
