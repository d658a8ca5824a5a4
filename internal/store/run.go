package store

import (
	"cmp"
	"math"
	"slices"

	"rdfsum/internal/dict"
)

// The immutable-run storage abstraction. A run of the tiered index keeps
// its triples in two sort orders (SPO, POS); each order is a Col.
// Two implementations exist: memCols (plain in-memory slices — each
// epoch's delta run, small folds, a memory-only store's base) and encCols
// (varint-delta-encoded blocks with a skip index, served zero-copy from
// an mmap'd snapshot or from the heap bytes of a large fold; see
// colenc.go). The index's search and merge machinery is written against
// the interfaces, so opening a prebuilt snapshot without materializing
// anything is just a different Col behind the same run.

// Order selects one of the two maintained sort orders.
type Order int

// The two maintained sort orders of a run. With the property bound they
// cover every pattern; a pattern with the property free and the object
// bound is served from POS one property at a time (Index.ForEach).
const (
	OrderSPO Order = iota
	OrderPOS
	// NumOrders is the number of maintained sort orders.
	NumOrders
)

// String names the order as it appears in section dumps.
func (o Order) String() string {
	switch o {
	case OrderSPO:
		return "spo"
	case OrderPOS:
		return "pos"
	default:
		return "invalid"
	}
}

// key returns t's components permuted into o's sort key.
func (o Order) key(t Triple) (k1, k2, k3 dict.ID) {
	switch o {
	case OrderPOS:
		return t.P, t.O, t.S
	default:
		return t.S, t.P, t.O
	}
}

// less compares two triples in o's sort order.
func (o Order) less(a, b Triple) bool {
	a1, a2, a3 := o.key(a)
	b1, b2, b3 := o.key(b)
	if a1 != b1 {
		return a1 < b1
	}
	if a2 != b2 {
		return a2 < b2
	}
	return a3 < b3
}

// compare is the three-way form of less, for slices.SortFunc.
func (o Order) compare(a, b Triple) int {
	a1, a2, a3 := o.key(a)
	b1, b2, b3 := o.key(b)
	if c := cmp.Compare(a1, b1); c != 0 {
		return c
	}
	if c := cmp.Compare(a2, b2); c != 0 {
		return c
	}
	return cmp.Compare(a3, b3)
}

// sortKey is a triple's key in one order, packed for comparison: the
// first two components in hi (the first in its upper half), the third in
// lo.
type sortKey struct {
	hi uint64
	lo uint32
}

func packKey(k1, k2, k3 dict.ID) sortKey {
	return sortKey{hi: uint64(k1)<<32 | uint64(k2), lo: uint32(k3)}
}

func (o Order) sortKey(t Triple) sortKey { return packKey(o.key(t)) }

// reaches reports whether k sorts after b or, unless strict, equals it.
func (k sortKey) reaches(b sortKey, strict bool) bool {
	if k.hi != b.hi {
		return k.hi > b.hi
	}
	if strict {
		return k.lo > b.lo
	}
	return k.lo >= b.lo
}

// prefixBounds returns the smallest and the largest key whose first n
// components (1 ≤ n ≤ 3) are bound's: a column's range for the prefix
// runs from the first key reaching lo to the first key strictly past hi.
func (o Order) prefixBounds(bound Triple, n int) (lo, hi sortKey) {
	k1, k2, k3 := o.key(bound)
	const top dict.ID = math.MaxUint32
	switch n {
	case 1:
		return packKey(k1, 0, 0), packKey(k1, top, top)
	case 2:
		return packKey(k1, k2, 0), packKey(k1, k2, top)
	default:
		return packKey(k1, k2, k3), packKey(k1, k2, k3)
	}
}

// Col is one sort order of an immutable run: a sorted sequence of triples
// supporting prefix range search and windowed iteration. All
// implementations are safe for concurrent readers.
type Col interface {
	// Len is the number of triples in the column.
	Len() int
	// Range returns the half-open range of triples whose first n key
	// components in the column's order equal bound's; n = 0 is the whole
	// column.
	Range(bound Triple, n int) (lo, hi int)
	// Lead returns the first key component of the first triple whose
	// first key component is at least k1, and false if there is none.
	Lead(k1 dict.ID) (dict.ID, bool)
	// Cursor returns an iterator over the half-open range [lo, hi).
	Cursor(lo, hi int) Cursor
}

// Cursor iterates a Col range in order. Not safe for concurrent use;
// create one per traversal.
type Cursor struct {
	buf   []Triple // the window holding the next triple
	bufLo int      // global index of buf[0]
	pos   int      // global index of the next triple
	hi    int      // global end of the iteration range
	col   *encCol  // decodes the next window into buf; nil for slice cols
}

// Valid reports whether Next has another triple to return.
func (c *Cursor) Valid() bool { return c.pos < c.hi }

// Peek returns the next triple without advancing.
func (c *Cursor) Peek() Triple {
	if c.pos >= c.bufLo+len(c.buf) {
		c.buf, c.bufLo = c.col.window(c.pos, c.hi, c.buf), c.pos
	}
	return c.buf[c.pos-c.bufLo]
}

// Next returns the next triple and advances.
func (c *Cursor) Next() Triple {
	t := c.Peek()
	c.pos++
	return t
}

// RunCols bundles the two sort orders of one immutable run. Only this
// package implements it; other packages treat it as an opaque handle
// (obtained from SnapshotFile.Runs, passed to NewIndexFromBase).
type RunCols interface {
	length() int
	col(o Order) Col
}

// --- in-memory implementation --------------------------------------------

// memCol is the in-memory Col: a slice sorted in ord.
type memCol struct {
	ord Order
	ts  []Triple
}

func (m *memCol) Len() int { return len(m.ts) }

func (m *memCol) Range(bound Triple, n int) (lo, hi int) {
	if n == 0 || len(m.ts) == 0 {
		return 0, len(m.ts)
	}
	kl, kh := m.ord.prefixBounds(bound, n)
	switch {
	case !m.ord.sortKey(m.ts[len(m.ts)-1]).reaches(kl, false): // every key sorts before the range
		return len(m.ts), len(m.ts)
	case m.ord.sortKey(m.ts[0]).reaches(kh, true): // every key sorts after it
		return 0, 0
	}
	lo = m.search(0, len(m.ts), kl, false)
	// The end is near lo for most patterns: gallop from lo, then bisect.
	short, i := lo-1, lo
	for d := 1; i < len(m.ts) && !m.ord.sortKey(m.ts[i]).reaches(kh, true); d *= 2 {
		short, i = i, i+d
	}
	return lo, m.search(short+1, min(i, len(m.ts)), kh, true)
}

// search returns the first index in [from, to) whose key reaches k, or
// to.
func (m *memCol) search(from, to int, k sortKey, strict bool) int {
	lo, hi := from, to
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if m.ord.sortKey(m.ts[h]).reaches(k, strict) {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return lo
}

func (m *memCol) Lead(k1 dict.ID) (dict.ID, bool) {
	i := m.search(0, len(m.ts), packKey(k1, 0, 0), false)
	if i == len(m.ts) {
		return 0, false
	}
	lead, _, _ := m.ord.key(m.ts[i])
	return lead, true
}

func (m *memCol) Cursor(lo, hi int) Cursor {
	return Cursor{buf: m.ts, pos: lo, hi: hi}
}

// memCols is the slice RunCols: two sorted slices, 24 B a triple —
// each epoch's delta run and every fold below encodeCutoff.
type memCols struct {
	cols [NumOrders]memCol
}

// NewRunCols sorts triples into a heap-resident run: the base of a
// memory-only store's index. triples is adopted (sorted in place), not
// copied.
func NewRunCols(triples []Triple) RunCols { return newMemCols(triples) }

// newMemCols adopts adds (sorting it in place into SPO order) and builds
// the POS order from a copy. One scratch buffer serves both sorts.
func newMemCols(adds []Triple) *memCols {
	var scratch []Triple
	if len(adds) >= radixCutoff {
		scratch = make([]Triple, len(adds))
	}
	m := &memCols{}
	for o := range m.cols {
		ts := adds
		if o > 0 {
			ts = slices.Clone(adds)
		}
		sortTriples(Order(o), ts, scratch)
		m.cols[o] = memCol{ord: Order(o), ts: ts}
	}
	return m
}

// radixCutoff is the run size below which a comparison sort beats the
// radix kernel's fixed cost (twelve 256-entry histograms). Measured with
// BenchmarkRunSort on runs shaped like the deltas Index.Applied builds
// every epoch (50–150 triples, IDs spread over a 60k-term dictionary):
// the comparison sort wins at 64 triples and loses at 96.
const radixCutoff = 96

// sortTriples sorts ts in o's order: the radix kernel at or above
// radixCutoff, a comparison sort below it (scratch is then unused and
// may be nil).
func sortTriples(o Order, ts, scratch []Triple) {
	if len(ts) < radixCutoff {
		slices.SortFunc(ts, o.compare)
		return
	}
	radixSortTriples(o, ts, scratch)
}

// fields lists the Triple fields (0 = S, 1 = P, 2 = O) in o's key
// order, most significant first.
func (o Order) fields() [3]int {
	switch o {
	case OrderPOS:
		return [3]int{1, 2, 0}
	default:
		return [3]int{0, 1, 2}
	}
}

// radixSortTriples is an LSD radix sort over the twelve key bytes of o's
// order — the low byte of the least significant key component first —
// ping-ponging between ts and scratch (len(scratch) >= len(ts) > 0) and
// leaving the result in ts. A pass whose byte is the same in every key
// is skipped: with dense dictionary IDs that is the high bytes of every
// component, so a 59k-term graph sorts in six passes, not twelve.
func radixSortTriples(o Order, ts, scratch []Triple) {
	// One read of the input builds every digit's histogram.
	var hist [3][4][256]uint32
	for _, t := range ts {
		for f, k := range [3]dict.ID{t.S, t.P, t.O} {
			hist[f][0][byte(k)]++
			hist[f][1][byte(k>>8)]++
			hist[f][2][byte(k>>16)]++
			hist[f][3][byte(k>>24)]++
		}
	}
	n := uint32(len(ts))
	first := [3]dict.ID{ts[0].S, ts[0].P, ts[0].O}
	fields := o.fields()
	src, dst := ts, scratch[:len(ts)]
	for c := 2; c >= 0; c-- {
		f := fields[c]
		for d := 0; d < 4; d++ {
			h, shift := &hist[f][d], uint(d)*8
			if h[byte(first[f]>>shift)] == n {
				continue // every key shares this byte
			}
			var sum uint32
			for b, cnt := range h {
				h[b], sum = sum, sum+cnt
			}
			switch f {
			case 0:
				for _, t := range src {
					b := byte(t.S >> shift)
					dst[h[b]] = t
					h[b]++
				}
			case 1:
				for _, t := range src {
					b := byte(t.P >> shift)
					dst[h[b]] = t
					h[b]++
				}
			default:
				for _, t := range src {
					b := byte(t.O >> shift)
					dst[h[b]] = t
					h[b]++
				}
			}
			src, dst = dst, src
		}
	}
	if &src[0] != &ts[0] {
		copy(ts, src)
	}
}

func (m *memCols) length() int { return len(m.cols[OrderSPO].ts) }

func (m *memCols) col(o Order) Col { return &m.cols[o] }
