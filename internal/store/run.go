package store

import (
	"cmp"
	"slices"
	"sort"

	"rdfsum/internal/dict"
)

// The immutable-run storage abstraction. A run of the tiered index keeps
// its triples in three sort orders (SPO, POS, OSP); each order is a Col.
// Two implementations exist: memCols (plain in-memory slices — every run
// built by ingest starts this way) and mappedCols (varint-delta-encoded
// blocks with a skip index, served zero-copy from an mmap'd snapshot or
// spill file; see colenc.go). The index's search and merge machinery is
// written against the interfaces, so spilling a folded run to disk — or
// opening a prebuilt snapshot without materializing anything — is just a
// different Col behind the same run.

// Order selects one of the three maintained sort orders.
type Order int

// The three maintained sort orders of a run.
const (
	OrderSPO Order = iota
	OrderPOS
	OrderOSP
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
	case OrderOSP:
		return "osp"
	default:
		return "invalid"
	}
}

// key returns t's components permuted into o's sort key.
func (o Order) key(t Triple) (k1, k2, k3 dict.ID) {
	switch o {
	case OrderPOS:
		return t.P, t.O, t.S
	case OrderOSP:
		return t.O, t.S, t.P
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

// cmpPrefix compares the first n key components of t against bound,
// returning -1, 0 or +1. n=0 compares nothing (always 0): the full-scan
// pattern.
func (o Order) cmpPrefix(t, bound Triple, n int) int {
	t1, t2, t3 := o.key(t)
	b1, b2, b3 := o.key(bound)
	ks := [3][2]dict.ID{{t1, b1}, {t2, b2}, {t3, b3}}
	for i := 0; i < n; i++ {
		if ks[i][0] < ks[i][1] {
			return -1
		}
		if ks[i][0] > ks[i][1] {
			return 1
		}
	}
	return 0
}

// Col is one sort order of an immutable run: a sorted sequence of triples
// supporting monotone-predicate search and windowed iteration. All
// implementations are safe for concurrent readers.
type Col interface {
	// Len is the number of triples in the column.
	Len() int
	// Search returns the smallest index i with pred(col[i]) true, or
	// Len() when pred is false everywhere. pred must be monotone in the
	// column's sort order (false… then true…).
	Search(pred func(Triple) bool) int
	// Cursor returns an iterator over the half-open range [lo, hi).
	Cursor(lo, hi int) Cursor
}

// Cursor iterates a Col range in order. Not safe for concurrent use;
// create one per traversal.
type Cursor struct {
	buf    []Triple                    // decoded window; nil when exhausted
	bufLo  int                         // global index of buf[0]
	pos    int                         // global index of the next triple
	hi     int                         // global end of the iteration range
	refill func(i int) ([]Triple, int) // window containing global index i; nil for in-memory cols
}

// Valid reports whether Next has another triple to return.
func (c *Cursor) Valid() bool { return c.pos < c.hi }

// Peek returns the next triple without advancing.
func (c *Cursor) Peek() Triple {
	if c.pos < c.bufLo || c.pos >= c.bufLo+len(c.buf) {
		c.buf, c.bufLo = c.refill(c.pos)
	}
	return c.buf[c.pos-c.bufLo]
}

// Next returns the next triple and advances.
func (c *Cursor) Next() Triple {
	t := c.Peek()
	c.pos++
	return t
}

// RunCols bundles the three sort orders of one immutable run. Only this
// package implements it; other packages treat it as an opaque handle
// (obtained from SnapshotFile.Runs, passed to NewIndexFromBase).
type RunCols interface {
	length() int
	col(o Order) Col
}

// --- in-memory implementation --------------------------------------------

// memCol is the in-memory Col: a sorted slice.
type memCol []Triple

func (m memCol) Len() int { return len(m) }

func (m memCol) Search(pred func(Triple) bool) int {
	return sort.Search(len(m), func(i int) bool { return pred(m[i]) })
}

func (m memCol) Cursor(lo, hi int) Cursor {
	return Cursor{buf: m, bufLo: 0, pos: lo, hi: hi}
}

// memCols is the in-memory RunCols: the three sorted slices every
// freshly built run starts with.
type memCols struct {
	spo, pos, osp []Triple
}

// NewRunCols sorts triples into a heap-resident run: the one place a
// triple multiset is ordered three ways. NewIndexFromBase adopts the
// result and WriteSnapshotV2 encodes its column sections from it, so a
// boot sorts once. triples is adopted (sorted in place), not copied.
func NewRunCols(triples []Triple) RunCols { return newMemCols(triples) }

// newMemCols adopts adds (sorting it in place into SPO order) and builds
// the other two orders. One scratch buffer serves all three sorts.
func newMemCols(adds []Triple) *memCols {
	var scratch []Triple
	if len(adds) >= radixCutoff {
		scratch = make([]Triple, len(adds))
	}
	m := &memCols{spo: adds}
	sortTriples(OrderSPO, m.spo, scratch)
	m.pos = slices.Clone(m.spo)
	sortTriples(OrderPOS, m.pos, scratch)
	m.osp = slices.Clone(m.spo)
	sortTriples(OrderOSP, m.osp, scratch)
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
	case OrderOSP:
		return [3]int{2, 0, 1}
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

func (m *memCols) length() int { return len(m.spo) }

func (m *memCols) col(o Order) Col {
	switch o {
	case OrderPOS:
		return memCol(m.pos)
	case OrderOSP:
		return memCol(m.osp)
	default:
		return memCol(m.spo)
	}
}
