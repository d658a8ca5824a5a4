package store

import (
	"iter"
	"math"
	"slices"
	"time"

	"rdfsum/internal/dict"
)

// Index provides ordered access paths over all three components of a
// graph, supporting triple-pattern matching with any combination of bound
// positions. It materializes two sort orders, SPO and POS: with the
// property bound — every pattern of an RBGP query — one of them has a
// prefix covering the bound positions. A pattern with the property free
// and the object bound (?s ?p o, s ?p o) is a skip scan over POS: one
// prefix range per property, walked in ascending property ID (props).
//
// Internally the index is tiered, LSM-style: the triples live in a
// sequence of immutable sorted runs (oldest first). A batch load produces
// a single base run; each live-ingest epoch appends one small delta run
// holding only that batch (sorted in both orders), so publishing an
// epoch costs O(Δ log Δ) instead of re-merging the whole index. Deletions
// append a run carrying only a tombstone set: a tombstone suppresses every
// equal triple in strictly older runs, so a later re-add of the same
// triple is visible again. Readers iterate a k-way merge across the runs
// with tombstone suppression; to keep the run count (read amplification)
// bounded, whenever foldWidth (8) consecutive trailing runs reach the
// same level they are folded into one run of the next level — the
// classical logarithmic-method amortization, O(log n / log 8) merge work
// per inserted triple. Folded runs stay on the heap — a fold of at least
// encodeCutoff triples in the snapshot's column encoding, about 4.5 B a
// triple on LUBM, smaller ones as slices, 24 B a triple — until a store
// compaction starts over from a single base run: the snapshot it writes.
//
// A run stores its triples behind the Col abstraction (run.go), so the
// same search and merge machinery serves in-memory slices, encoded heap
// columns and the column sections of an mmap'd v2 snapshot
// (NewIndexFromBase — nothing is materialized at open).
//
// An Index and its runs are immutable: Applied returns a new Index
// sharing unchanged runs, so snapshots held by old epochs stay valid (and
// keep their exact contents) across later ingest, deletes and
// compactions.
type Index struct {
	runs  []*run // oldest → newest; immutable after construction
	width int    // trailing same-level runs fold at this width: foldWidth (tests go narrower)
	live  int    // triples visible to readers (with multiplicity)
	tombs int    // total tombstones across runs (0 ⇒ fast paths)
}

// foldWidth is the tier width: merges trigger once 8 trailing runs share
// a level, bounding read amplification at 8 runs per level.
const foldWidth = 8

// run is one immutable sorted segment of the index: the adds of one epoch
// (or of a fold of several epochs) in both orders, plus the tombstones
// that suppress equal triples in strictly older runs.
type run struct {
	cols RunCols

	dels   []Triple            // sorted SPO, deduplicated
	delSet map[Triple]struct{} // same content, for O(1) suppression checks

	level int // fold generation; `width` trailing equal levels merge
}

func (r *run) length() int { return r.cols.length() }

// newRun attaches the tombstone set to a run's columns. dels is adopted
// (not copied) and must already be sorted and deduplicated.
func newRun(cols RunCols, dels []Triple, level int) *run {
	r := &run{cols: cols, dels: dels, level: level}
	if len(dels) > 0 {
		r.delSet = make(map[Triple]struct{}, len(dels))
		for _, t := range dels {
			r.delSet[t] = struct{}{}
		}
	}
	return r
}

// NewIndex builds a single-run index over the graph's current triples.
// The index does not track later mutations of g.
func NewIndex(g *Graph) *Index { return NewIndexFromBase(NewRunCols(g.All())) }

// NewIndexFromBase builds an index whose base run is an already-sorted
// column run: SnapshotFile.Runs(), served zero-copy from the mapped file,
// or a heap NewRunCols. Nothing from the base is materialized or
// re-sorted: over a snapshot this is the O(1) open path.
func NewIndexFromBase(base RunCols) *Index {
	return &Index{
		runs:  []*run{{cols: base, level: levelFor(base.length(), foldWidth)}},
		width: foldWidth,
		live:  base.length(),
	}
}

// levelFor places a freshly built run of n triples at the level a cascade
// of width-wide folds would have produced, so a large base run is not
// swept into the first small delta fold.
func levelFor(n, width int) int {
	level := 0
	for n >= width {
		n /= width
		level++
	}
	return level
}

// Applied returns a new index with one epoch's changes applied: adds become
// a fresh delta run and dels become tombstones suppressing every currently
// visible copy of those triples. The receiver is untouched and any snapshot
// holding it keeps its exact contents. Cost is O(Δ log Δ) for the delta
// plus amortized fold work — never a function of the total index size.
// The result equals NewIndex over the surviving triples.
func (ix *Index) Applied(adds, dels []Triple) *Index {
	// Keep only tombstones that suppress something: a delete of an absent
	// triple must not grow the tombstone set (Count consults it forever).
	var kept []Triple
	killed := 0
	if len(dels) > 0 {
		kept = make([]Triple, 0, len(dels))
		seen := make(map[Triple]struct{}, len(dels))
		for _, t := range dels {
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			if n := ix.Count(t.S, t.P, t.O); n > 0 {
				killed += n
				kept = append(kept, t)
			}
		}
		slices.SortFunc(kept, OrderSPO.compare)
	}
	if len(adds) == 0 && len(kept) == 0 {
		// Nothing changes; share the run list wholesale.
		return &Index{runs: ix.runs, width: ix.width, live: ix.live, tombs: ix.tombs}
	}
	out := &Index{
		runs:  append(append(make([]*run, 0, len(ix.runs)+1), ix.runs...), nil),
		width: ix.width,
		live:  ix.live + len(adds) - killed,
	}
	// Size-based level placement, like the base run's: a bulk batch lands
	// at the level its size warrants, so it is not swept into the next
	// small-delta fold (which would re-merge it O(size) almost
	// immediately).
	out.runs[len(out.runs)-1] = newRun(newMemCols(append([]Triple(nil), adds...)), kept, levelFor(len(adds), ix.width))
	out.fold()
	out.tombs = 0
	for _, r := range out.runs {
		out.tombs += len(r.dels)
	}
	return out
}

// fold restores the two invariants that bound read amplification at
// O(width · log_width n), cascading until both hold:
//
//   - levels are non-increasing oldest → newest. A bulk batch lands at
//     the level its size warrants (see Applied), which can exceed the
//     levels of older trailing runs; those are swallowed into it, or
//     they would be buried where no trailing fold can ever reach them.
//   - at most width-1 trailing runs share a level: the width-th fold
//     merges the block into one run of the next level (the classical
//     logarithmic-method amortization).
func (ix *Index) fold() {
	for {
		n := len(ix.runs)
		if n < 2 {
			return
		}
		last := ix.runs[n-1].level
		if ix.runs[n-2].level < last {
			start := n - 1
			for start > 0 && ix.runs[start-1].level < last {
				start--
			}
			ix.foldTail(start, last)
			continue
		}
		start := n
		for start > 0 && ix.runs[start-1].level == last {
			start--
		}
		if n-start < ix.width {
			return
		}
		// last+1 guarantees strict progress even for empty (dels-only)
		// blocks, whose size-based level would not grow.
		ix.foldTail(start, last+1)
	}
}

// foldTail merges runs[start:] into one heap run, placed at minLevel or
// the level its merged size warrants, whichever is higher.
func (ix *Index) foldTail(start, minLevel int) {
	defer indexFoldSeconds.ObserveSince(time.Now())
	merged := mergeRuns(ix.runs[start:], start == 0, minLevel)
	if lf := levelFor(merged.length(), ix.width); lf > merged.level {
		merged.level = lf
	}
	ix.runs = append(ix.runs[:start:start], merged)
}

// mergeRuns folds a window of consecutive runs (oldest first) into one.
// The surviving adds of every run are gathered — window-internal
// tombstone suppression applied — and handed to the run-sort kernel:
// O(n) whatever the run count, and measured 2–4× faster than k-way
// merging the sorted columns on an 8-run fold and a 25-run compaction.
// The tombstones are retained (union) unless the window starts at the
// oldest run of the index, where they have nothing left to suppress;
// runs newer than the window keep suppressing the merged run's triples
// at read time exactly as before.
func mergeRuns(window []*run, oldest bool, level int) *run {
	total := 0
	for _, r := range window {
		total += r.length()
	}
	adds := make([]Triple, 0, total)
	// Newest run first: dead is then the union of the tombstones of the
	// runs newer than the one being read (sorted SPO, deduplicated), and
	// a run's triples stream past it in SPO order without being hashed.
	var dead []Triple
	for i := len(window) - 1; i >= 0; i-- {
		r := window[i]
		c := r.cols.col(OrderSPO).Cursor(0, r.length())
		di := 0
		for c.Valid() {
			t := c.Next()
			for di < len(dead) && OrderSPO.less(dead[di], t) {
				di++
			}
			if di == len(dead) || dead[di] != t {
				adds = append(adds, t)
			}
		}
		if len(r.dels) > 0 {
			dead = append(dead, r.dels...)
			slices.SortFunc(dead, OrderSPO.compare)
			dead = slices.Compact(dead)
		}
	}
	if oldest {
		dead = nil
	}
	return newRun(foldCols(adds), dead, level)
}

// foldCols adopts a fold's surviving triples as the merged run's columns:
// encoded (encodeCols) from encodeCutoff triples, two sorted slices
// (newMemCols) below.
func foldCols(adds []Triple) RunCols {
	if len(adds) >= encodeCutoff {
		return encodeCols(adds)
	}
	return newMemCols(adds)
}

// encodeCutoff is the fold size from which the merged run is encoded
// rather than kept as sorted slices: eight column blocks. Measured, when
// a run held three orders, with BenchmarkIndexDeltaTail (LUBM-52,
// 100-triple batches, whose folds come in ≈ 800, ≈ 6 400 and ≈ 51 200
// triples), median of six runs per cutoff on one core: encoding from
// 512 holds the tail at 13.7 B a
// triple for 123 µs a batch, from 4096 at 15.0 B for 118 µs, from 8192 at
// 23.1 B for 99 µs, and never encoding at 35.8 B for 105 µs. Encoding
// the ≈ 800-triple folds saves little and costs a fold's encode every
// eighth batch; leaving the ≈ 6 400-triple ones as slices gives back
// half the saving.
const encodeCutoff = 4096

// Len reports the number of triples visible to readers.
func (ix *Index) Len() int { return ix.live }

// Runs reports the current number of runs — the read amplification a
// pattern scan pays. 1 after a batch load or a compaction.
func (ix *Index) Runs() int { return len(ix.runs) }

// TripleBytes is the in-memory size of one encoded triple.
const TripleBytes = 12

// HeapBytes is what the index holds on the heap: 12 bytes a triple in
// each of the two sort orders of its slice runs, the payloads of its
// encoded heap runs, and the fences its encoded runs — heap or mapped —
// have built (2 bytes a triple per column).
func (ix *Index) HeapBytes() int64 {
	var n int64
	for _, r := range ix.runs {
		switch c := r.cols.(type) {
		case *memCols:
			n += int64(c.length()) * int64(NumOrders) * TripleBytes
		case *encCols:
			n += c.heapBytes()
		}
	}
	return n
}

// MappedBytes is what the column sections of the index's mapped base
// hold: file bytes, resident as far as the page cache keeps them.
func (ix *Index) MappedBytes() int64 {
	var n int64
	for _, r := range ix.runs {
		if c, ok := r.cols.(*encCols); ok {
			n += c.fileBytes()
		}
	}
	return n
}

// Tombstones reports the total tombstones retained across runs (0 after a
// compaction).
func (ix *Index) Tombstones() int { return ix.tombs }

// suppressed reports whether a triple surfaced by run ri is deleted by a
// tombstone in any newer run. Tombstones never apply to their own run:
// within one epoch deletes are processed before adds, so that epoch's adds
// are post-deletion state.
func (ix *Index) suppressed(t Triple, ri int) bool {
	for j := ri + 1; j < len(ix.runs); j++ {
		if _, dead := ix.runs[j].delSet[t]; dead {
			return true
		}
	}
	return false
}

// ForEach calls fn for every visible triple matching the pattern, where
// dict.None in a position acts as a wildcard, in the order serving the
// pattern (servingOrder; equal triples surface oldest run first).
// Iteration stops early when fn returns false.
func (ix *Index) ForEach(s, p, o dict.ID, fn func(Triple) bool) {
	if !skipScan(p, o) {
		ix.forEach(s, p, o, fn)
		return
	}
	for p := range ix.props() {
		if !ix.forEach(s, p, o, fn) {
			return
		}
	}
}

// forEach is ForEach over one exact prefix range per run; it reports
// false once fn has.
func (ix *Index) forEach(s, p, o dict.ID, fn func(Triple) bool) bool {
	if len(ix.runs) == 1 && ix.tombs == 0 {
		col, lo, hi := ix.runs[0].rangeFor(s, p, o)
		c := col.Cursor(lo, hi)
		for c.Valid() {
			if !fn(c.Next()) {
				return false
			}
		}
		return true
	}
	return ix.merge(s, p, o, fn)
}

// merge is the k-way tombstone-suppressing iterator across runs.
func (ix *Index) merge(s, p, o dict.ID, fn func(Triple) bool) bool {
	type cursor struct {
		ri int
		c  Cursor
	}
	ord, _, _ := patternPlan(s, p, o)
	cursors := make([]cursor, 0, len(ix.runs))
	for ri, r := range ix.runs {
		col, lo, hi := r.rangeFor(s, p, o)
		if lo < hi {
			cursors = append(cursors, cursor{ri: ri, c: col.Cursor(lo, hi)})
		}
	}
	for {
		best := -1
		for ci := range cursors {
			if !cursors[ci].c.Valid() {
				continue
			}
			// Strict less keeps the earliest (oldest-run) cursor on ties.
			if best < 0 || ord.less(cursors[ci].c.Peek(), cursors[best].c.Peek()) {
				best = ci
			}
		}
		if best < 0 {
			return true
		}
		t := cursors[best].c.Next()
		if ix.tombs > 0 && ix.suppressed(t, cursors[best].ri) {
			continue
		}
		if !fn(t) {
			return false
		}
	}
}

// props yields every property some run holds a triple of — tombstoned
// copies included — in ascending ID order: the next property from x on
// is the least, over the runs, of the first POS key reaching (x, 0, 0),
// one seek a run (Col.Lead).
func (ix *Index) props() iter.Seq[dict.ID] {
	return func(yield func(dict.ID) bool) {
		for x := dict.ID(1); ; x++ {
			next, found := dict.ID(0), false
			for _, r := range ix.runs {
				if p, ok := r.cols.col(OrderPOS).Lead(x); ok && (!found || p < next) {
					next, found = p, true
				}
			}
			if !found || !yield(next) || next == math.MaxUint32 {
				return
			}
			x = next
		}
	}
}

// Count returns the number of visible triples matching the pattern. Each
// bound combination is a prefix of one of the two maintained orders, or
// (skipScan) one such prefix a property, so the gross count is a sum of
// exact range widths (O(runs · log n), times the properties for a skip
// scan). Outstanding tombstones are subtracted exactly without
// enumerating the range: a stored copy of t is dead iff some newer run
// tombstones t, so the dead copies of t are precisely its copies in runs
// older than its newest tombstone — O(tombstones · runs · log n),
// independent of the match size (the query executor probes Count at
// every backtracking step, so a broad pattern must not cost O(matches)
// after a delete).
func (ix *Index) Count(s, p, o dict.ID) int {
	n := 0
	if skipScan(p, o) {
		for p := range ix.props() {
			n += ix.gross(s, p, o)
		}
	} else {
		n = ix.gross(s, p, o)
	}
	if ix.tombs == 0 || n == 0 {
		return n
	}
	// Newest tombstone run per pattern-matching triple (later runs win).
	newest := make(map[Triple]int)
	for j, r := range ix.runs {
		for _, t := range r.dels {
			if (s == dict.None || t.S == s) && (p == dict.None || t.P == p) && (o == dict.None || t.O == o) {
				newest[t] = j
			}
		}
	}
	for t, jmax := range newest {
		for i := 0; i < jmax; i++ {
			_, lo, hi := ix.runs[i].rangeFor(t.S, t.P, t.O)
			n -= hi - lo
		}
	}
	return n
}

// gross is the number of stored triples, tombstoned or not, in the
// runs' prefix ranges for a pattern patternPlan covers.
func (ix *Index) gross(s, p, o dict.ID) int {
	n := 0
	for _, r := range ix.runs {
		_, lo, hi := r.rangeFor(s, p, o)
		n += hi - lo
	}
	return n
}

// Contains reports whether the exact triple is visible: some run holds it
// and no newer run tombstones it. Runs are probed newest first, so the
// first that holds or tombstones t decides (a run's tombstones never
// apply to its own triples), with no cursor over any of them.
func (ix *Index) Contains(t Triple) bool {
	for ri := len(ix.runs) - 1; ri >= 0; ri-- {
		r := ix.runs[ri]
		if lo, hi := r.cols.col(OrderSPO).Range(t, 3); lo < hi {
			return true
		}
		if _, dead := r.delSet[t]; dead {
			return false
		}
	}
	return false
}

// skipScan reports whether a pattern has the property free and the
// object bound: no maintained order has a prefix covering it, so
// ForEach and Count serve it one property at a time (props), each
// through patternPlan's property-bound cases — in POS order.
func skipScan(p, o dict.ID) bool { return p == dict.None && o != dict.None }

// servingOrder is the order ForEach yields a pattern's triples in.
func servingOrder(s, p, o dict.ID) Order {
	if skipScan(p, o) {
		return OrderPOS
	}
	ord, _, _ := patternPlan(s, p, o)
	return ord
}

// patternPlan selects the access path for the bound positions of a
// pattern skipScan does not cover: the sort order whose prefix covers
// them, the prefix bound, and the number of key components bound (0 =
// full scan). The k-way merge preserves the returned order.
func patternPlan(s, p, o dict.ID) (Order, Triple, int) {
	switch {
	case skipScan(p, o):
		panic("store: a pattern with the property free and the object bound has no covering prefix")
	case s != dict.None && p != dict.None && o != dict.None:
		return OrderSPO, Triple{S: s, P: p, O: o}, 3
	case s != dict.None && p != dict.None:
		return OrderSPO, Triple{S: s, P: p}, 2
	case p != dict.None && o != dict.None:
		return OrderPOS, Triple{P: p, O: o}, 2
	case s != dict.None:
		return OrderSPO, Triple{S: s}, 1
	case p != dict.None:
		return OrderPOS, Triple{P: p}, 1
	default:
		return OrderSPO, Triple{}, 0
	}
}

// rangeFor selects the best order for the bound positions and returns
// that column and the half-open range of candidate triples. Every case
// is an exact prefix range: all triples in it match the pattern.
func (r *run) rangeFor(s, p, o dict.ID) (Col, int, int) {
	ord, bound, n := patternPlan(s, p, o)
	col := r.cols.col(ord)
	lo, hi := col.Range(bound, n)
	return col, lo, hi
}
