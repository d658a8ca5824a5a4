package store

import (
	"slices"
	"time"

	"rdfsum/internal/dict"
)

// Index provides ordered access paths over all three components of a
// graph, supporting triple-pattern matching with any combination of bound
// positions. It materializes three sort orders — SPO, POS and OSP — the
// classical access-path set for triple stores.
//
// Internally the index is tiered, LSM-style: the triples live in a
// sequence of immutable sorted runs (oldest first). A batch load produces
// a single base run; each live-ingest epoch appends one small delta run
// holding only that batch (sorted in the three orders), so publishing an
// epoch costs O(Δ log Δ) instead of re-merging the whole index. Deletions
// append a run carrying only a tombstone set: a tombstone suppresses every
// equal triple in strictly older runs, so a later re-add of the same
// triple is visible again. Readers iterate a k-way merge across the runs
// with tombstone suppression; to keep the run count (read amplification)
// bounded, whenever `fanout` consecutive trailing runs reach the same
// level they are folded into one run of the next level — the classical
// logarithmic-method amortization, O(log n / log fanout) merge work per
// inserted triple. A store compaction starts over from a single base run:
// the snapshot it writes.
//
// A run stores its triples behind the Col abstraction (run.go), so the
// same search and merge machinery serves in-memory slices, the column
// sections of an mmap'd v2 snapshot (NewIndexFromBase — nothing is
// materialized at open), and folded runs spilled to on-disk column files
// (SpillConfig) that bound resident memory under sustained ingest.
//
// An Index and its runs are immutable: Applied returns a new Index
// sharing unchanged runs, so snapshots held by old epochs stay valid (and
// keep their exact contents) across later ingest, deletes and
// compactions.
type Index struct {
	runs   []*run // oldest → newest; immutable after construction
	fanout int    // trailing same-level runs folded at this width
	live   int    // triples visible to readers (with multiplicity)
	tombs  int    // total tombstones across runs (0 ⇒ fast paths)
	spill  *SpillConfig
}

// DefaultIndexFanout is the tier width used when no explicit fanout is
// configured: merges trigger once 8 trailing runs share a level, bounding
// read amplification at 8 runs per level.
const DefaultIndexFanout = 8

// run is one immutable sorted segment of the index: the adds of one epoch
// (or of a fold of several epochs) in all three orders, plus the tombstones
// that suppress equal triples in strictly older runs.
type run struct {
	cols RunCols

	dels   []Triple            // sorted SPO, deduplicated
	delSet map[Triple]struct{} // same content, for O(1) suppression checks

	level int    // fold generation; `fanout` trailing equal levels merge
	file  string // on-disk spill file serving cols, "" when in memory
}

func (r *run) length() int { return r.cols.length() }

// newMemRun sorts adds into the three orders and attaches the tombstone
// set. adds and dels are adopted (not copied); dels must already be
// sorted and deduplicated.
func newMemRun(adds, dels []Triple, level int) *run {
	r := &run{cols: newMemCols(adds), dels: dels, level: level}
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
func NewIndex(g *Graph) *Index { return NewIndexWithOptions(g, IndexOptions{}) }

// IndexOptions configures index construction.
type IndexOptions struct {
	// Fanout is the tier width; 0 or 1 selects DefaultIndexFanout.
	// Smaller fanouts fold delta runs sooner (fewer runs for readers to
	// merge, more write amplification); larger ones favor ingest
	// throughput.
	Fanout int
	// Spill, when non-nil, lets folded runs move to on-disk column files.
	Spill *SpillConfig
}

func (o IndexOptions) fanout() int {
	if o.Fanout <= 1 {
		return DefaultIndexFanout
	}
	return o.Fanout
}

// NewIndexWithOptions builds a single-run index over the graph's current
// triples with explicit options.
func NewIndexWithOptions(g *Graph, opts IndexOptions) *Index {
	return NewIndexFromBase(NewRunCols(g.All()), opts)
}

// NewIndexFromBase builds an index whose base run is an already-sorted
// column run: SnapshotFile.Runs(), served zero-copy from the mapped file,
// or a heap NewRunCols. Nothing from the base is materialized or
// re-sorted: over a snapshot this is the O(1) open path. A heap base
// large enough spills like any folded run.
func NewIndexFromBase(base RunCols, opts IndexOptions) *Index {
	ix := &Index{fanout: opts.fanout(), live: base.length(), spill: opts.Spill}
	ix.runs = []*run{ix.maybeSpill(&run{cols: base, level: levelFor(base.length(), ix.fanout)})}
	return ix
}

// levelFor places a freshly built run of n triples at the level a cascade
// of fanout-width folds would have produced, so a large base run is not
// swept into the first small delta fold.
func levelFor(n, fanout int) int {
	level := 0
	for n >= fanout {
		n /= fanout
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
		return &Index{runs: ix.runs, fanout: ix.fanout, live: ix.live, tombs: ix.tombs, spill: ix.spill}
	}
	out := &Index{
		runs:   append(append(make([]*run, 0, len(ix.runs)+1), ix.runs...), nil),
		fanout: ix.fanout,
		live:   ix.live + len(adds) - killed,
		spill:  ix.spill,
	}
	// Size-based level placement, like the base run's: a bulk batch lands
	// at the level its size warrants, so it is not swept into the next
	// small-delta fold (which would re-merge it O(size) almost
	// immediately).
	out.runs[len(out.runs)-1] = newMemRun(append([]Triple(nil), adds...), kept, levelFor(len(adds), ix.fanout))
	out.fold()
	out.tombs = 0
	for _, r := range out.runs {
		out.tombs += len(r.dels)
	}
	return out
}

// fold restores the two invariants that bound read amplification at
// O(fanout · log_fanout n), cascading until both hold:
//
//   - levels are non-increasing oldest → newest. A bulk batch lands at
//     the level its size warrants (see Applied), which can exceed the
//     levels of older trailing runs; those are swallowed into it, or
//     they would be buried where no trailing fold can ever reach them.
//   - at most fanout-1 trailing runs share a level: the fanout-th fold
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
		if n-start < ix.fanout {
			return
		}
		// last+1 guarantees strict progress even for empty (dels-only)
		// blocks, whose size-based level would not grow.
		ix.foldTail(start, last+1)
	}
}

// foldTail merges runs[start:] into one run, placed at minLevel or the
// level its merged size warrants, whichever is higher. The merged run
// spills to disk when configured; source runs' spill files, now
// superseded, are unlinked (epochs still holding them keep reading the
// mapping — on unix an unlinked mapped file stays valid).
func (ix *Index) foldTail(start, minLevel int) {
	defer indexFoldSeconds.ObserveSince(time.Now())
	window := ix.runs[start:]
	merged := mergeRuns(window, start == 0, minLevel)
	if lf := levelFor(merged.length(), ix.fanout); lf > merged.level {
		merged.level = lf
	}
	merged = ix.maybeSpill(merged)
	for _, r := range window {
		r.unlinkSpill()
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
	return newMemRun(adds, dead, level)
}

// Len reports the number of triples visible to readers.
func (ix *Index) Len() int { return ix.live }

// Runs reports the current number of runs — the read amplification a
// pattern scan pays. 1 after a batch load or a compaction.
func (ix *Index) Runs() int { return len(ix.runs) }

// SpilledRuns reports how many runs are currently served from on-disk
// spill files (the snapshot base run, if any, is not counted).
func (ix *Index) SpilledRuns() int {
	n := 0
	for _, r := range ix.runs {
		if r.file != "" {
			n++
		}
	}
	return n
}

// HeapBytes is what the index holds on the heap: 12 bytes a triple in
// each of the three sort orders of its heap runs, and the fences its
// mapped and spilled runs have built (2 bytes a triple per column).
func (ix *Index) HeapBytes() int64 {
	var n int64
	for _, r := range ix.runs {
		switch c := r.cols.(type) {
		case *memCols:
			n += int64(c.length()) * int64(NumOrders) * TripleBytes
		case *mappedCols:
			n += c.fenceBytes()
		}
	}
	return n
}

// MappedBytes is what the column sections of the index's mapped and
// spilled runs hold: file bytes, resident as far as the page cache keeps
// them.
func (ix *Index) MappedBytes() int64 {
	var n int64
	for _, r := range ix.runs {
		if c, ok := r.cols.(*mappedCols); ok {
			n += c.bytes()
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
// dict.None in a position acts as a wildcard, in the sort order serving
// the pattern (equal triples surface oldest run first). Iteration stops
// early when fn returns false.
func (ix *Index) ForEach(s, p, o dict.ID, fn func(Triple) bool) {
	if len(ix.runs) == 1 && ix.tombs == 0 {
		col, lo, hi := ix.runs[0].rangeFor(s, p, o)
		c := col.Cursor(lo, hi)
		for c.Valid() {
			if !fn(c.Next()) {
				return
			}
		}
		return
	}
	ix.merge(s, p, o, fn)
}

// merge is the k-way tombstone-suppressing iterator across runs.
func (ix *Index) merge(s, p, o dict.ID, fn func(Triple) bool) {
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
			return
		}
		t := cursors[best].c.Next()
		if ix.tombs > 0 && ix.suppressed(t, cursors[best].ri) {
			continue
		}
		if !fn(t) {
			return
		}
	}
}

// Count returns the number of visible triples matching the pattern. Every
// bound combination is a prefix of one of the three maintained orders, so
// the gross count is a sum of exact range widths (O(runs · log n)).
// Outstanding tombstones are subtracted exactly without enumerating the
// range: a stored copy of t is dead iff some newer run tombstones t, so
// the dead copies of t are precisely its copies in runs older than its
// newest tombstone — O(tombstones · runs · log n), independent of the
// match size (the query executor probes Count at every backtracking
// step, so a broad pattern must not cost O(matches) after a delete).
func (ix *Index) Count(s, p, o dict.ID) int {
	n := 0
	for _, r := range ix.runs {
		_, lo, hi := r.rangeFor(s, p, o)
		n += hi - lo
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

// Contains reports whether the exact triple is visible.
func (ix *Index) Contains(t Triple) bool {
	found := false
	ix.ForEach(t.S, t.P, t.O, func(Triple) bool { found = true; return false })
	return found
}

// patternPlan selects the access path for the bound positions: the sort
// order whose prefix covers them, the prefix bound, and the number of
// key components bound (0 = full scan). The k-way merge preserves the
// returned order.
func patternPlan(s, p, o dict.ID) (Order, Triple, int) {
	switch {
	case s != dict.None && p != dict.None && o != dict.None:
		return OrderSPO, Triple{S: s, P: p, O: o}, 3
	case s != dict.None && p != dict.None:
		return OrderSPO, Triple{S: s, P: p}, 2
	case s != dict.None && o != dict.None:
		return OrderOSP, Triple{S: s, O: o}, 2
	case p != dict.None && o != dict.None:
		return OrderPOS, Triple{P: p, O: o}, 2
	case s != dict.None:
		return OrderSPO, Triple{S: s}, 1
	case p != dict.None:
		return OrderPOS, Triple{P: p}, 1
	case o != dict.None:
		return OrderOSP, Triple{O: o}, 1
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
