package query

import (
	"time"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// Result holds the answer table of a SELECT evaluation.
type Result struct {
	Vars []string
	Rows [][]rdf.Term
	// Truncated is true when Limit cut the enumeration: at least one more
	// distinct answer exists beyond the returned rows.
	Truncated bool
	// Explain carries the execution report when EvalOptions.Explain was
	// set (nil otherwise).
	Explain *Explain
}

// EvalOptions tune evaluation.
type EvalOptions struct {
	// Limit caps the number of rows (0 = unlimited).
	Limit int
	// Stats feeds summary cardinalities to the estimates Explain reports
	// (see PlanStats); with nil every estimate is unknown. The join order
	// does not depend on it.
	Stats PlanStats
	// Pruner, when non-nil, gates execution behind the saturated-summary
	// emptiness check: RBGP queries provably empty on the summary return
	// an empty result without touching the graph (Prop. 1).
	Pruner *Pruner
	// Explain requests an execution report in Result.Explain.
	Explain bool
}

// Eval compiles q and evaluates it against the indexed graph, returning
// the bindings of the distinguished variables (all body variables when
// none are distinguished). Evaluation accesses explicit triples only —
// evaluate against a saturated graph to obtain complete answers (§2.1).
// For repeated evaluation of one query, Compile once and call Plan.Eval.
func Eval(g *store.Graph, ix *store.Index, q *Query, opts *EvalOptions) (*Result, error) {
	var stats PlanStats
	if opts != nil {
		stats = opts.Stats
	}
	pl, err := Compile(g, q, stats)
	if err != nil {
		return nil, err
	}
	return pl.Eval(ix, opts)
}

// Ask reports whether q has at least one answer on the indexed graph.
func Ask(g *store.Graph, ix *store.Index, q *Query) (bool, error) {
	pl, err := Compile(g, q, nil)
	if err != nil {
		return false, err
	}
	return pl.Ask(ix)
}

// Eval executes the plan against an index over the plan's graph.
func (pl *Plan) Eval(ix *store.Index, opts *EvalOptions) (*Result, error) {
	defer executeSeconds.ObserveSince(time.Now())
	limit := 0
	var pruner *Pruner
	wantExplain := false
	if opts != nil {
		limit = opts.Limit
		pruner = opts.Pruner
		wantExplain = opts.Explain
	}
	res := &Result{Vars: pl.head}
	var ex *Explain
	if wantExplain {
		ex = pl.newExplain()
		res.Explain = ex
	}
	if pruner.ProvablyEmpty(pl.query) {
		if ex != nil {
			ex.Pruned = true
			ex.PrunedBy = pl.queryPrunedBy(pruner)
		}
		return res, nil
	}
	if pl.empty {
		return res, nil // a constant is absent from the graph: no answers
	}

	e := &executor{
		ix:        ix,
		terms:     pl.graph.Dict(),
		pats:      pl.pats,
		regs:      make([]dict.ID, pl.nslots),
		done:      make([]bool, len(pl.pats)),
		headSlots: pl.headSlots,
		rowbuf:    make([]dict.ID, len(pl.headSlots)),
		seen:      newTupleSet(len(pl.headSlots)),
		res:       res,
		limit:     limit,
	}
	if ex != nil {
		e.actual = make([]int64, len(pl.pats))
		e.patNanos = make([]int64, len(pl.pats))
		e.curPat = -1
	}
	e.run(len(pl.pats))
	if ex != nil {
		e.flushPat()
		for i := range ex.Steps {
			ex.Steps[i].Actual = e.actual[i]
			ex.Steps[i].Nanos = e.patNanos[i]
		}
	}
	return res, nil
}

// Ask executes the plan for emptiness only, stopping at the first match.
func (pl *Plan) Ask(ix *store.Index) (bool, error) {
	if pl.empty {
		return false, nil
	}
	e := &executor{
		ix:    ix,
		terms: pl.graph.Dict(),
		pats:  pl.pats,
		regs:  make([]dict.ID, pl.nslots),
		done:  make([]bool, len(pl.pats)),
		ask:   true,
	}
	e.run(len(pl.pats))
	return e.found, nil
}

// queryPrunedBy names the pruning summary for the explanation.
func (pl *Plan) queryPrunedBy(pr *Pruner) string { return pr.Kind() }

// executor is the per-call state of a plan run: a slot register file in
// place of the old map[string]dict.ID binding, a trail for backtracking,
// and an ID-tuple set in place of the old fmt.Sprint string dedup keys.
type executor struct {
	ix    *store.Index
	terms *dict.Dict
	pats  []planPat

	regs  []dict.ID // slot -> bound ID (dict.None = unbound)
	done  []bool
	trail []int // slots bound, in order, for undo

	headSlots []int
	rowbuf    []dict.ID
	seen      *tupleSet
	res       *Result
	limit     int

	actual []int64 // triples enumerated per pattern (nil unless explaining)

	// Per-pattern wall-clock self time (nil unless explaining): the
	// executor charges elapsed time to curPat and re-stamps on every
	// switch, so recursion depth attributes each slice to exactly one
	// pattern.
	patNanos []int64
	curPat   int
	stamp    time.Time

	ask   bool
	found bool
}

// chargePat flushes the elapsed slice to the current pattern and makes
// next the accounting target.
func (e *executor) chargePat(next int) {
	now := time.Now()
	if e.curPat >= 0 {
		e.patNanos[e.curPat] += now.Sub(e.stamp).Nanoseconds()
	}
	e.curPat, e.stamp = next, now
}

// flushPat closes the open accounting slice at the end of a run.
func (e *executor) flushPat() {
	if e.curPat >= 0 {
		e.patNanos[e.curPat] += time.Since(e.stamp).Nanoseconds()
		e.curPat = -1
	}
}

// run backtracks over the patterns. At each step it picks the remaining
// pattern with the smallest live index range under the current registers
// (the greedy selectivity rule); a tie goes to the pattern with more bound
// positions, then to the one written first. Returns false to stop the
// enumeration.
func (e *executor) run(remaining int) bool {
	if remaining == 0 {
		return e.emit()
	}
	best, bestCount := -1, 0
	for i, p := range e.pats {
		if e.done[i] {
			continue
		}
		c := e.ix.Count(p.resolve(e.regs))
		if best == -1 || c < bestCount ||
			(c == bestCount && p.constants() > e.pats[best].constants()) {
			best, bestCount = i, c
			if c == 0 {
				break // dead end: binding this pattern fails immediately
			}
		}
	}
	p := e.pats[best]
	e.done[best] = true
	mark := len(e.trail)
	keepGoing := true
	s, pr, o := p.resolve(e.regs)
	if e.patNanos != nil {
		e.chargePat(best)
	}
	e.ix.ForEach(s, pr, o, func(t store.Triple) bool {
		if e.actual != nil {
			e.actual[best]++
		}
		if e.bind(p, t) {
			keepGoing = e.run(remaining - 1)
			if e.patNanos != nil {
				// The recursive call switched accounting to a deeper
				// pattern; take it back for the rest of this scan.
				e.chargePat(best)
			}
		}
		e.unwind(mark)
		return keepGoing
	})
	e.done[best] = false
	return keepGoing
}

// bind extends the registers with the pattern's unbound slots against
// triple t, recording assignments on the trail. It reports false when t
// conflicts with a variable repeated inside the pattern; the caller
// unwinds the trail either way.
func (e *executor) bind(p planPat, t store.Triple) bool {
	return e.tryBind(p.vs, t.S) && e.tryBind(p.vp, t.P) && e.tryBind(p.vo, t.O)
}

func (e *executor) tryBind(slot int, id dict.ID) bool {
	if slot < 0 {
		return true
	}
	if cur := e.regs[slot]; cur != dict.None {
		return cur == id
	}
	e.regs[slot] = id
	e.trail = append(e.trail, slot)
	return true
}

// unwind unbinds every slot recorded after mark.
func (e *executor) unwind(mark int) {
	for _, slot := range e.trail[mark:] {
		e.regs[slot] = dict.None
	}
	e.trail = e.trail[:mark]
}

// emit projects the registers onto the head slots, deduplicates, and
// appends a decoded row. Returns false to stop the enumeration (ASK
// satisfied, or the row limit was reached with more answers pending).
func (e *executor) emit() bool {
	if e.ask {
		e.found = true
		return false
	}
	for i, s := range e.headSlots {
		e.rowbuf[i] = e.regs[s]
	}
	if !e.seen.add(e.rowbuf) {
		return true
	}
	if e.limit > 0 && len(e.res.Rows) >= e.limit {
		e.res.Truncated = true
		return false
	}
	row := make([]rdf.Term, len(e.rowbuf))
	for i, id := range e.rowbuf {
		row[i] = e.terms.Term(id)
	}
	e.res.Rows = append(e.res.Rows, row)
	return true
}

// tupleSet is a hash set of fixed-width dict.ID tuples, stored in one flat
// backing slice — the allocation-free replacement for string dedup keys.
//
// Offsets are native ints: the previous int32 offsets silently truncated
// once flat grew past 2^31 IDs, corrupting dedup on huge result sets.
// origin is a synthetic base added to every stored offset (zero in real
// use); tests set it near 2^31 to exercise the offset arithmetic across
// the old overflow boundary without allocating gigabytes.
type tupleSet struct {
	width  int
	flat   []dict.ID
	idx    map[uint64][]int // FNV-1a hash -> origin + tuple start offset in flat
	origin int
	any    bool // width-0 case: one empty tuple at most
}

func newTupleSet(width int) *tupleSet {
	return &tupleSet{width: width, idx: make(map[uint64][]int)}
}

// add inserts the tuple, reporting true when it was not already present.
// row is copied into the set's backing store; the caller may reuse it.
func (ts *tupleSet) add(row []dict.ID) bool {
	if ts.width == 0 {
		if ts.any {
			return false
		}
		ts.any = true
		return true
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range row {
		v := uint32(id)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(v >> shift))
			h *= prime64
		}
	}
	for _, start := range ts.idx[h] {
		match := true
		for i, id := range row {
			if ts.flat[start-ts.origin+i] != id {
				match = false
				break
			}
		}
		if match {
			return false
		}
	}
	start := ts.origin + len(ts.flat)
	ts.flat = append(ts.flat, row...)
	ts.idx[h] = append(ts.idx[h], start)
	return true
}
