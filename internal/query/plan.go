package query

import (
	"fmt"
	"strings"
	"time"

	"rdfsum/internal/core"
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// PlanStats supplies summary-level cardinality statistics to the planner:
// the quotient-map cardinalities of a summary of the queried graph (the
// paper's "support for query optimization" use case), produced by
// (*core.Summary).ComputeWeights. With the per-edge statistics present the
// planner estimates whole conjunctive queries over the summary (see
// estimate.go). The estimates are reported (Explain, the slow-query log)
// and never steer execution: the executor orders joins by live index
// counts.
type PlanStats = *core.Weights

// planPat is a triple pattern compiled to integer form: constants are
// dictionary IDs (dict.None marks a variable position) and variables are
// dense slot indices into the register file (-1 marks a constant position).
type planPat struct {
	s, p, o    dict.ID
	vs, vp, vo int
}

// resolve substitutes the register file into the pattern, yielding the
// concrete lookup IDs (dict.None = wildcard: the slot is still unbound).
func (p planPat) resolve(regs []dict.ID) (s, pr, o dict.ID) {
	s, pr, o = p.s, p.p, p.o
	if p.vs >= 0 {
		s = regs[p.vs]
	}
	if p.vp >= 0 {
		pr = regs[p.vp]
	}
	if p.vo >= 0 {
		o = regs[p.vo]
	}
	return s, pr, o
}

// constants counts the bound positions of the pattern, the executor's
// tie-break between equal live counts.
func (p planPat) constants() int {
	n := 0
	if p.vs < 0 {
		n++
	}
	if p.vp < 0 {
		n++
	}
	if p.vo < 0 {
		n++
	}
	return n
}

// estUnknown marks a pattern the planner has no statistic for.
const estUnknown = int64(-1)

// Plan is a query compiled against one graph's dictionary: an integer-slot
// program ready for repeated execution. A Plan is immutable after Compile
// and safe for concurrent Eval/Ask calls (execution state lives per call).
type Plan struct {
	query *Query
	graph *store.Graph

	head      []string // projected variable names
	headSlots []int    // register slot of each head variable
	nslots    int

	pats []planPat // in the query's original pattern order
	est  []int64   // cardinality estimate per pattern (estUnknown = none)

	queryEst  int64 // whole-query cardinality estimate (estUnknown = none)
	usedStats bool
	empty     bool // a constant is absent from the dictionary: zero answers
}

// Compile validates q and compiles it against g's dictionary into a Plan.
// When stats carries per-edge statistics (ComputeWeights output),
// per-pattern and whole-query cardinalities are estimated by matching the
// BGP against the summary graph (see estimate.go); without usable stats
// every estimate is unknown. Either way the plan executes the same: the
// join order is picked step by step from live index counts (see
// executor.run).
func Compile(g *store.Graph, q *Query, stats PlanStats) (*Plan, error) {
	defer compileSeconds.ObserveSince(time.Now())
	if err := q.Validate(); err != nil {
		return nil, err
	}
	pl := &Plan{query: q, graph: g}

	slotOf := make(map[string]int)
	slot := func(name string) int {
		if s, ok := slotOf[name]; ok {
			return s
		}
		s := pl.nslots
		slotOf[name] = s
		pl.nslots++
		return s
	}
	encode := func(t Term) (id dict.ID, vslot int) {
		if t.IsVar {
			return dict.None, slot(t.Var)
		}
		id, ok := g.Dict().Lookup(t.Value)
		if !ok {
			pl.empty = true
		}
		return id, -1
	}

	pl.pats = make([]planPat, len(q.Patterns))
	for i, p := range q.Patterns {
		e := planPat{}
		e.s, e.vs = encode(p.S)
		e.p, e.vp = encode(p.P)
		e.o, e.vo = encode(p.O)
		pl.pats[i] = e
	}

	pl.head = q.Distinguished
	if len(pl.head) == 0 {
		pl.head = q.Vars()
	}
	pl.headSlots = make([]int, len(pl.head))
	for i, v := range pl.head {
		pl.headSlots[i] = slot(v) // Validate guarantees v occurs in the body
	}

	pl.est = make([]int64, len(pl.pats))
	var e *estimator
	if pl.empty {
		// A constant is absent from the dictionary: exactly zero answers.
		pl.queryEst = 0
	} else {
		e = newEstimator(g, pl.pats, pl.nslots, stats)
		all := make([]int, len(pl.pats))
		for i := range pl.pats {
			all[i] = i
			pl.est[i] = estRound(e.estimateSet([]int{i}))
		}
		pl.queryEst = estRound(e.estimateSet(all))
	}
	pl.usedStats = e != nil
	return pl, nil
}

// Explain reports how a query was (or would be) executed: the per-pattern
// estimated cardinalities, the actual number of triples enumerated per
// pattern during execution, and whether the summary-pruning gate
// short-circuited the evaluation.
type Explain struct {
	// UsedStats is true when the estimates came from summary statistics.
	UsedStats bool `json:"used_stats"`
	// Pruned is true when the saturated-summary gate proved the query
	// empty and execution was skipped entirely.
	Pruned bool `json:"pruned"`
	// PrunedBy names the summary kind that pruned the query.
	PrunedBy string `json:"pruned_by,omitempty"`
	// QueryEst is the whole-query cardinality estimate from matching the
	// BGP against the summary graph (-1 when unknown, e.g. stats-free).
	QueryEst int64 `json:"query_est"`
	// Steps lists the patterns in query source order.
	Steps []ExplainStep `json:"steps"`
}

// ExplainStep is one pattern of the plan.
type ExplainStep struct {
	// Pattern is the triple pattern in SPARQL syntax.
	Pattern string `json:"pattern"`
	// Index is the pattern's position in the original query body.
	Index int `json:"index"`
	// Est is the planner's cardinality estimate (-1 when unknown).
	Est int64 `json:"est"`
	// Actual is the number of triples enumerated for this pattern during
	// execution (0 when execution was pruned or never reached it).
	Actual int64 `json:"actual"`
	// Nanos is the wall-clock self time spent enumerating and binding
	// this pattern, in nanoseconds (recursive work under deeper patterns
	// is charged to those patterns, not this one).
	Nanos int64 `json:"nanos"`
}

// newExplain renders the static half of the explanation; Actuals are
// filled in by the executor.
func (pl *Plan) newExplain() *Explain {
	ex := &Explain{UsedStats: pl.usedStats, QueryEst: pl.queryEst, Steps: make([]ExplainStep, len(pl.pats))}
	for i := range pl.pats {
		ex.Steps[i] = ExplainStep{
			Pattern: pl.query.Patterns[i].String(),
			Index:   i,
			Est:     pl.est[i],
		}
	}
	return ex
}

// String renders the plan compactly, e.g. for CLI -explain output.
func (ex *Explain) String() string {
	if ex.Pruned {
		return fmt.Sprintf("pruned by %s summary: provably empty\n", ex.PrunedBy)
	}
	var b strings.Builder
	if ex.QueryEst >= 0 {
		fmt.Fprintf(&b, "  query est=%d\n", ex.QueryEst)
	}
	for pos, st := range ex.Steps {
		est := "?"
		if st.Est >= 0 {
			est = fmt.Sprint(st.Est)
		}
		fmt.Fprintf(&b, "  %d. %s  est=%s actual=%d time=%s\n",
			pos, st.Pattern, est, st.Actual, time.Duration(st.Nanos))
	}
	return b.String()
}
