package query

import (
	"math"
	"sort"

	"rdfsum/internal/core"
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// Summary-based conjunctive-query cardinality estimation, after
// Stefanoni/Motik/Kostylev ("Estimating the Cardinality of Conjunctive
// Queries over RDF Data Using Graph Summarisation"): the query's basic
// graph pattern is matched against the summary graph, and each embedding
// of patterns into summary edges contributes the product of the edges'
// multiplicities, scaled down for every constraint the embedding must
// satisfy beyond "some triple maps onto this edge":
//
//   - a constant subject/object divides by the edge's distinct-subject /
//     distinct-object count (the expected per-endpoint fan-out, given the
//     constant participates in the edge at all);
//   - a repeated variable divides by the extent size of the summary node
//     it is bound to (under the possible-worlds uniformity assumption, two
//     independent edges incident to an extent of N nodes meet at a shared
//     node with probability 1/N).
//
// The estimate of a pattern set is the sum over all consistent embeddings.
// On a single pattern with a bound property and free endpoints this
// collapses to the exact triple count (Σ Count over the property's summary
// edges); joins and bound endpoints make it an estimate.

// estBudget caps the candidate-edge visits a single estimate may spend
// before giving up (estimateSet then reports "unknown"). Summaries are
// small, so real queries stay far below this; the cap guards adversarial
// variable-property queries against huge typed summaries.
const estBudget = 1 << 17

// estimator holds the per-plan estimation state: candidate summary edges
// per pattern (pre-filtered by the pattern's constants) and the constant
// selectivity already folded into each candidate's contribution.
type estimator struct {
	w       *core.Weights
	nslots  int
	pats    []planPat
	cand    [][]core.EdgeStat
	contrib [][]float64
}

// newEstimator builds the estimation state for a compiled pattern list, or
// returns nil — the estimator to which every estimate is unknown — when
// stats is nil or carries no per-edge statistics (hand-assembled Weights).
func newEstimator(g *store.Graph, pats []planPat, nslots int, stats *core.Weights) *estimator {
	if stats == nil || !stats.HasEdgeStats() {
		return nil
	}
	e := &estimator{w: stats, nslots: nslots, pats: pats}
	e.cand = make([][]core.EdgeStat, len(pats))
	e.contrib = make([][]float64, len(pats))
	typeID := g.Vocab().Type
	for i, p := range pats {
		e.buildCandidates(i, p, typeID)
	}
	return e
}

// buildCandidates selects the summary edges pattern p can map onto and
// precomputes each one's contribution with the bound-endpoint scaling
// folded in. The pattern's constants are IDs of the queried graph; each
// component of the summary reads a constant subject or object its own
// way — a data edge's ends as data nodes (through the quotient map), a τ
// edge's class and a schema edge's ends as terms the summary keeps — and
// a constant the component does not hold matches none of its edges.
func (e *estimator) buildCandidates(i int, p planPat, typeID dict.ID) {
	type part struct {
		edges        []core.EdgeStat
		sNode, oNode bool // the component's subjects/objects are data nodes
	}
	data := func(p dict.ID) part { return part{e.w.DataEdges(p), true, true} }
	types := func(c dict.ID) part { return part{e.w.TypeEdges(c), true, false} }
	schema := func(p dict.ID) part { return part{e.w.SchemaEdges(p), false, false} }
	var parts []part
	switch {
	case p.vp >= 0:
		// Variable property: any edge of any component qualifies (the
		// triple index enumerates data, τ and schema triples alike).
		parts = []part{data(dict.None), types(dict.None), schema(dict.None)}
	case p.p == typeID:
		parts = []part{types(p.o)} // dict.None, every τ edge, for a variable class
	default:
		parts = []part{data(p.p), schema(p.p)}
	}
	for _, pt := range parts {
		sRep, okS := e.end(p.s, p.vs, pt.sNode)
		oRep, okO := e.end(p.o, p.vo, pt.oNode)
		if !okS || !okO {
			continue
		}
		for _, ed := range pt.edges {
			if sRep != dict.None && ed.Edge.S != sRep {
				continue
			}
			if oRep != dict.None && ed.Edge.O != oRep {
				continue
			}
			c := float64(ed.Count)
			if sRep != dict.None && ed.DistinctS > 1 {
				c /= float64(ed.DistinctS)
			}
			if oRep != dict.None && ed.DistinctO > 1 {
				c /= float64(ed.DistinctO)
			}
			e.cand[i] = append(e.cand[i], ed)
			e.contrib[i] = append(e.contrib[i], c)
		}
	}
}

// end translates a pattern's subject or object — constant c, or the
// variable in slot v — into the summary's IDs, reading the constant as a
// data node or as a kept term: dict.None for a variable, false for a
// constant the summary does not hold in that reading.
func (e *estimator) end(c dict.ID, v int, node bool) (dict.ID, bool) {
	switch {
	case v >= 0:
		return dict.None, true
	case node:
		return e.w.Node(c)
	default:
		return e.w.Term(c)
	}
}

// estimateSet returns the expected number of embeddings of the selected
// patterns (by index into the plan's pattern list) into the graph, or -1
// ("unknown") when e is nil or the enumeration budget was exhausted.
func (e *estimator) estimateSet(sel []int) float64 {
	if e == nil {
		return -1
	}
	if len(sel) == 0 {
		return 1
	}
	// Visit patterns with few candidates first: dead branches prune early
	// and the budget stretches further on the same query.
	ord := append(make([]int, 0, len(sel)), sel...)
	sort.Slice(ord, func(a, b int) bool {
		if la, lb := len(e.cand[ord[a]]), len(e.cand[ord[b]]); la != lb {
			return la < lb
		}
		return ord[a] < ord[b]
	})
	asg := make([]dict.ID, e.nslots)
	for i := range asg {
		asg[i] = dict.None
	}
	var trail []int
	budget := estBudget
	exceeded := false
	var rec func(k int, r float64) float64
	rec = func(k int, r float64) float64 {
		if k == len(ord) {
			return r
		}
		p := e.pats[ord[k]]
		total := 0.0
		for ci, ed := range e.cand[ord[k]] {
			budget--
			if budget < 0 {
				exceeded = true
				return total
			}
			f := r * e.contrib[ord[k]][ci]
			mark := len(trail)
			ok := true
			if p.vs >= 0 {
				f, ok = e.take(&trail, asg, p.vs, ed.Edge.S, f)
			}
			if ok && p.vp >= 0 {
				f, ok = e.take(&trail, asg, p.vp, ed.Edge.P, f)
			}
			if ok && p.vo >= 0 {
				f, ok = e.take(&trail, asg, p.vo, ed.Edge.O, f)
			}
			if ok {
				total += rec(k+1, f)
			}
			for _, s := range trail[mark:] {
				asg[s] = dict.None
			}
			trail = trail[:mark]
			if exceeded {
				return total
			}
		}
		return total
	}
	got := rec(0, 1)
	if exceeded {
		return -1
	}
	return got
}

// take extends the variable assignment with slot → node. A slot already
// bound must agree on the summary node and divides the contribution by
// the node's extent (the chance two independent edges meet at one of its
// members); a fresh binding is free.
func (e *estimator) take(trail *[]int, asg []dict.ID, slot int, node dict.ID, f float64) (float64, bool) {
	if cur := asg[slot]; cur != dict.None {
		if cur != node {
			return 0, false
		}
		if n := e.w.ExtentSize(node); n > 1 {
			f /= float64(n)
		}
		return f, true
	}
	asg[slot] = node
	*trail = append(*trail, slot)
	return f, true
}

// estRound converts a raw estimate to the int64 Explain form: -1 stays
// "unknown", fractional positives round up (an estimate of 0.2 rows still
// predicts "about one row, maybe none", not an exact zero).
func estRound(v float64) int64 {
	if v < 0 {
		return estUnknown
	}
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(math.Ceil(v))
}
