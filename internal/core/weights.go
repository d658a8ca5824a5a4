package core

import (
	"cmp"
	"slices"

	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// EdgeStat carries the multiplicity statistics of one summary edge — the
// per-edge refinement of EdgeCard/TypeCard that cardinality estimation
// needs (Stefanoni/Motik/Kostylev's possible-worlds model works from
// exactly these three numbers per summary edge).
type EdgeStat struct {
	// Edge is the summary-level triple: subject/object are summary-node
	// representatives (or the concrete class for a τ edge, or the verbatim
	// schema nodes for a schema edge).
	Edge store.Triple
	// Count is the number of input triples mapped onto this edge.
	Count int
	// DistinctS and DistinctO count the distinct input subjects and
	// objects among those triples, so a bound endpoint can scale the
	// estimate down to the edge's per-endpoint fan-out.
	DistinctS int
	DistinctO int
}

// Weights annotate a summary with the cardinalities of the quotient map —
// the statistics a query optimizer reads off a structural index (the
// paper's "support for query optimization" use case):
//
//   - NodeCard[n]:  how many input data nodes summary node n represents;
//   - EdgeCard[e]:  how many input data triples map onto summary edge e;
//   - TypeCard[e]:  how many input τ triples map onto summary type edge e.
//
// Every input data triple maps onto exactly one summary edge, so EdgeCard
// sums to |D_G| and per-property sums equal the property's frequency in G.
//
// ComputeWeights additionally records per-edge distinct-endpoint counts
// (EdgeStat) and a copy of the quotient map, which together let the query
// planner estimate whole conjunctive queries over the summary; a Weights
// assembled by hand carries only the coarse maps, reports
// HasEdgeStats() == false and is no statistic to the planner.
type Weights struct {
	NodeCard map[dict.ID]int
	EdgeCard map[store.Triple]int
	TypeCard map[store.Triple]int

	// propCount holds the per-property sums of EdgeCard (PropertyCount);
	// ComputeWeights fills it.
	propCount map[dict.ID]int

	// nodeOf is a copy of the summary's quotient map, taken at
	// ComputeWeights time so the statistic stays immutable while an
	// incremental builder keeps mutating the summary's own map. Nodes
	// absent from it (classes, properties, schema nodes) represent
	// themselves — see Rep.
	nodeOf map[dict.ID]dict.ID

	// Per-edge statistics, grouped for the estimator's candidate lookups:
	// data edges by property, τ edges by class, schema triples (copied
	// verbatim into every summary, hence exact unit edges) by property.
	// The all* slices hold the same stats ungrouped, in deterministic
	// (P, S, O) order, for wildcard-property lookups.
	dataEdges   map[dict.ID][]EdgeStat
	typeEdges   map[dict.ID][]EdgeStat
	schemaEdges map[dict.ID][]EdgeStat
	allData     []EdgeStat
	allTypes    []EdgeStat
	allSchema   []EdgeStat
}

// edgeAcc accumulates one summary edge's statistics during the input pass.
type edgeAcc struct {
	count int
	subj  map[dict.ID]struct{}
	obj   map[dict.ID]struct{}
}

func accumulate(m map[store.Triple]*edgeAcc, e store.Triple, s, o dict.ID) {
	a := m[e]
	if a == nil {
		a = &edgeAcc{subj: make(map[dict.ID]struct{}), obj: make(map[dict.ID]struct{})}
		m[e] = a
	}
	a.count++
	a.subj[s] = struct{}{}
	a.obj[o] = struct{}{}
}

// flatten turns the accumulator into sorted EdgeStats plus a per-key group
// index (keyed by keyOf, e.g. the property or the class).
func flatten(m map[store.Triple]*edgeAcc, keyOf func(store.Triple) dict.ID) ([]EdgeStat, map[dict.ID][]EdgeStat) {
	all := make([]EdgeStat, 0, len(m))
	for e, a := range m {
		all = append(all, EdgeStat{Edge: e, Count: a.count, DistinctS: len(a.subj), DistinctO: len(a.obj)})
	}
	// Deterministic order: map iteration would otherwise reorder the
	// estimator's float sums (and hence tie-breaking) run to run.
	slices.SortFunc(all, func(x, y EdgeStat) int {
		a, b := x.Edge, y.Edge
		return cmp.Or(cmp.Compare(a.P, b.P), cmp.Compare(a.S, b.S), cmp.Compare(a.O, b.O))
	})
	byKey := make(map[dict.ID][]EdgeStat)
	for _, st := range all {
		k := keyOf(st.Edge)
		byKey[k] = append(byKey[k], st)
	}
	return all, byKey
}

// ComputeWeights derives the cardinalities of s's quotient map by one pass
// over the input graph, including the per-edge distinct-endpoint counts
// the query planner's cardinality estimator consumes.
func (s *Summary) ComputeWeights() *Weights {
	w := &Weights{
		NodeCard: make(map[dict.ID]int, len(s.NodeOf)),
		EdgeCard: make(map[store.Triple]int, len(s.Graph.Data)),
		TypeCard: make(map[store.Triple]int, len(s.Graph.Types)),
		nodeOf:   make(map[dict.ID]dict.ID, len(s.NodeOf)),
	}
	for n, rep := range s.NodeOf {
		w.NodeCard[rep]++
		w.nodeOf[n] = rep
	}
	s.Input.Ensure()
	v := s.Input.Vocab()
	dataAcc := make(map[store.Triple]*edgeAcc)
	typeAcc := make(map[store.Triple]*edgeAcc)
	schemaAcc := make(map[store.Triple]*edgeAcc)
	for _, t := range s.Input.Data {
		e := store.Triple{S: s.NodeOf[t.S], P: t.P, O: s.NodeOf[t.O]}
		w.EdgeCard[e]++
		accumulate(dataAcc, e, t.S, t.O)
	}
	for _, t := range s.Input.Types {
		e := store.Triple{S: s.NodeOf[t.S], P: v.Type, O: t.O}
		w.TypeCard[e]++
		accumulate(typeAcc, e, t.S, t.O)
	}
	// Schema triples are copied verbatim into every summary kind, so each
	// is an exact unit edge whose endpoints represent themselves.
	for _, t := range s.Input.Schema {
		accumulate(schemaAcc, t, t.S, t.O)
	}
	w.allData, w.dataEdges = flatten(dataAcc, func(e store.Triple) dict.ID { return e.P })
	w.allTypes, w.typeEdges = flatten(typeAcc, func(e store.Triple) dict.ID { return e.O })
	w.allSchema, w.schemaEdges = flatten(schemaAcc, func(e store.Triple) dict.ID { return e.P })
	w.propCount = make(map[dict.ID]int)
	for e, c := range w.EdgeCard {
		w.propCount[e.P] += c
	}
	return w
}

// HasEdgeStats reports whether the per-edge distinct-endpoint statistics
// are present (true for ComputeWeights output, false for a Weights
// assembled by hand).
func (w *Weights) HasEdgeStats() bool { return w.dataEdges != nil }

// Rep maps an input node to its summary representative. Nodes outside the
// quotient map — classes, properties and other schema-level nodes, which
// every summary kind carries through verbatim — represent themselves.
func (w *Weights) Rep(n dict.ID) dict.ID {
	if rep, ok := w.nodeOf[n]; ok {
		return rep
	}
	return n
}

// ExtentSize returns the number of input nodes a summary node represents
// (≥ 1; self-representing nodes have extent 1).
func (w *Weights) ExtentSize(rep dict.ID) int {
	if c, ok := w.NodeCard[rep]; ok && c > 0 {
		return c
	}
	return 1
}

// DataEdges returns the statistics of the summary's data edges with
// property p, or every data edge when p is dict.None.
func (w *Weights) DataEdges(p dict.ID) []EdgeStat {
	if p == dict.None {
		return w.allData
	}
	return w.dataEdges[p]
}

// TypeEdges returns the statistics of the summary's τ edges with class c,
// or every τ edge when c is dict.None.
func (w *Weights) TypeEdges(c dict.ID) []EdgeStat {
	if c == dict.None {
		return w.allTypes
	}
	return w.typeEdges[c]
}

// SchemaEdges returns the statistics of the schema triples with property
// p (subClassOf, subPropertyOf, domain, range — exact unit edges), or all
// of them when p is dict.None.
func (w *Weights) SchemaEdges(p dict.ID) []EdgeStat {
	if p == dict.None {
		return w.allSchema
	}
	return w.schemaEdges[p]
}

// PropertyCount returns the number of input data triples with property p,
// summed from the edge cardinalities (an exact statistic).
func (w *Weights) PropertyCount(p dict.ID) int { return w.propCount[p] }
