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
	// Edge is the summary-level triple, a triple of the summary's Graph:
	// subject/object are summary nodes (or the class for a τ edge, or the
	// schema terms for a schema edge), all in the summary's own IDs.
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
// Summary nodes and edges are in the summary's own IDs; the lookups below
// (DataEdges, TypeEdges, SchemaEdges, Node, Term, PropertyCount) take IDs
// of the summarized graph and translate them.
//
// ComputeWeights additionally records per-edge distinct-endpoint counts
// (EdgeStat) and the summary's quotient map, which together let the query
// planner estimate whole conjunctive queries over the summary; a Weights
// assembled by hand carries only the coarse maps, reports
// HasEdgeStats() == false and is no statistic to the planner.
type Weights struct {
	// NodeCard is indexed by summary node ID; it is 0 for an ID that
	// represents no input node.
	NodeCard []int
	EdgeCard map[store.Triple]int
	TypeCard map[store.Triple]int

	// propCount holds the per-property sums of EdgeCard (PropertyCount);
	// ComputeWeights fills it.
	propCount map[dict.ID]int

	// nodeOf and terms are the summary's, shared: a summary is immutable
	// once returned. They translate a data node resp. a property, class
	// or schema term of the input into the summary's IDs.
	nodeOf dict.Table[dict.ID]
	terms  dict.Table[dict.ID]

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

// ComputeWeights derives the cardinalities of s's quotient map by one pass
// over the input graph, including the per-edge distinct-endpoint counts
// the query planner's cardinality estimator consumes. Every EdgeStat's
// Edge is a triple of s.Graph.
//
// Representatives and kept terms resolve through the summary's tables,
// every summary edge gets a small index at its first triple, and the
// distinct endpoints of each edge are counted by stamping them in tables
// of the endpoint IDs (edgeCounter) — no set per edge.
func (s *Summary) ComputeWeights() *Weights {
	in := s.Input
	w := &Weights{NodeCard: make([]int, s.Graph.Dict().Len()+1), nodeOf: s.NodeOf, terms: s.terms}
	for _, r := range s.NodeOf.All() {
		if *r != dict.None {
			w.NodeCard[*r]++
		}
	}

	ec := &edgeCounter{}
	max := dict.ID(in.Dict().Len())
	ec.subj.Grow(max)
	ec.obj.Grow(max)
	byProperty := func(e store.Triple) dict.ID { return e.P }
	byClass := func(e store.Triple) dict.ID { return e.O }
	data := ec.stats(in.Data, func(t store.Triple) store.Triple {
		return store.Triple{S: s.NodeOf.Get(t.S), P: s.terms.Get(t.P), O: s.NodeOf.Get(t.O)}
	}, byProperty)
	typ := s.Graph.Vocab().Type
	types := ec.stats(in.Types, func(t store.Triple) store.Triple {
		return store.Triple{S: s.NodeOf.Get(t.S), P: typ, O: s.terms.Get(t.O)}
	}, byClass)
	// Schema triples are copied verbatim into every summary kind, so each
	// is an exact unit edge whose endpoints represent themselves.
	schema := ec.stats(in.Schema, func(t store.Triple) store.Triple {
		return store.Triple{S: s.terms.Get(t.S), P: s.terms.Get(t.P), O: s.terms.Get(t.O)}
	}, byProperty)
	w.EdgeCard = make(map[store.Triple]int, len(data))
	for _, st := range data {
		w.EdgeCard[st.Edge] = st.Count
	}
	w.TypeCard = make(map[store.Triple]int, len(types))
	for _, st := range types {
		w.TypeCard[st.Edge] = st.Count
	}
	byPSO := func(x, y EdgeStat) int {
		a, b := x.Edge, y.Edge
		return cmp.Or(cmp.Compare(a.P, b.P), cmp.Compare(a.S, b.S), cmp.Compare(a.O, b.O))
	}
	// Deterministic order: the first-occurrence order of the input would
	// reorder the estimator's float sums (and hence tie-breaking) whenever
	// the input's order changes.
	slices.SortFunc(data, byPSO)
	slices.SortFunc(types, byPSO)
	slices.SortFunc(schema, byPSO)
	w.allData, w.dataEdges = data, groupEdges(data, byProperty)
	w.allSchema, w.schemaEdges = schema, groupEdges(schema, byProperty)
	// τ edges group by class: a copy ordered by class, then as allTypes.
	classOrder := slices.Clone(types)
	slices.SortStableFunc(classOrder, func(x, y EdgeStat) int { return cmp.Compare(x.Edge.O, y.Edge.O) })
	w.allTypes, w.typeEdges = types, groupEdges(classOrder, byClass)
	w.propCount = make(map[dict.ID]int, len(w.dataEdges))
	for p, group := range w.dataEdges {
		for _, st := range group {
			w.propCount[p] += st.Count
		}
	}
	return w
}

// edgeCounter computes the EdgeStats of one summary's input. Its tables
// hold, per endpoint ID, the stamp of the last edge that counted it as a
// subject resp. an object; every edge of every call gets its own stamp, so
// one pair of tables serves the data, τ and schema edges.
type edgeCounter struct {
	subj, obj dict.Table[int32]
	stamps    int32
}

// stats maps every triple of ts onto its summary edge, edgeOf(t), and
// returns the edges' statistics in first-occurrence order. Each edge gets
// a small index at its first triple; a triple whose edge is the last one
// of its group key (keyOf: the property, or a τ edge's class — a weak
// summary has one edge per property) finds it without hashing. Then the
// triples are bucketed by edge index (a counting sort), and each bucket
// stamps the endpoints it meets, counting those it had not stamped yet —
// no set per edge.
func (ec *edgeCounter) stats(ts []store.Triple, edgeOf func(store.Triple) store.Triple, keyOf func(store.Triple) dict.ID) []EdgeStat {
	stats := []EdgeStat{}
	index := make(map[store.Triple]int32)
	of := make([]int32, len(ts))
	var last dict.Table[int32] // group key -> 1 + the edge its last triple mapped onto
	for i, t := range ts {
		e := edgeOf(t)
		c := last.Ptr(keyOf(e))
		if *c == 0 || stats[*c-1].Edge != e {
			k, ok := index[e]
			if !ok {
				k = int32(len(stats))
				index[e] = k
				stats = append(stats, EdgeStat{Edge: e})
			}
			*c = k + 1
		}
		k := *c - 1
		stats[k].Count++
		of[i] = k
	}
	next := make([]int32, len(stats)) // edge -> where its next triple goes in byEdge
	pos := int32(0)
	for k := range stats {
		next[k] = pos
		pos += int32(stats[k].Count)
	}
	byEdge := make([]int32, len(ts))
	for i, k := range of {
		byEdge[next[k]] = int32(i)
		next[k]++
	}
	for _, i := range byEdge {
		t, k := ts[i], of[i]
		stamp := ec.stamps + k + 1
		if c := ec.subj.Ptr(t.S); *c != stamp {
			*c = stamp
			stats[k].DistinctS++
		}
		if c := ec.obj.Ptr(t.O); *c != stamp {
			*c = stamp
			stats[k].DistinctO++
		}
	}
	ec.stamps += int32(len(stats))
	return stats
}

// groupEdges indexes stats — ordered so that equal keys are adjacent — by
// key; each group is a subslice of stats, in stats' order.
func groupEdges(stats []EdgeStat, keyOf func(store.Triple) dict.ID) map[dict.ID][]EdgeStat {
	out := make(map[dict.ID][]EdgeStat)
	for i := 0; i < len(stats); {
		k := keyOf(stats[i].Edge)
		j := i + 1
		for j < len(stats) && keyOf(stats[j].Edge) == k {
			j++
		}
		out[k] = stats[i:j:j]
		i = j
	}
	return out
}

// HasEdgeStats reports whether the per-edge distinct-endpoint statistics
// are present (true for ComputeWeights output, false for a Weights
// assembled by hand).
func (w *Weights) HasEdgeStats() bool { return w.dataEdges != nil }

// Node returns the summary node that represents n, a data node of the
// summarized graph; false when n is none — a term newer than the
// summary, say.
func (w *Weights) Node(n dict.ID) (dict.ID, bool) {
	r := w.nodeOf.Get(n)
	return r, r != dict.None
}

// Term returns the summary's ID of t, a property, class or schema term of
// the summarized graph; false when the summary keeps no such term.
func (w *Weights) Term(t dict.ID) (dict.ID, bool) {
	r := w.terms.Get(t)
	return r, r != dict.None
}

// ExtentSize returns the number of input nodes a summary node represents
// (≥ 1; self-representing nodes have extent 1).
func (w *Weights) ExtentSize(rep dict.ID) int {
	if int(rep) < len(w.NodeCard) && w.NodeCard[rep] > 0 {
		return w.NodeCard[rep]
	}
	return 1
}

// edges returns the group of stats under the summary's ID of t, an ID of
// the summarized graph, or every stat when t is dict.None. A term the
// summary does not keep has no edges.
func (w *Weights) edges(t dict.ID, all []EdgeStat, groups map[dict.ID][]EdgeStat) []EdgeStat {
	if t == dict.None {
		return all
	}
	if r, ok := w.Term(t); ok {
		return groups[r]
	}
	return nil
}

// DataEdges returns the statistics of the summary's data edges with
// property p, or every data edge when p is dict.None.
func (w *Weights) DataEdges(p dict.ID) []EdgeStat { return w.edges(p, w.allData, w.dataEdges) }

// TypeEdges returns the statistics of the summary's τ edges with class c,
// or every τ edge when c is dict.None.
func (w *Weights) TypeEdges(c dict.ID) []EdgeStat { return w.edges(c, w.allTypes, w.typeEdges) }

// SchemaEdges returns the statistics of the schema triples with property
// p (subClassOf, subPropertyOf, domain, range — exact unit edges), or all
// of them when p is dict.None.
func (w *Weights) SchemaEdges(p dict.ID) []EdgeStat { return w.edges(p, w.allSchema, w.schemaEdges) }

// PropertyCount returns the number of input data triples with property p,
// summed from the edge cardinalities (an exact statistic).
func (w *Weights) PropertyCount(p dict.ID) int {
	if r, ok := w.Term(p); ok {
		return w.propCount[r]
	}
	return 0
}
