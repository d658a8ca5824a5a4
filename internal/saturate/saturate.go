// Package saturate computes the saturation G∞ of an RDF graph: the
// fixpoint of the immediate-entailment rules over the paper's four RDFS
// constraint kinds (§2.1). The semantics of an RDF graph being its
// saturation, query answering and the completeness properties (Props 5, 8)
// are all stated over G∞.
//
// Instance-level rules (with σ the saturated schema):
//
//	s p o,  p ≺sp p'   ⇒ s p' o          (property generalization)
//	s p o,  p ←↩d c    ⇒ s τ c           (domain typing)
//	s p o,  p ↪→r c    ⇒ o τ c           (range typing)
//	s τ c,  c ≺sc c'   ⇒ s τ c'          (class generalization)
//
// Because the schema is saturated first (see schema.Saturate), each rule
// needs to fire on original triples only once, making saturation a single
// linear pass over D_G and T_G plus output deduplication.
//
// Entailment follows the paper's database-style (generalized RDF)
// semantics: the range rule types literal objects uniformly. Strict RDF
// would skip them (a literal cannot be a triple subject), but then the
// completeness equalities of Props. 5 and 8 would fail on any graph with a
// range-constrained literal-valued property, because summaries represent
// literals by URI nodes on which the rule does fire.
package saturate

import (
	"rdfsum/internal/schema"
	"rdfsum/internal/store"
)

// Graph returns G∞ as a new graph sharing g's dictionary. The input graph
// is not modified. The result is sorted and deduplicated.
func Graph(g *store.Graph) *store.Graph {
	sch := schema.FromGraph(g).Saturate()
	return withSchema(g, sch)
}

// withSchema saturates g's instance triples against an already-saturated
// schema.
func withSchema(g *store.Graph, sch *schema.Schema) *store.Graph {
	v := g.Vocab()
	out := store.NewGraphWithDict(g.Dict())

	// Schema component: the saturated constraints.
	out.Schema = sch.Triples(v)

	// Data component: original triples plus ≺sp generalizations.
	out.Data = append(out.Data, g.Data...)
	for _, t := range g.Data {
		for _, sp := range sch.SubProp[t.P] {
			out.Data = append(out.Data, store.Triple{S: t.S, P: sp, O: t.O})
		}
	}

	// Type component: original types, domain/range typings from data
	// triples, then class generalizations of everything derived so far.
	types := append([]store.Triple(nil), g.Types...)
	for _, t := range g.Data {
		for _, c := range sch.Domain[t.P] {
			types = append(types, store.Triple{S: t.S, P: v.Type, O: c})
		}
		for _, c := range sch.Range[t.P] {
			// Generalized-RDF semantics: the range rule fires uniformly,
			// typing literal objects as well. This follows the paper's
			// database-style entailment framework and is required for the
			// completeness shortcuts (Props. 5 and 8) to hold verbatim:
			// summaries replace literals by URI nodes, so a literal-aware
			// exception in G∞ would make S_{(S_G)∞} ⊋ S_{G∞} whenever a
			// range constraint covers a literal-valued property.
			types = append(types, store.Triple{S: t.O, P: v.Type, O: c})
		}
	}
	for _, t := range types {
		out.Types = append(out.Types, t)
		for _, c := range sch.SubClass[t.O] {
			out.Types = append(out.Types, store.Triple{S: t.S, P: v.Type, O: c})
		}
	}

	out.SortDedup()
	return out
}
