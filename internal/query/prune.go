package query

import (
	"rdfsum/internal/core"
	"rdfsum/internal/saturate"
	"rdfsum/internal/store"
)

// Pruner implements summary-guided query pruning (the paper's "query
// answering on summaries" use case): because summaries are
// RBGP-representative (Prop. 1), an RBGP query with answers on G∞ has
// answers on (H_G)∞ — so a query *empty* on the small saturated summary
// is provably empty on the large graph and can be answered without
// touching it.
//
// A Pruner is a cached saturated summary indexed as an emptiness oracle.
// Build it once offline (saturate the summary graph, which is orders of
// magnitude smaller than the input) and gate every query evaluation with
// ProvablyEmpty. A nil Pruner never prunes, so it can be threaded through
// options unconditionally.
type Pruner struct {
	kind string
	g    *store.Graph
	ix   *store.Index
}

// NewPruner builds the gate of summary s: it saturates the summary graph
// into (H_G)∞ and indexes it. The summary's kind labels the gate (e.g.
// "weak") in explanations.
func NewPruner(s *core.Summary) *Pruner {
	g := saturate.Graph(s.Graph)
	return &Pruner{kind: s.Kind.String(), g: g, ix: store.NewIndex(g)}
}

// Kind returns the label of the underlying summary.
func (p *Pruner) Kind() string {
	if p == nil {
		return ""
	}
	return p.kind
}

// ProvablyEmpty reports whether q certainly has no answers on any graph
// the summary represents: q must be RBGP (representativeness is only
// guaranteed for the relational BGP dialect, Definition 3) and empty on
// the saturated summary. Then q(G∞) = ∅ by Prop. 1, and since G ⊆ G∞ and
// BGP evaluation is monotone, q(G) = ∅ too — pruning is sound for both
// plain and saturated evaluation. The check never errors a valid query:
// on any internal failure it conservatively reports false (don't prune).
func (p *Pruner) ProvablyEmpty(q *Query) bool {
	if p == nil || q.IsRBGP() != nil {
		return false
	}
	found, err := Ask(p.g, p.ix, q)
	return err == nil && !found
}
