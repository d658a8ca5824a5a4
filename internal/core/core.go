// Package core implements the paper's primary contribution: RDF graph
// summarization by graph quotients (Definition 9).
//
// Five equivalence relations are supported, yielding five summary kinds:
//
//   - Weak (W_G, Definition 11): quotient by weak equivalence ≡W — nodes
//     sharing a source or target property clique, transitively.
//   - Strong (S_G, Definition 15): quotient by strong equivalence ≡S —
//     nodes with the same source clique and the same target clique.
//   - TypeBased (T_G, Definition 12): typed nodes grouped by their exact
//     class set; untyped nodes copied.
//   - TypedWeak (TW_G, Definition 14): untyped-weak summary of T_G — types
//     take precedence, untyped nodes are summarized weakly.
//   - TypedStrong (TS_G, Definition 17): untyped-strong summary of T_G.
//
// Every summary is itself an RDF graph (a *store.Graph over a dictionary
// of its own, holding the interpreted vocabulary, the input terms its
// triples keep and its node URIs; the input's dictionary is never
// written): the schema component is copied verbatim (rule SCH of
// Definition 9) and the data+type components are the quotient of
// D_G ∪ T_G (rule TYP+DAT). Summary node URIs are produced by
// content-addressed representation functions (see names.go), which makes
// the paper's equalities — fixpoint (Prop. 2/6/9) and completeness
// (Prop. 5/8) — literal triple-set equalities.
package core

import (
	"fmt"
	"sort"
	"strings"

	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// Kind selects a summary construction.
type Kind int

const (
	// Weak is the weak summary W_G (Definition 11).
	Weak Kind = iota
	// Strong is the strong summary S_G (Definition 15).
	Strong
	// TypeBased is the type-based helper summary T_G (Definition 12).
	TypeBased
	// TypedWeak is the typed weak summary TW_G (Definition 14).
	TypedWeak
	// TypedStrong is the typed strong summary TS_G (Definition 17).
	TypedStrong
)

// NumKinds is the number of summary kinds; Kind values are dense in
// [0, NumKinds), so arrays indexed by Kind use this as their size.
const NumKinds = 5

// Kinds lists all summary kinds in presentation order (the paper's W, S,
// TW, TS plus the helper T).
var Kinds = []Kind{Weak, Strong, TypedWeak, TypedStrong, TypeBased}

// PaperKinds lists the kinds the paper's evaluation reports (§7): every
// kind except the helper T_G. Benchmarks and the experiments command
// enumerate it instead of hand-rolling the filter.
var PaperKinds = func() []Kind {
	out := make([]Kind, 0, len(Kinds))
	for _, k := range Kinds {
		if k != TypeBased {
			out = append(out, k)
		}
	}
	return out
}()

// String returns the paper's name for the kind.
func (k Kind) String() string {
	switch k {
	case Weak:
		return "weak"
	case Strong:
		return "strong"
	case TypeBased:
		return "type-based"
	case TypedWeak:
		return "typed-weak"
	case TypedStrong:
		return "typed-strong"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// kindNames maps every accepted textual form — canonical names and the
// short forms the CLI tools take — to its kind. ParseKind resolves
// through it and its error message enumerates it, so the two can never
// drift apart.
var kindNames = map[string]Kind{
	"weak": Weak, "w": Weak,
	"strong": Strong, "s": Strong,
	"type-based": TypeBased, "typebased": TypeBased, "t": TypeBased, "tb": TypeBased,
	"typed-weak": TypedWeak, "typedweak": TypedWeak, "tw": TypedWeak,
	"typed-strong": TypedStrong, "typedstrong": TypedStrong, "ts": TypedStrong,
}

// KindSpellings returns, per kind in Kinds order, the accepted spellings
// (canonical name first). CLI tools use it for flag help and error text.
func KindSpellings() [][]string {
	out := make([][]string, 0, NumKinds)
	for _, k := range Kinds {
		forms := []string{k.String()}
		for name, kk := range kindNames {
			if kk == k && name != k.String() {
				forms = append(forms, name)
			}
		}
		sort.Strings(forms[1:])
		out = append(out, forms)
	}
	return out
}

// ParseKind resolves the textual names accepted by the CLI tools: the
// canonical names (weak, strong, type-based, typed-weak, typed-strong)
// and their short forms (w, s, t/tb, tw, ts).
func ParseKind(s string) (Kind, error) {
	if k, ok := kindNames[s]; ok {
		return k, nil
	}
	var forms []string
	for _, spellings := range KindSpellings() {
		forms = append(forms, strings.Join(spellings, "|"))
	}
	return 0, fmt.Errorf("core: unknown summary kind %q (accepted: %s)", s, strings.Join(forms, ", "))
}

// Summary is the result of summarizing a graph. A returned summary is
// immutable: every snapshot builds its own Graph, dictionary and NodeOf,
// and nothing writes to them afterwards, so readers — ComputeWeights,
// which keeps NodeOf rather than copying it, the pruner, the exporters —
// may share them freely. Callers must not modify them either.
type Summary struct {
	// Kind records the construction used.
	Kind Kind
	// Input is the summarized graph (not modified, not owned).
	Input *store.Graph
	// Graph is the summary H_G, an RDF graph over a dictionary of its
	// own: the interpreted vocabulary, then the input terms its triples
	// keep (data properties, classes and schema terms, in ascending input
	// ID), then its node URIs. Render its IDs through Graph.Dict() and
	// Input's through Input.Dict(): the two ID spaces are unrelated.
	Graph *store.Graph
	// NodeOf maps every data node of the input to the summary node
	// representing it (the paper's rd map): it is indexed by Input IDs
	// and holds IDs of Graph.Dict(), dict.None for an ID that is no data
	// node.
	NodeOf dict.Table[dict.ID]
	// Stats holds input/output size measures.
	Stats Stats

	// terms maps every input term the summary keeps to its ID in
	// Graph.Dict(), and every other input ID to dict.None.
	terms dict.Table[dict.ID]
}

// Summarize builds the summary of g of the requested kind: a BuilderSet
// seeded with g, snapshotted once. A from-scratch build is maintenance
// with an empty history, so there is no second construction.
func Summarize(g *store.Graph, kind Kind) (*Summary, error) {
	set, err := NewBuilderSet(g, []Kind{kind})
	if err != nil {
		return nil, err
	}
	return set.Summary(kind)
}

// MustSummarize is Summarize for known-valid kinds; it panics on error.
func MustSummarize(g *store.Graph, kind Kind) *Summary {
	s, err := Summarize(g, kind)
	if err != nil {
		panic(err)
	}
	return s
}

// Members returns the inverse of NodeOf: for each summary node, the sorted
// input data nodes it represents (the paper's dr multi-map).
func (s *Summary) Members() map[dict.ID][]dict.ID {
	out := make(map[dict.ID][]dict.ID)
	for n, rep := range s.NodeOf.All() {
		if *rep != dict.None {
			out[*rep] = append(out[*rep], n) // ascending: All visits IDs in order
		}
	}
	return out
}

// copySchema applies rule SCH of Definition 9: the summary keeps the
// schema triples of the input unchanged, in its own IDs.
func copySchema(in *store.Graph, s *Summary) {
	for _, t := range in.Schema {
		s.Graph.Schema = append(s.Graph.Schema, store.Triple{S: s.terms.Get(t.S), P: s.terms.Get(t.P), O: s.terms.Get(t.O)})
	}
}
