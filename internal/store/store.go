// Package store implements the dictionary-encoded triple store the
// summarizers operate on.
//
// It plays the role of the paper's PostgreSQL layer (§6): triples are
// encoded to integers through internal/dict, split into the three
// components of the triple-based representation ⟨D_G, S_G, T_G⟩ (§2.1),
// and served back as sequential scans, ordered-index lookups, and decoded
// dictionary joins. A versioned, checksummed binary snapshot format
// replaces the Postgres COPY path.
package store

import (
	"slices"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// Triple is a dictionary-encoded RDF triple.
type Triple struct {
	S, P, O dict.ID
}

// Less orders triples lexicographically by (S, P, O).
func (t Triple) Less(u Triple) bool {
	if t.S != u.S {
		return t.S < u.S
	}
	if t.P != u.P {
		return t.P < u.P
	}
	return t.O < u.O
}

// Vocab caches the dictionary IDs of the interpreted vocabulary: rdf:type
// and the four RDFS constraint properties.
type Vocab struct {
	Type     dict.ID // rdf:type (τ)
	SubClass dict.ID // rdfs:subClassOf (≺sc)
	SubProp  dict.ID // rdfs:subPropertyOf (≺sp)
	Domain   dict.ID // rdfs:domain (←↩d)
	Range    dict.ID // rdfs:range (↪→r)
}

// EncodeVocab interns the interpreted vocabulary into d and returns the
// resulting ID table.
func EncodeVocab(d *dict.Dict) Vocab {
	return Vocab{
		Type:     d.EncodeIRI(rdf.RDFType),
		SubClass: d.EncodeIRI(rdf.RDFSSubClassOf),
		SubProp:  d.EncodeIRI(rdf.RDFSSubProperty),
		Domain:   d.EncodeIRI(rdf.RDFSDomain),
		Range:    d.EncodeIRI(rdf.RDFSRange),
	}
}

// Graph is a dictionary-encoded RDF graph partitioned into its data,
// type, and schema components (Definition: G = ⟨D_G, S_G, T_G⟩).
//
// Invariants: every Types triple has P == Vocab().Type; every Schema
// triple has P ∈ {SubClass, SubProp, Domain, Range}; Data holds everything
// else. A graph built by Add lists each component in insertion order; one
// opened from a snapshot lists Data and Schema in SPO order and Types in
// insertion order, the one order a summary depends on.
type Graph struct {
	dict   *dict.Dict
	vocab  Vocab
	Data   []Triple
	Types  []Triple
	Schema []Triple
}

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph { return NewGraphWithDict(dict.New()) }

// NewGraphWithDict returns an empty graph over an existing dictionary.
// The interpreted vocabulary is interned into d if not already present.
func NewGraphWithDict(d *dict.Dict) *Graph {
	return &Graph{dict: d, vocab: EncodeVocab(d)}
}

// FromTriples encodes and partitions a set of string-level triples.
func FromTriples(triples []rdf.Triple) *Graph {
	g := NewGraph()
	for _, t := range triples {
		g.Add(t)
	}
	return g
}

// Dict exposes the graph's term dictionary.
func (g *Graph) Dict() *dict.Dict { return g.dict }

// Vocab exposes the cached vocabulary IDs.
func (g *Graph) Vocab() Vocab { return g.vocab }

// Add encodes t and routes it to the proper component.
func (g *Graph) Add(t rdf.Triple) {
	g.AddEncoded(g.dict.Encode(t.S), g.dict.Encode(t.P), g.dict.Encode(t.O))
}

// Component identifies one of the three partitions of the triple-based
// representation ⟨D_G, S_G, T_G⟩.
type Component uint8

const (
	// CompData is the data component D_G.
	CompData Component = iota
	// CompTypes is the type component T_G.
	CompTypes
	// CompSchema is the schema component S_G.
	CompSchema
)

// ComponentOf is the single source of truth for the partitioning
// invariant: rdf:type triples belong to Types, the four RDFS constraint
// properties to Schema, everything else to Data. AddEncoded and the
// quotient engine's DeleteBatch both route through it.
func (v Vocab) ComponentOf(p dict.ID) Component {
	switch p {
	case v.Type:
		return CompTypes
	case v.SubClass, v.SubProp, v.Domain, v.Range:
		return CompSchema
	default:
		return CompData
	}
}

// AddEncoded routes an already-encoded triple to the proper component.
func (g *Graph) AddEncoded(s, p, o dict.ID) {
	switch g.vocab.ComponentOf(p) {
	case CompTypes:
		g.Types = append(g.Types, Triple{s, p, o})
	case CompSchema:
		g.Schema = append(g.Schema, Triple{s, p, o})
	default:
		g.Data = append(g.Data, Triple{s, p, o})
	}
}

// SnapshotView returns an immutable view of g at its current size: a graph
// sharing g's dictionary and triple storage whose component slices are
// clipped to the current length and capacity. Later appends to g write
// beyond the view's bounds (or reallocate), so readers of the view never
// observe them — the copy-on-write trick behind the live subsystem's epoch
// snapshots. The view must not be mutated.
func (g *Graph) SnapshotView() *Graph {
	return &Graph{
		dict:   g.dict,
		vocab:  g.vocab,
		Data:   g.Data[:len(g.Data):len(g.Data)],
		Types:  g.Types[:len(g.Types):len(g.Types)],
		Schema: g.Schema[:len(g.Schema):len(g.Schema)],
	}
}

// NumEdges is the total number of triples, |G|e.
func (g *Graph) NumEdges() int { return len(g.Data) + len(g.Types) + len(g.Schema) }

// SortDedup sorts each component and drops duplicate triples in place.
func (g *Graph) SortDedup() {
	g.Data = sortDedup(g.Data)
	g.Types = sortDedup(g.Types)
	g.Schema = sortDedup(g.Schema)
}

func sortDedup(ts []Triple) []Triple {
	slices.SortFunc(ts, OrderSPO.compare)
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// CloneStructure returns a graph sharing g's dictionary with copied triple
// slices, so the copy can be mutated (e.g. saturated) independently.
func (g *Graph) CloneStructure() *Graph {
	h := &Graph{dict: g.dict, vocab: g.vocab}
	h.Data = append([]Triple(nil), g.Data...)
	h.Types = append([]Triple(nil), g.Types...)
	h.Schema = append([]Triple(nil), g.Schema...)
	return h
}

// Dense returns g itself when its dictionary numbers its terms 1..Len, and
// otherwise — g is over an overlay, as every summary graph is — a copy
// re-encoded over a fresh dictionary holding the interpreted vocabulary
// and exactly the terms g's triples reference, numbered in order of first
// reference. The snapshot formats store a dense dictionary in full, so
// this is what keeps a saved summary from carrying its input's terms.
func (g *Graph) Dense() *Graph {
	if !g.dict.IsOverlay() {
		return g
	}
	out := NewGraph()
	ids := make(map[dict.ID]dict.ID)
	dense := func(id dict.ID) dict.ID {
		if n, ok := ids[id]; ok {
			return n
		}
		n := out.dict.Encode(g.dict.Term(id))
		ids[id] = n
		return n
	}
	reencode := func(ts []Triple) []Triple {
		res := make([]Triple, len(ts))
		for i, t := range ts {
			res[i] = Triple{dense(t.S), dense(t.P), dense(t.O)}
		}
		return res
	}
	// The vocabulary maps onto out's own, so each triple stays in its
	// component.
	out.Data, out.Types, out.Schema = reencode(g.Data), reencode(g.Types), reencode(g.Schema)
	return out
}

// All returns the concatenation of the three components. The returned
// slice is freshly allocated.
func (g *Graph) All() []Triple {
	out := make([]Triple, 0, g.NumEdges())
	out = append(out, g.Data...)
	out = append(out, g.Types...)
	out = append(out, g.Schema...)
	return out
}

// Decode returns the graph's triples at string level, in component order
// (data, types, schema).
func (g *Graph) Decode() []rdf.Triple {
	out := make([]rdf.Triple, 0, g.NumEdges())
	for _, t := range g.All() {
		out = append(out, rdf.Triple{S: g.dict.Term(t.S), P: g.dict.Term(t.P), O: g.dict.Term(t.O)})
	}
	return out
}

// CanonicalStrings renders every triple in canonical N-Triples form and
// returns the sorted, deduplicated lines. Two graphs describe the same
// triple set — regardless of dictionaries or insertion order — iff their
// canonical strings are equal. Tests of the paper's equalities (Props 2,
// 5, 6, 8, 9) rely on this.
func (g *Graph) CanonicalStrings() []string {
	lines := make([]string, 0, g.NumEdges())
	for _, t := range g.Decode() {
		lines = append(lines, t.String())
	}
	slices.Sort(lines)
	out := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			out = append(out, l)
		}
	}
	return out
}

// DistinctDataProperties returns the distinct properties of D_G, sorted.
// Its length is |D_G|⁰p, the bound in Proposition 4.
func (g *Graph) DistinctDataProperties() []dict.ID {
	seen := make(map[dict.ID]bool)
	for _, t := range g.Data {
		seen[t.P] = true
	}
	return sortedIDs(seen)
}

// DataNodes returns the set of data nodes per §2.1: every subject or
// object of D_G plus every subject of T_G.
func (g *Graph) DataNodes() map[dict.ID]bool {
	nodes := make(map[dict.ID]bool)
	for _, t := range g.Data {
		nodes[t.S] = true
		nodes[t.O] = true
	}
	for _, t := range g.Types {
		nodes[t.S] = true
	}
	return nodes
}

// ClassNodes returns the set of class nodes per §2.1: every URI in the
// object position of a T_G triple.
func (g *Graph) ClassNodes() map[dict.ID]bool {
	nodes := make(map[dict.ID]bool)
	for _, t := range g.Types {
		nodes[t.O] = true
	}
	return nodes
}

// PropertyNodes returns the set of property nodes per §2.1: URIs in the
// subject or object position of ≺sp triples, or the subject position of
// ←↩d / ↪→r triples.
func (g *Graph) PropertyNodes() map[dict.ID]bool {
	nodes := make(map[dict.ID]bool)
	for _, t := range g.Schema {
		switch t.P {
		case g.vocab.SubProp:
			nodes[t.S] = true
			nodes[t.O] = true
		case g.vocab.Domain, g.vocab.Range:
			nodes[t.S] = true
		}
	}
	return nodes
}

// TypedNodes returns the set of subjects of T_G (the typed resources TR_G).
func (g *Graph) TypedNodes() map[dict.ID]bool {
	nodes := make(map[dict.ID]bool, len(g.Types))
	for _, t := range g.Types {
		nodes[t.S] = true
	}
	return nodes
}

func sortedIDs(set map[dict.ID]bool) []dict.ID {
	out := make([]dict.ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// SortedIDs returns the keys of set in increasing order. Exported for the
// packages layered above the store that need deterministic iteration.
func SortedIDs(set map[dict.ID]bool) []dict.ID { return sortedIDs(set) }
