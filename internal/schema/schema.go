// Package schema models the RDFS schema component S_G: the four constraint
// kinds of the paper's Figure 1 (subclass ≺sc, subproperty ≺sp, domain ←↩d,
// range ↪→r), their transitive/compositional closure, and conversion back
// to triples.
package schema

import (
	"sort"

	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// Schema holds the constraints of an RDF graph, as adjacency maps from a
// class/property to its direct (or, after Saturate, all) super-entities
// and domain/range classes.
type Schema struct {
	SubClass map[dict.ID][]dict.ID // c  -> superclasses of c
	SubProp  map[dict.ID][]dict.ID // p  -> superproperties of p
	Domain   map[dict.ID][]dict.ID // p  -> domain classes of p
	Range    map[dict.ID][]dict.ID // p  -> range classes of p
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{
		SubClass: make(map[dict.ID][]dict.ID),
		SubProp:  make(map[dict.ID][]dict.ID),
		Domain:   make(map[dict.ID][]dict.ID),
		Range:    make(map[dict.ID][]dict.ID),
	}
}

// FromGraph extracts the schema of g's S_G component.
func FromGraph(g *store.Graph) *Schema {
	s := New()
	v := g.Vocab()
	for _, t := range g.Schema {
		switch t.P {
		case v.SubClass:
			s.SubClass[t.S] = append(s.SubClass[t.S], t.O)
		case v.SubProp:
			s.SubProp[t.S] = append(s.SubProp[t.S], t.O)
		case v.Domain:
			s.Domain[t.S] = append(s.Domain[t.S], t.O)
		case v.Range:
			s.Range[t.S] = append(s.Range[t.S], t.O)
		}
	}
	s.normalize()
	return s
}

// IsEmpty reports whether the schema holds no constraints.
func (s *Schema) IsEmpty() bool {
	return len(s.SubClass) == 0 && len(s.SubProp) == 0 && len(s.Domain) == 0 && len(s.Range) == 0
}

// normalize sorts and dedups every adjacency list.
func (s *Schema) normalize() {
	for _, m := range []map[dict.ID][]dict.ID{s.SubClass, s.SubProp, s.Domain, s.Range} {
		for k, vs := range m {
			m[k] = dedupIDs(vs)
		}
	}
}

func dedupIDs(ids []dict.ID) []dict.ID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// Saturate returns a new schema closed under the RDFS schema-level
// entailment rules restricted to the paper's four constraint kinds:
//
//	c1 ≺sc c2, c2 ≺sc c3  ⇒ c1 ≺sc c3     (subclass transitivity)
//	p1 ≺sp p2, p2 ≺sp p3  ⇒ p1 ≺sp p3     (subproperty transitivity)
//	p ←↩d c, c ≺sc c'      ⇒ p ←↩d c'      (domain generalization)
//	p ↪→r c, c ≺sc c'      ⇒ p ↪→r c'      (range generalization)
//	p ≺sp p', p' ←↩d c     ⇒ p ←↩d c       (domain inheritance)
//	p ≺sp p', p' ↪→r c     ⇒ p ↪→r c       (range inheritance)
//
// This is the closure that makes instance-level saturation a single pass
// (see internal/saturate): with a saturated schema, the domains/ranges of
// a property already include everything its superproperties and their
// superclasses entail.
func (s *Schema) Saturate() *Schema {
	out := New()
	out.SubClass = transitiveClosure(s.SubClass)
	out.SubProp = transitiveClosure(s.SubProp)

	// Domain/range inheritance along ≺sp, then generalization along ≺sc.
	for p, ds := range s.Domain {
		out.Domain[p] = append(out.Domain[p], ds...)
	}
	for p, rs := range s.Range {
		out.Range[p] = append(out.Range[p], rs...)
	}
	for p, supers := range out.SubProp {
		for _, sp := range supers {
			out.Domain[p] = append(out.Domain[p], s.Domain[sp]...)
			out.Range[p] = append(out.Range[p], s.Range[sp]...)
		}
	}
	for p, ds := range out.Domain {
		var extra []dict.ID
		for _, c := range ds {
			extra = append(extra, out.SubClass[c]...)
		}
		out.Domain[p] = append(out.Domain[p], extra...)
	}
	for p, rs := range out.Range {
		var extra []dict.ID
		for _, c := range rs {
			extra = append(extra, out.SubClass[c]...)
		}
		out.Range[p] = append(out.Range[p], extra...)
	}
	out.normalize()
	return out
}

// transitiveClosure returns, for every key, all entities reachable through
// one or more adjacency steps (the strict transitive closure; a key is not
// its own super unless the input contains a cycle).
func transitiveClosure(adj map[dict.ID][]dict.ID) map[dict.ID][]dict.ID {
	out := make(map[dict.ID][]dict.ID, len(adj))
	var visit func(start dict.ID, seen map[dict.ID]bool, id dict.ID)
	visit = func(start dict.ID, seen map[dict.ID]bool, id dict.ID) {
		for _, next := range adj[id] {
			if seen[next] {
				continue
			}
			seen[next] = true
			out[start] = append(out[start], next)
			visit(start, seen, next)
		}
	}
	for k := range adj {
		seen := map[dict.ID]bool{}
		visit(k, seen, k)
	}
	for k := range out {
		out[k] = dedupIDs(out[k])
	}
	return out
}

// SuperProperties returns all strict superproperties of p (empty before
// saturation implies none declared; on a saturated schema this is the full
// set).
func (s *Schema) SuperProperties(p dict.ID) []dict.ID { return s.SubProp[p] }

// SuperClasses returns all strict superclasses of c.
func (s *Schema) SuperClasses(c dict.ID) []dict.ID { return s.SubClass[c] }

// Triples re-serializes the schema into encoded schema triples, sorted.
func (s *Schema) Triples(v store.Vocab) []store.Triple {
	var out []store.Triple
	add := func(m map[dict.ID][]dict.ID, p dict.ID) {
		for subj, objs := range m {
			for _, o := range objs {
				out = append(out, store.Triple{S: subj, P: p, O: o})
			}
		}
	}
	add(s.SubClass, v.SubClass)
	add(s.SubProp, v.SubProp)
	add(s.Domain, v.Domain)
	add(s.Range, v.Range)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
