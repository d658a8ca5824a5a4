package core

import (
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// classSetsOf returns, for every typed resource of g (subject of a T_G
// triple), its sorted, deduplicated class set. Typed resources are
// exactly the keys of the returned map.
func classSetsOf(g *store.Graph) map[dict.ID][]dict.ID {
	sets := make(map[dict.ID][]dict.ID)
	for _, t := range g.Types {
		sets[t.S] = append(sets[t.S], t.O)
	}
	for n, classes := range sets {
		sortIDs(classes)
		out := classes[:0]
		for i, c := range classes {
			if i == 0 || c != classes[i-1] {
				out = append(out, c)
			}
		}
		sets[n] = out
	}
	return sets
}

// emitClassSetTypes adds, for every distinct class set X among the typed
// resources, the triples C(X) τ c for each c ∈ X. This models the summary
// type edges of the type-first summaries (the dcls structure of §6.1).
func emitClassSetTypes(g *store.Graph, out *store.Graph, rep *representer, sets map[dict.ID][]dict.ID) {
	v := g.Vocab()
	emitted := make(map[dict.ID]bool)
	for _, set := range sets {
		node := rep.classSetNode(set)
		if emitted[node] {
			continue
		}
		emitted[node] = true
		for _, c := range set {
			out.Types = append(out.Types, store.Triple{S: node, P: v.Type, O: c})
		}
	}
}

// typeBased implements the type-based helper summary T_G (Definition 12):
// the quotient by ≡T. Typed resources with the same non-empty class set X
// collapse into C(X); every untyped resource is equivalent only to itself
// and is represented by a fresh node C(∅) (a distinct URI per call,
// realized here as a deterministic counter in first-encounter order over
// the data triples).
func typeBased(g *store.Graph) *Summary {
	sets := classSetsOf(g)
	out, rep := startSummary(g, TypeBased, dict.Overlay(g.Dict()))

	nodeOf := make(map[dict.ID]dict.ID, len(sets))
	for n, set := range sets {
		nodeOf[n] = rep.classSetNode(set)
	}
	nodeFor := func(n dict.ID) dict.ID {
		if id, ok := nodeOf[n]; ok {
			return id
		}
		id := rep.freshCopy(n)
		nodeOf[n] = id
		return id
	}

	edges := make(map[store.Triple]bool, len(g.Data))
	for _, t := range g.Data {
		e := store.Triple{S: nodeFor(t.S), P: t.P, O: nodeFor(t.O)}
		if !edges[e] {
			edges[e] = true
			out.Data = append(out.Data, e)
		}
	}
	emitClassSetTypes(g, out, rep, sets)
	return &Summary{Graph: out, NodeOf: nodeOf}
}
