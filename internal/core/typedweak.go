package core

import (
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
	"rdfsum/internal/unionfind"
)

// typedWeak implements the typed weak summary TW_G (Definition 14), the
// untyped-weak summary of the type-based summary: typed resources group by
// their exact class set into C(X) nodes; untyped resources are summarized
// weakly among themselves.
//
// Following the paper's §6 implementation semantics, only untyped nodes
// feed the per-property source/target representatives ("in TW_G only
// untyped data nodes may be merged, so the typed data nodes … will not be
// stored in these structures"): a property has at most one untyped source
// node and one untyped target node, and typed nodes never bridge cliques.
func typedWeak(g *store.Graph) *Summary {
	sets := classSetsOf(g)

	uf := &unionfind.UF{}
	elemOf := make(map[dict.ID]int32)
	srcElem := make(map[dict.ID]int32)
	tgtElem := make(map[dict.ID]int32)
	elem := func(m map[dict.ID]int32, key dict.ID) int32 {
		if e, ok := m[key]; ok {
			return e
		}
		e := uf.Add()
		m[key] = e
		return e
	}
	for _, t := range g.Data {
		if _, typed := sets[t.S]; !typed {
			uf.Union(elem(elemOf, t.S), elem(srcElem, t.P))
		}
		if _, typed := sets[t.O]; !typed {
			uf.Union(elem(elemOf, t.O), elem(tgtElem, t.P))
		}
	}

	inProps := make(map[int32][]dict.ID)
	outProps := make(map[int32][]dict.ID)
	for p, e := range srcElem {
		root := uf.Find(e)
		outProps[root] = append(outProps[root], p)
	}
	for p, e := range tgtElem {
		root := uf.Find(e)
		inProps[root] = append(inProps[root], p)
	}

	out, rep := startSummary(g, TypedWeak, dict.Overlay(g.Dict()))
	nameOf := make(map[int32]dict.ID)
	nodeOf := make(map[dict.ID]dict.ID, len(sets)+len(elemOf))
	for n, set := range sets {
		nodeOf[n] = rep.classSetNode(set)
	}
	for n, e := range elemOf {
		root := uf.Find(e)
		id, ok := nameOf[root]
		if !ok {
			id = rep.node(inProps[root], outProps[root])
			nameOf[root] = id
		}
		nodeOf[n] = id
	}

	edges := make(map[store.Triple]bool, len(g.Data))
	for _, t := range g.Data {
		e := store.Triple{S: nodeOf[t.S], P: t.P, O: nodeOf[t.O]}
		if !edges[e] {
			edges[e] = true
			out.Data = append(out.Data, e)
		}
	}
	emitClassSetTypes(g, out, rep, sets)
	return &Summary{Graph: out, NodeOf: nodeOf}
}
