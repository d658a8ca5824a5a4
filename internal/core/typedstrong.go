package core

import (
	"rdfsum/internal/cliques"
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// typedStrong implements the typed strong summary TS_G (Definition 17),
// the untyped-strong summary of the type-based summary: typed resources
// group by class set into C(X); untyped resources group by their
// (target clique, source clique) pair, with cliques computed over untyped
// adjacencies only ("for the typed strong summary cliques are computed
// only for untyped data nodes", §6.1).
func typedStrong(g *store.Graph) *Summary {
	sets := classSetsOf(g)
	asg := cliques.ComputeRestricted(g.Data, func(n dict.ID) bool {
		_, typed := sets[n]
		return typed
	})

	out, rep := startSummary(g, TypedStrong, dict.Overlay(g.Dict()))
	type pair struct{ tc, sc int }
	nameOf := make(map[pair]dict.ID)
	name := func(tc, sc int) dict.ID {
		key := pair{tc, sc}
		if id, ok := nameOf[key]; ok {
			return id
		}
		var in, out []dict.ID
		if tc != cliques.NoClique {
			in = asg.TgtMembers[tc]
		}
		if sc != cliques.NoClique {
			out = asg.SrcMembers[sc]
		}
		id := rep.node(in, out)
		nameOf[key] = id
		return id
	}

	nodeOf := make(map[dict.ID]dict.ID, len(sets)+len(asg.NodeSrc))
	for n, set := range sets {
		nodeOf[n] = rep.classSetNode(set)
	}
	for n, sc := range asg.NodeSrc {
		nodeOf[n] = name(asg.NodeTgt[n], sc)
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
