package core

import (
	"rdfsum/internal/cliques"
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// computeCliques centralizes the clique computation over a graph's data
// component (Definition 5).
func computeCliques(g *store.Graph) *cliques.Assignment {
	return cliques.Compute(g.Data)
}

// strong implements the strong summary S_G (Definition 15): data nodes are
// equivalent iff they have the same source clique AND the same target
// clique, so each summary node is in bijection with an observed
// (target clique, source clique) pair and is named N(TC, SC). Unlike the
// weak summary, a property may label several summary edges (one per pair
// of endpoint equivalence classes, §5.1).
func strong(g *store.Graph) *Summary {
	asg := computeCliques(g)
	out, rep := startSummary(g, Strong, dict.Overlay(g.Dict()))

	// Summary node per observed (tc, sc) pair.
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

	nodeOf := make(map[dict.ID]dict.ID, len(asg.NodeSrc))
	for n, sc := range asg.NodeSrc {
		nodeOf[n] = name(asg.NodeTgt[n], sc)
	}

	dataEdges := make(map[store.Triple]bool, len(g.Data))
	for _, t := range g.Data {
		e := store.Triple{S: nodeOf[t.S], P: t.P, O: nodeOf[t.O]}
		if !dataEdges[e] {
			dataEdges[e] = true
			out.Data = append(out.Data, e)
		}
	}

	summarizeTypesWeak(g, out, rep, nodeOf)
	return &Summary{Graph: out, NodeOf: nodeOf}
}
