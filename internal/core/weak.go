package core

import (
	"sort"

	"rdfsum/internal/dict"
	"rdfsum/internal/store"
	"rdfsum/internal/unionfind"
)

// weakIncremental implements the paper's Algorithms 1–3: a single pass
// over the data triples that unifies, per data property, one untyped
// source representative and one target representative, merging nodes on
// the fly (GETSOURCE / GETTARGET / MERGEDATANODES), followed by a pass
// over the type triples (Algorithm 3).
//
// The per-node "replace the node with fewer edges" merge of the paper is
// realized with a union-find, which preserves the algorithm's O(|G| α)
// cost while avoiding explicit edge rewriting.
func weakIncremental(g *store.Graph) *Summary {
	uf := &unionfind.UF{}
	elemOf := make(map[dict.ID]int32)  // G data node  -> forest element
	srcElem := make(map[dict.ID]int32) // data property -> source element (dpSrc)
	tgtElem := make(map[dict.ID]int32) // data property -> target element (dpTarg)

	elem := func(m map[dict.ID]int32, key dict.ID) int32 {
		if e, ok := m[key]; ok {
			return e
		}
		e := uf.Add()
		m[key] = e
		return e
	}

	// Algorithm 1: summarize data triples. Each triple forces its subject
	// to coincide with p's unique source node and its object with p's
	// unique target node (Property 4: one data edge per property).
	for _, t := range g.Data {
		uf.Union(elem(elemOf, t.S), elem(srcElem, t.P))
		uf.Union(elem(elemOf, t.O), elem(tgtElem, t.P))
	}

	// The in/out property sets of each equivalence class: the unions of
	// the members' target and source cliques (§4.1's N(∪TC, ∪SC)).
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

	out, rep := startSummary(g, Weak, dict.Overlay(g.Dict()))
	nameOf := make(map[int32]dict.ID)
	for _, e := range elemOf {
		root := uf.Find(e)
		if _, ok := nameOf[root]; !ok {
			nameOf[root] = rep.node(inProps[root], outProps[root])
		}
	}

	// One data edge per distinct property, emitted in sorted property
	// order for determinism.
	props := make([]dict.ID, 0, len(srcElem))
	for p := range srcElem {
		props = append(props, p)
	}
	sort.Slice(props, func(i, j int) bool { return props[i] < props[j] })
	for _, p := range props {
		src := nameOf[uf.Find(srcElem[p])]
		tgt := nameOf[uf.Find(tgtElem[p])]
		out.Data = append(out.Data, store.Triple{S: src, P: p, O: tgt})
	}

	nodeOf := make(map[dict.ID]dict.ID, len(elemOf))
	for n, e := range elemOf {
		nodeOf[n] = nameOf[uf.Find(e)]
	}

	summarizeTypesWeak(g, out, rep, nodeOf)
	return &Summary{Graph: out, NodeOf: nodeOf}
}

// summarizeTypesWeak is Algorithm 3, shared by both weak constructions:
// types of represented nodes attach to their representative; typed-only
// resources (no data properties at all, hence TC = SC = ∅) collapse into
// the single node Nτ = N(∅,∅) carrying all their classes.
func summarizeTypesWeak(g *store.Graph, out *store.Graph, rep *representer, nodeOf map[dict.ID]dict.ID) {
	v := g.Vocab()
	typeEdges := make(map[store.Triple]bool)
	var typedOnly []store.Triple
	for _, t := range g.Types {
		if d, ok := nodeOf[t.S]; ok {
			typeEdges[store.Triple{S: d, P: v.Type, O: t.O}] = true
			continue
		}
		typedOnly = append(typedOnly, t)
	}
	if len(typedOnly) > 0 {
		ntau := rep.node(nil, nil)
		for _, t := range typedOnly {
			nodeOf[t.S] = ntau
			typeEdges[store.Triple{S: ntau, P: v.Type, O: t.O}] = true
		}
	}
	for e := range typeEdges {
		out.Types = append(out.Types, e)
	}
}

// weakGlobal derives the weak summary from explicitly computed property
// cliques: the weak equivalence classes are the connected components of
// the bipartite "clique incidence" graph linking a node's source clique to
// its target clique. It is the independent oracle for the incremental
// algorithm (both must produce identical summaries) and the ablation
// showing the clique-materialization cost the paper avoids for W_G.
func weakGlobal(g *store.Graph) *Summary {
	asg := computeCliques(g)

	nSrc := len(asg.SrcMembers)
	nTgt := len(asg.TgtMembers)
	uf := unionfind.New(nSrc + nTgt)
	for n, sc := range asg.NodeSrc {
		tc := asg.NodeTgt[n]
		if sc >= 0 && tc >= 0 {
			uf.Union(int32(sc), int32(nSrc+tc))
		}
	}

	// Component property sets.
	inProps := make(map[int32][]dict.ID)
	outProps := make(map[int32][]dict.ID)
	for i, members := range asg.SrcMembers {
		root := uf.Find(int32(i))
		outProps[root] = append(outProps[root], members...)
	}
	for i, members := range asg.TgtMembers {
		root := uf.Find(int32(nSrc + i))
		inProps[root] = append(inProps[root], members...)
	}

	out, rep := startSummary(g, Weak, dict.Overlay(g.Dict()))
	nameOf := make(map[int32]dict.ID)
	name := func(root int32) dict.ID {
		if id, ok := nameOf[root]; ok {
			return id
		}
		id := rep.node(inProps[root], outProps[root])
		nameOf[root] = id
		return id
	}

	for _, p := range asg.Props {
		src := name(uf.Find(int32(asg.SrcOf[p])))
		tgt := name(uf.Find(int32(nSrc + asg.TgtOf[p])))
		out.Data = append(out.Data, store.Triple{S: src, P: p, O: tgt})
	}

	nodeOf := make(map[dict.ID]dict.ID, len(asg.NodeSrc))
	for n, sc := range asg.NodeSrc {
		var root int32
		if sc >= 0 {
			root = uf.Find(int32(sc))
		} else {
			root = uf.Find(int32(nSrc + asg.NodeTgt[n]))
		}
		nodeOf[n] = name(root)
	}

	summarizeTypesWeak(g, out, rep, nodeOf)
	return &Summary{Graph: out, NodeOf: nodeOf}
}
