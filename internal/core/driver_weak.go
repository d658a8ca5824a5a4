package core

// driver_weak.go maintains the weak summary W_G (Definition 11): the
// paper's Algorithms 1–3, one data triple at a time.

import (
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// weakDriver maintains the weak summary: each data triple puts its
// subject in the class of the property's unique source representative and
// its object in that of the target representative (GETSOURCE / GETTARGET
// / MERGEDATANODES, see weakTracker), at O(α) amortized per triple. Weak
// equivalence classes only merge, so nothing ever migrates under
// insertion and the driver tracks no per-triple state: W_G has one data
// edge per property (Property 4), read off the representatives at
// snapshot time, where Algorithm 3 attaches the types. A data deletion can
// split a class — unions are not invertible — so it is the one event the
// driver cannot apply (type and schema deletions are free).
type weakDriver struct {
	bs *BuilderSet
	wt *weakTracker
}

func (d *weakDriver) tracker() *edgeTracker                { return nil }
func (d *weakDriver) typeAdded(typeEvent) bool             { return true }
func (d *weakDriver) typeDeleted(typeEvent)                {}
func (d *weakDriver) dataDeleted(int32, store.Triple) bool { return false }

// seed is Algorithm 1 over the whole data component.
func (d *weakDriver) seed() {
	d.wt = newWeakTracker()
	for _, t := range d.bs.g.Data {
		d.dataAdded(t)
	}
}

func (d *weakDriver) dataAdded(t store.Triple) {
	d.wt.noteSubject(t.S, t.P)
	d.wt.noteObject(t.O, t.P)
}

func (d *weakDriver) snapshot() *Summary {
	g := d.bs.g
	out, rep := startSummary(g, Weak, d.bs.names)
	name := d.wt.names(rep)
	for p, e := range d.wt.srcElem {
		out.Data = append(out.Data, store.Triple{S: name(e), P: p, O: name(d.wt.tgtElem[p])})
	}
	nodeOf := make(map[dict.ID]dict.ID, len(d.wt.nodes))
	for n, st := range d.wt.nodes {
		nodeOf[n] = name(st.rep)
	}
	summarizeTypesWeak(g, out, rep, nodeOf)
	return &Summary{Graph: out, NodeOf: nodeOf}
}

// summarizeTypesWeak is Algorithm 3, shared by the weak and strong
// drivers: types of represented nodes attach to their representative;
// typed-only resources (no data properties at all, hence TC = SC = ∅)
// collapse into the single node Nτ = N(∅,∅) carrying all their classes.
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
