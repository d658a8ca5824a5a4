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
	d.wt = newWeakTracker(dict.ID(d.bs.g.Dict().Len()))
	for _, t := range d.bs.g.Data {
		d.dataAdded(t)
	}
}

func (d *weakDriver) dataAdded(t store.Triple) {
	d.wt.noteSubject(t.S, t.P)
	d.wt.noteObject(t.O, t.P)
}

// snapshot names the classes by ascending node ID: an order that depends
// on the input only. Each property's source and target element is the
// class of a node that met it, so naming the edges interns nothing new.
func (d *weakDriver) snapshot() *Summary {
	s, rep := d.bs.startSummary(Weak)
	name := d.wt.names(rep)
	for n, st := range d.wt.nodes.All() {
		if st.seen {
			s.NodeOf.Set(n, name(st.rep))
		}
	}
	for p, e := range d.wt.srcElem {
		s.Graph.Data = append(s.Graph.Data, store.Triple{S: name(e), P: s.terms.Get(p), O: name(d.wt.tgtElem[p])})
	}
	summarizeTypesWeak(d.bs.g, s, rep)
	return s
}

// summarizeTypesWeak is Algorithm 3, shared by the weak and strong
// drivers: types of represented nodes attach to their representative;
// typed-only resources (no data properties at all, hence TC = SC = ∅)
// collapse into the single node Nτ = N(∅,∅) carrying all their classes.
// Nτ is named at the first typed-only resource.
func summarizeTypesWeak(g *store.Graph, s *Summary, rep *representer) {
	typ := s.Graph.Vocab().Type
	ntau := dict.None
	emitted := make(map[store.Triple]bool)
	for _, t := range g.Types {
		r := s.NodeOf.Get(t.S)
		if r == dict.None {
			if ntau == dict.None {
				ntau = rep.node(nil, nil)
			}
			r = ntau
			s.NodeOf.Set(t.S, r)
		}
		if e := (store.Triple{S: r, P: typ, O: s.terms.Get(t.O)}); !emitted[e] {
			emitted[e] = true
			s.Graph.Types = append(s.Graph.Types, e)
		}
	}
}
