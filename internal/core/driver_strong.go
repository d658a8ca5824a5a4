package core

// driver_strong.go maintains the strong summary S_G (Definition 15) and
// the typed strong summary TS_G (Definition 17), which is the same
// construction over the untyped nodes only.

import (
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// strongDriver maintains a strong-style quotient: a node's class is its
// (target clique, source clique) pair, so each summary node is in
// bijection with an observed pair and is named N(TC, SC), and a property
// may label several summary edges (§5.1). The cliqueTracker maintains the
// cliques as union-finds (cliques only merge under insertion) and each
// node carries one representative property per side. Clique merges
// reconcile lazily — edge keys store raw representative elements and are
// canonicalized through Find at snapshot time — while the one non-merge
// event under insertion, a node acquiring its first clique on a side,
// eagerly re-keys that node's incident edges (O(degree)). A data deletion
// that touches the cliques may split one and cannot be applied.
//
// For TS_G typed nodes group by class set and stay out of the cliques
// ("for the typed strong summary cliques are computed only for untyped
// data nodes", §6.1): classes is the set's tracker, and a first type
// migrates the node out — exactly when it never related two properties on
// a side. For S_G classes is nil: typing does not affect strong
// equivalence.
type strongDriver struct {
	edgeTracker
	k       Kind
	classes *classSetTracker
	ct      *cliqueTracker
}

func newStrongDriver(bs *BuilderSet, k Kind) *strongDriver {
	d := &strongDriver{k: k}
	if k == TypedStrong {
		d.classes = bs.classes
	}
	d.edgeTracker = edgeTracker{bs: bs, classOf: d.ref}
	return d
}

func (d *strongDriver) ref(n dict.ID) classRef {
	if sid, typed := d.classes.set(n); typed {
		return classRef{tag: refSet, a: sid}
	}
	st := d.ct.nodes.Get(n)
	return classRef{tag: refClique, a: st.repIn, b: st.repOut}
}

// note records t in the cliques of its untyped ends, reporting which end
// acquired its first clique on that side.
func (d *strongDriver) note(t store.Triple) (firstOut, firstIn bool) {
	if !d.classes.isTyped(t.S) {
		firstOut = d.ct.noteSubject(t.S, t.P)
	}
	if !d.classes.isTyped(t.O) {
		firstIn = d.ct.noteObject(t.O, t.P)
	}
	return firstOut, firstIn
}

// seed computes every clique before any edge key, so nothing re-keys.
func (d *strongDriver) seed() {
	d.ct = newCliqueTracker(d.bs.g.Dict().MaxID())
	for _, t := range d.bs.g.Data {
		d.note(t)
	}
	d.recount()
}

func (d *strongDriver) dataAdded(t store.Triple) {
	firstOut, firstIn := d.note(t)
	if firstOut {
		d.rekey(t.S)
	}
	if firstIn {
		d.rekey(t.O)
	}
	d.append(t)
}

// dataDeleted is exact when both ends are typed — the edge's key is
// refcounted and the cliques never saw it. Otherwise the union that
// linked its properties cannot be undone.
func (d *strongDriver) dataDeleted(i int32, t store.Triple) bool {
	if d.classes.isTyped(t.S) && d.classes.isTyped(t.O) {
		d.remove(i)
		return true
	}
	return false
}

// typeAdded: a grown class set re-keys the node's incident edges; a first
// type also takes the node out of the cliques, which is exact unless the
// node linked two properties there.
func (d *strongDriver) typeAdded(ev typeEvent) bool {
	if d.classes == nil || !ev.changed {
		return true
	}
	if ev.old < 0 && !d.ct.drop(ev.node) {
		return false
	}
	d.rekey(ev.node)
	return true
}

// typeDeleted: a node still typed after the shrink just re-keys; a node
// losing its last class re-enters the cliques by replaying its surviving
// incidences (cliques only merge, so insertion is exact).
func (d *strongDriver) typeDeleted(ev typeEvent) {
	if d.classes == nil || !ev.changed {
		return
	}
	n := ev.node
	if !d.classes.isTyped(n) {
		for _, i := range d.bs.adj.out.Get(n) {
			d.ct.noteSubject(n, d.bs.g.Data[i].P)
		}
		for _, i := range d.bs.adj.in.Get(n) {
			d.ct.noteObject(n, d.bs.g.Data[i].P)
		}
	}
	d.rekey(n)
}

// snapshot names the class-set nodes by set ID, then the cliques by
// ascending node ID: an order that depends on the input only. Every edge
// key's class is some held node's or set's, so naming the edges interns
// nothing new.
func (d *strongDriver) snapshot() *Summary {
	s, rep := d.bs.startSummary(d.k)
	srcM, tgtM := d.ct.memberLists()

	names := make(map[[2]int32]dict.ID)
	cliqueName := func(repIn, repOut int32) dict.ID {
		key := [2]int32{-1, -1}
		var in, out []dict.ID
		if repIn >= 0 {
			key[0] = d.ct.tgtUF.Find(repIn)
			in = tgtM[key[0]]
		}
		if repOut >= 0 {
			key[1] = d.ct.srcUF.Find(repOut)
			out = srcM[key[1]]
		}
		id, ok := names[key]
		if !ok {
			id = rep.node(in, out)
			names[key] = id
		}
		return id
	}
	var setNode []dict.ID
	if d.classes != nil {
		setNode = d.classes.summarize(s, rep)
	}
	name := func(r classRef) dict.ID {
		if r.tag == refSet {
			return setNode[r.a]
		}
		return cliqueName(r.a, r.b)
	}

	for n, st := range d.ct.nodes.All() {
		if st.seen {
			s.NodeOf[n] = cliqueName(st.repIn, st.repOut)
		}
	}
	// Stale keys of merged classes canonicalize to equal triples here and
	// collapse in the finalizing SortDedup.
	for k := range d.counts {
		s.Graph.Data = append(s.Graph.Data, store.Triple{S: name(k.s), P: k.p, O: name(k.o)})
	}
	if d.classes == nil {
		summarizeTypesWeak(d.bs.g, s, rep)
	}
	return s
}
