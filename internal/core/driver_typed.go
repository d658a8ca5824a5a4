package core

// driver_typed.go maintains the type-based summary T_G (Definition 12)
// and the typed weak summary TW_G (Definition 14). Both — like the typed
// strong summary in driver_strong.go — share the BuilderSet's
// classSetTracker: typed nodes partition by their exact class set, and a
// node's set changing — or a node gaining its first type, which migrates
// it out of the untyped partition — re-keys exactly that node's incident
// edges.

import (
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// typeBasedDriver maintains T_G: typed resources with the same class set
// X collapse into C(X); every untyped resource is equivalent only to
// itself and is represented by a fresh copy C(∅). Every class change is a
// per-node migration and every edge is refcounted, so the driver applies
// every event exactly.
type typeBasedDriver struct {
	edgeTracker
}

func newTypeBasedDriver(bs *BuilderSet) *typeBasedDriver {
	d := &typeBasedDriver{}
	d.edgeTracker = edgeTracker{bs: bs, classOf: d.ref}
	return d
}

func (d *typeBasedDriver) ref(n dict.ID) classRef {
	if sid, typed := d.bs.classes.set(n); typed {
		return classRef{tag: refSet, a: sid}
	}
	return classRef{tag: refNode, a: int32(n)}
}

func (d *typeBasedDriver) seed()                    { d.recount() }
func (d *typeBasedDriver) dataAdded(t store.Triple) { d.append(t) }

func (d *typeBasedDriver) dataDeleted(i int32, _ store.Triple) bool {
	d.remove(i)
	return true
}

func (d *typeBasedDriver) typeAdded(ev typeEvent) bool {
	if ev.changed {
		d.rekey(ev.node)
	}
	return true
}

func (d *typeBasedDriver) typeDeleted(ev typeEvent) {
	if ev.changed {
		d.rekey(ev.node)
	}
}

// snapshot names the class-set nodes by their sorted class lists, then
// the untyped nodes' copies by ascending node ID: an order that depends
// on the graph's content only.
func (d *typeBasedDriver) snapshot() *Summary {
	bs := d.bs
	s, rep := bs.startSummary(TypeBased)
	setNode := bs.classes.summarize(s, rep)
	// The untyped data nodes are the data nodes nobody typed; each gets
	// its copy once, and the edges are named through the finished map.
	for n, refs := range bs.stats.dataNodes.n.All() {
		if *refs != 0 && !bs.classes.isTyped(n) {
			s.NodeOf.Set(n, rep.freshCopy(n))
		}
	}
	name := func(r classRef) dict.ID {
		if r.tag == refSet {
			return setNode[r.a]
		}
		return s.NodeOf.Get(dict.ID(r.a))
	}
	for k := range d.counts {
		s.Graph.Data = append(s.Graph.Data, store.Triple{S: name(k.s), P: s.terms.Get(k.p), O: name(k.o)})
	}
	return s
}

// typedWeakDriver maintains TW_G, the untyped-weak summary of T_G: typed
// resources group by class set; untyped ones are summarized weakly among
// themselves. Following §6, only untyped nodes feed the per-property
// source/target representatives ("in TW_G only untyped data nodes may be
// merged, so the typed data nodes … will not be stored in these
// structures"), so typed nodes never bridge cliques. A late-typed node
// that bridged two property representatives cannot be carved back out of
// the union-find, nor can a deleted edge with an untyped end.
type typedWeakDriver struct {
	edgeTracker
	wt *weakTracker
}

func newTypedWeakDriver(bs *BuilderSet) *typedWeakDriver {
	d := &typedWeakDriver{}
	d.edgeTracker = edgeTracker{bs: bs, classOf: d.ref}
	return d
}

func (d *typedWeakDriver) ref(n dict.ID) classRef {
	if sid, typed := d.bs.classes.set(n); typed {
		return classRef{tag: refSet, a: sid}
	}
	return classRef{tag: refWeak, a: d.wt.nodes.Get(n).rep}
}

func (d *typedWeakDriver) note(t store.Triple) {
	if !d.bs.classes.isTyped(t.S) {
		d.wt.noteSubject(t.S, t.P)
	}
	if !d.bs.classes.isTyped(t.O) {
		d.wt.noteObject(t.O, t.P)
	}
}

// seed: an untyped node's representative never changes once assigned, so
// the keys counted after the pass over the data are final.
func (d *typedWeakDriver) seed() {
	d.wt = newWeakTracker(dict.ID(d.bs.g.Dict().Len()))
	for _, t := range d.bs.g.Data {
		d.note(t)
	}
	d.recount()
}

func (d *typedWeakDriver) dataAdded(t store.Triple) {
	d.note(t)
	d.append(t)
}

// typeAdded: a grown class set re-keys the node's incident edges; a first
// type also takes the node out of the untyped partition.
func (d *typedWeakDriver) typeAdded(ev typeEvent) bool {
	if !ev.changed {
		return true
	}
	if ev.old < 0 && !d.wt.drop(ev.node) {
		return false
	}
	d.rekey(ev.node)
	return true
}

// dataDeleted is exact when both ends are typed — the edge's key is
// refcounted and the untyped partition never saw it.
func (d *typedWeakDriver) dataDeleted(i int32, t store.Triple) bool {
	if d.bs.classes.isTyped(t.S) && d.bs.classes.isTyped(t.O) {
		d.remove(i)
		return true
	}
	return false
}

// typeDeleted: a node still typed after the shrink just re-keys; a node
// losing its last class re-enters the untyped partition by feeding its
// surviving incident edges into the weak structure (unions only merge, so
// adding a node is exact — unlike removing one).
func (d *typedWeakDriver) typeDeleted(ev typeEvent) {
	if !ev.changed {
		return
	}
	n := ev.node
	if !d.bs.classes.isTyped(n) {
		for _, i := range d.bs.adj.out.Get(n) {
			d.wt.noteSubject(n, d.bs.g.Data[i].P)
		}
		for _, i := range d.bs.adj.in.Get(n) {
			d.wt.noteObject(n, d.bs.g.Data[i].P)
		}
	}
	d.rekey(n)
}

// snapshot names the class-set nodes by their sorted class lists, then
// the weak classes by ascending node ID: an order that depends on the
// graph's content only. Every edge key's class is some held node's or
// set's, so naming the edges interns nothing new.
func (d *typedWeakDriver) snapshot() *Summary {
	bs := d.bs
	s, rep := bs.startSummary(TypedWeak)
	setNode := bs.classes.summarize(s, rep)
	weakName := d.wt.names(rep)
	for n, st := range d.wt.nodes.All() {
		if st.seen {
			s.NodeOf.Set(n, weakName(st.rep))
		}
	}
	name := func(r classRef) dict.ID {
		if r.tag == refSet {
			return setNode[r.a]
		}
		return weakName(r.a)
	}
	for k := range d.counts {
		s.Graph.Data = append(s.Graph.Data, store.Triple{S: name(k.s), P: s.terms.Get(k.p), O: name(k.o)})
	}
	return s
}
