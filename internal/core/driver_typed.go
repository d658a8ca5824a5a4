package core

// driver_typed.go maintains the three type-first summaries incrementally.
// All three share the BuilderSet's classSetTracker: typed nodes partition
// by their exact class set (Definition 12), and a node's set growing — or
// a node gaining its first type, which migrates it out of the untyped
// partition — re-keys exactly that node's incident edges.
//
//   - typeBasedDriver (T_G): untyped nodes are fresh copies of
//     themselves, so every class change is a per-node migration and the
//     driver never rebuilds.
//   - typedWeakDriver (TW_G): untyped nodes are summarized weakly among
//     themselves. A late-typed node that bridged two property
//     representatives inside the union-find cannot be carved back out, so
//     the driver marks itself dirty and reconstructs on the next
//     snapshot; a node with at most one distinct (property, side)
//     incidence is dropped exactly.
//   - typedStrongDriver (TS_G): untyped nodes group by their
//     untyped-restricted clique pair; same late-typing rule, per side.

import (
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
	"rdfsum/internal/unionfind"
)

// --- type-based -----------------------------------------------------------

type typeBasedDriver struct {
	bs    *BuilderSet
	edges *edgeTracker
}

func newTypeBasedDriver(bs *BuilderSet) *typeBasedDriver {
	return &typeBasedDriver{bs: bs, edges: newEdgeTracker()}
}

func (d *typeBasedDriver) kind() Kind           { return TypeBased }
func (d *typeBasedDriver) needsAdjacency() bool { return true }
func (d *typeBasedDriver) needsClasses() bool   { return true }
func (d *typeBasedDriver) rebuilds() uint64     { return 0 }

func (d *typeBasedDriver) ref(n dict.ID) classRef {
	if sid, ok := d.bs.classes.setOf[n]; ok {
		return classRef{tag: refSet, a: sid}
	}
	return classRef{tag: refNode, a: int32(n)}
}

func (d *typeBasedDriver) key(t store.Triple) edgeKey {
	return edgeKey{s: d.ref(t.S), p: t.P, o: d.ref(t.O)}
}

func (d *typeBasedDriver) dataAdded(_ int32, t store.Triple) {
	d.edges.append(d.key(t))
}

func (d *typeBasedDriver) typeAdded(ev typeEvent) {
	if !ev.changed {
		return
	}
	rekeyIncident(d.bs, d.edges, ev.node, d.key)
}

// dataDeleted decrements the refcounted summary edge the triple
// contributes — the type-based summary is exactly decremental, so this
// driver never rebuilds under deletions either.
func (d *typeBasedDriver) dataDeleted(i int32, _ store.Triple) { d.edges.remove(i) }

func (d *typeBasedDriver) dataCompacted(remap []int32) { d.edges.compact(remap) }

// typeDeleted mirrors typeAdded: a shrunk (or emptied) class set is a
// per-node migration, re-keying exactly the node's incident edges.
func (d *typeBasedDriver) typeDeleted(ev typeEvent) {
	if !ev.changed {
		return
	}
	rekeyIncident(d.bs, d.edges, ev.node, d.key)
}

func (d *typeBasedDriver) snapshot() *Summary {
	g := d.bs.g
	out, rep := startSummary(g, TypeBased, d.bs.names)
	classes := d.bs.classes
	name := func(r classRef) dict.ID {
		if r.tag == refSet {
			return rep.classSetNode(classes.classes[r.a])
		}
		return rep.freshCopy(dict.ID(r.a))
	}

	for k := range d.edges.counts {
		out.Data = append(out.Data, store.Triple{S: name(k.s), P: k.p, O: name(k.o)})
	}

	nodeOf := make(map[dict.ID]dict.ID, len(classes.setOf))
	for n, sid := range classes.setOf {
		nodeOf[n] = rep.classSetNode(classes.classes[sid])
	}
	untypedCopies(d.bs, nodeOf, rep)
	classes.emitTypes(g, out, rep)
	return &Summary{Graph: out, NodeOf: nodeOf}
}

// untypedCopies extends nodeOf with the fresh-copy representatives of the
// untyped data-triple endpoints (the batch constructions' lazy nodeFor).
func untypedCopies(bs *BuilderSet, nodeOf map[dict.ID]dict.ID, rep *representer) {
	add := func(n dict.ID) {
		if _, ok := nodeOf[n]; !ok {
			nodeOf[n] = rep.freshCopy(n)
		}
	}
	for n := range bs.adj.out {
		add(n)
	}
	for n := range bs.adj.in {
		add(n)
	}
}

// --- typed weak -----------------------------------------------------------

// slot packs one (property, side) incidence for multi-detection: a node
// whose weak-structure unions all used a single slot linked no two
// property representatives and can be dropped exactly.
func packSlot(p dict.ID, side int) uint64 { return uint64(p)<<1 | uint64(side) }

type typedWeakDriver struct {
	bs       *BuilderSet
	uf       *unionfind.UF
	elemOf   map[dict.ID]int32  // untyped data participant -> forest element
	srcElem  map[dict.ID]int32  // data property -> source element
	tgtElem  map[dict.ID]int32  // data property -> target element
	slot     map[dict.ID]uint64 // participant -> first (property, side) slot
	multi    map[dict.ID]bool   // participant linked ≥2 distinct slots
	edges    *edgeTracker
	dirty    bool
	nRebuild uint64
}

func newTypedWeakDriver(bs *BuilderSet) *typedWeakDriver {
	d := &typedWeakDriver{bs: bs, edges: newEdgeTracker()}
	d.resetState(0)
	return d
}

func (d *typedWeakDriver) resetState(n int) {
	d.uf = &unionfind.UF{}
	d.elemOf = make(map[dict.ID]int32)
	d.srcElem = make(map[dict.ID]int32)
	d.tgtElem = make(map[dict.ID]int32)
	d.slot = make(map[dict.ID]uint64)
	d.multi = make(map[dict.ID]bool)
	d.edges.reset(n)
}

func (d *typedWeakDriver) kind() Kind           { return TypedWeak }
func (d *typedWeakDriver) needsAdjacency() bool { return true }
func (d *typedWeakDriver) needsClasses() bool   { return true }
func (d *typedWeakDriver) rebuilds() uint64     { return d.nRebuild }

func (d *typedWeakDriver) elem(m map[dict.ID]int32, key dict.ID) int32 {
	if e, ok := m[key]; ok {
		return e
	}
	e := d.uf.Add()
	m[key] = e
	return e
}

func (d *typedWeakDriver) noteUntyped(n, p dict.ID, side int, propElems map[dict.ID]int32) {
	d.uf.Union(d.elem(d.elemOf, n), d.elem(propElems, p))
	s := packSlot(p, side)
	if prev, ok := d.slot[n]; !ok {
		d.slot[n] = s
	} else if prev != s {
		d.multi[n] = true
	}
}

func (d *typedWeakDriver) ref(n dict.ID) classRef {
	if sid, ok := d.bs.classes.setOf[n]; ok {
		return classRef{tag: refSet, a: sid}
	}
	return classRef{tag: refWeak, a: d.elemOf[n]}
}

func (d *typedWeakDriver) key(t store.Triple) edgeKey {
	return edgeKey{s: d.ref(t.S), p: t.P, o: d.ref(t.O)}
}

func (d *typedWeakDriver) feed(t store.Triple) {
	if !d.bs.classes.isTyped(t.S) {
		d.noteUntyped(t.S, t.P, 0, d.srcElem)
	}
	if !d.bs.classes.isTyped(t.O) {
		d.noteUntyped(t.O, t.P, 1, d.tgtElem)
	}
	d.edges.append(d.key(t))
}

func (d *typedWeakDriver) dataAdded(_ int32, t store.Triple) {
	if d.dirty {
		return
	}
	d.feed(t)
}

func (d *typedWeakDriver) typeAdded(ev typeEvent) {
	if d.dirty || !ev.changed {
		return
	}
	n := ev.node
	if ev.old < 0 {
		// First type: migrate n out of the untyped partition.
		if _, participated := d.elemOf[n]; participated {
			if d.multi[n] {
				d.dirty = true
				return
			}
			delete(d.elemOf, n)
			delete(d.slot, n)
			delete(d.multi, n)
		}
	}
	rekeyIncident(d.bs, d.edges, n, d.key)
}

// dataDeleted is exact when both endpoints are typed — the edge's key is
// refcounted and the untyped partition never saw it. An untyped endpoint
// means the edge contributed a union that cannot be carved back out, so
// the driver defers a counted rebuild.
func (d *typedWeakDriver) dataDeleted(i int32, t store.Triple) {
	if d.dirty {
		return
	}
	if d.bs.classes.isTyped(t.S) && d.bs.classes.isTyped(t.O) {
		d.edges.remove(i)
		return
	}
	d.dirty = true
}

func (d *typedWeakDriver) dataCompacted(remap []int32) {
	if d.dirty {
		d.edges.keys = d.edges.keys[:0] // the rebuild re-derives every key
		return
	}
	d.edges.compact(remap)
}

// typeDeleted handles the class-set shrink exactly: a node still typed
// after the shrink just re-keys its incident edges; a node losing its
// last class re-enters the untyped partition by feeding its surviving
// incident edges into the weak structure (unions only merge, so adding a
// node is exact — unlike removing one).
func (d *typedWeakDriver) typeDeleted(ev typeEvent) {
	if d.dirty || !ev.changed {
		return
	}
	n := ev.node
	if !d.bs.classes.isTyped(n) {
		for _, i := range d.bs.adj.out[n] {
			d.noteUntyped(n, d.bs.g.Data[i].P, 0, d.srcElem)
		}
		for _, i := range d.bs.adj.in[n] {
			d.noteUntyped(n, d.bs.g.Data[i].P, 1, d.tgtElem)
		}
	}
	rekeyIncident(d.bs, d.edges, n, d.key)
}

func (d *typedWeakDriver) rebuild() {
	d.nRebuild++
	d.resetState(len(d.bs.g.Data))
	for _, t := range d.bs.g.Data {
		d.feed(t)
	}
	d.dirty = false
}

func (d *typedWeakDriver) snapshot() *Summary {
	if d.dirty {
		d.rebuild()
	}
	g := d.bs.g
	out, rep := startSummary(g, TypedWeak, d.bs.names)
	classes := d.bs.classes

	inProps := make(map[int32][]dict.ID)
	outProps := make(map[int32][]dict.ID)
	for p, e := range d.srcElem {
		root := d.uf.Find(e)
		outProps[root] = append(outProps[root], p)
	}
	for p, e := range d.tgtElem {
		root := d.uf.Find(e)
		inProps[root] = append(inProps[root], p)
	}
	names := make(map[int32]dict.ID)
	weakName := func(e int32) dict.ID {
		root := d.uf.Find(e)
		if id, ok := names[root]; ok {
			return id
		}
		id := rep.node(inProps[root], outProps[root])
		names[root] = id
		return id
	}
	name := func(r classRef) dict.ID {
		if r.tag == refSet {
			return rep.classSetNode(classes.classes[r.a])
		}
		return weakName(r.a)
	}

	for k := range d.edges.counts {
		out.Data = append(out.Data, store.Triple{S: name(k.s), P: k.p, O: name(k.o)})
	}

	nodeOf := make(map[dict.ID]dict.ID, len(classes.setOf)+len(d.elemOf))
	for n, sid := range classes.setOf {
		nodeOf[n] = rep.classSetNode(classes.classes[sid])
	}
	for n, e := range d.elemOf {
		nodeOf[n] = weakName(e)
	}
	classes.emitTypes(g, out, rep)
	return &Summary{Graph: out, NodeOf: nodeOf}
}

// --- typed strong ---------------------------------------------------------

type typedStrongDriver struct {
	bs       *BuilderSet
	ct       *cliqueTracker
	edges    *edgeTracker
	dirty    bool
	nRebuild uint64
}

func newTypedStrongDriver(bs *BuilderSet) *typedStrongDriver {
	return &typedStrongDriver{bs: bs, ct: newCliqueTracker(), edges: newEdgeTracker()}
}

func (d *typedStrongDriver) kind() Kind           { return TypedStrong }
func (d *typedStrongDriver) needsAdjacency() bool { return true }
func (d *typedStrongDriver) needsClasses() bool   { return true }
func (d *typedStrongDriver) rebuilds() uint64     { return d.nRebuild }

func (d *typedStrongDriver) ref(n dict.ID) classRef {
	if sid, ok := d.bs.classes.setOf[n]; ok {
		return classRef{tag: refSet, a: sid}
	}
	st := d.ct.nodes[n]
	return classRef{tag: refClique, a: st.repIn, b: st.repOut}
}

func (d *typedStrongDriver) key(t store.Triple) edgeKey {
	return edgeKey{s: d.ref(t.S), p: t.P, o: d.ref(t.O)}
}

func (d *typedStrongDriver) feed(t store.Triple) {
	var firstOut, firstIn bool
	if !d.bs.classes.isTyped(t.S) {
		firstOut = d.ct.noteSubject(t.S, t.P)
	}
	if !d.bs.classes.isTyped(t.O) {
		firstIn = d.ct.noteObject(t.O, t.P)
	}
	if firstOut {
		rekeyIncident(d.bs, d.edges, t.S, d.key)
	}
	if firstIn {
		rekeyIncident(d.bs, d.edges, t.O, d.key)
	}
	d.edges.append(d.key(t))
}

func (d *typedStrongDriver) dataAdded(_ int32, t store.Triple) {
	if d.dirty {
		return
	}
	d.feed(t)
}

func (d *typedStrongDriver) typeAdded(ev typeEvent) {
	if d.dirty || !ev.changed {
		return
	}
	n := ev.node
	if ev.old < 0 {
		// First type: migrate n out of the untyped-restricted cliques.
		if !d.ct.drop(n) {
			d.dirty = true
			return
		}
	}
	rekeyIncident(d.bs, d.edges, n, d.key)
}

// dataDeleted: exact refcounted decrement when both endpoints are typed
// (the untyped-restricted cliques never saw the edge); otherwise a clique
// may split, so the driver defers a counted rebuild.
func (d *typedStrongDriver) dataDeleted(i int32, t store.Triple) {
	if d.dirty {
		return
	}
	if d.bs.classes.isTyped(t.S) && d.bs.classes.isTyped(t.O) {
		d.edges.remove(i)
		return
	}
	d.dirty = true
}

func (d *typedStrongDriver) dataCompacted(remap []int32) {
	if d.dirty {
		d.edges.keys = d.edges.keys[:0] // the rebuild re-derives every key
		return
	}
	d.edges.compact(remap)
}

// typeDeleted mirrors typedWeak's: still-typed nodes just re-key; a node
// losing its last class re-enters the untyped-restricted cliques by
// replaying its surviving incidences (cliques only merge, so insertion is
// exact).
func (d *typedStrongDriver) typeDeleted(ev typeEvent) {
	if d.dirty || !ev.changed {
		return
	}
	n := ev.node
	if !d.bs.classes.isTyped(n) {
		for _, i := range d.bs.adj.out[n] {
			d.ct.noteSubject(n, d.bs.g.Data[i].P)
		}
		for _, i := range d.bs.adj.in[n] {
			d.ct.noteObject(n, d.bs.g.Data[i].P)
		}
	}
	rekeyIncident(d.bs, d.edges, n, d.key)
}

func (d *typedStrongDriver) rebuild() {
	d.nRebuild++
	d.ct = newCliqueTracker()
	d.edges.reset(len(d.bs.g.Data))
	for _, t := range d.bs.g.Data {
		d.feed(t)
	}
	d.dirty = false
}

func (d *typedStrongDriver) snapshot() *Summary {
	if d.dirty {
		d.rebuild()
	}
	g := d.bs.g
	out, rep := startSummary(g, TypedStrong, d.bs.names)
	classes := d.bs.classes
	srcM, tgtM := d.ct.memberLists()

	names := make(map[[2]int32]dict.ID)
	cliqueName := func(a, b int32) dict.ID {
		tc, sc := int32(-1), int32(-1)
		if a >= 0 {
			tc = d.ct.tgtUF.Find(a)
		}
		if b >= 0 {
			sc = d.ct.srcUF.Find(b)
		}
		key := [2]int32{tc, sc}
		if id, ok := names[key]; ok {
			return id
		}
		var in, out []dict.ID
		if tc >= 0 {
			in = tgtM[tc]
		}
		if sc >= 0 {
			out = srcM[sc]
		}
		id := rep.node(in, out)
		names[key] = id
		return id
	}
	name := func(r classRef) dict.ID {
		if r.tag == refSet {
			return rep.classSetNode(classes.classes[r.a])
		}
		return cliqueName(r.a, r.b)
	}

	for k := range d.edges.counts {
		out.Data = append(out.Data, store.Triple{S: name(k.s), P: k.p, O: name(k.o)})
	}

	nodeOf := make(map[dict.ID]dict.ID, len(classes.setOf)+len(d.ct.nodes))
	for n, sid := range classes.setOf {
		nodeOf[n] = rep.classSetNode(classes.classes[sid])
	}
	for n, st := range d.ct.nodes {
		nodeOf[n] = cliqueName(st.repIn, st.repOut)
	}
	classes.emitTypes(g, out, rep)
	return &Summary{Graph: out, NodeOf: nodeOf}
}
