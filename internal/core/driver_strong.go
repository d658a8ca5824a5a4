package core

// driver_strong.go maintains the strong summary S_G (Definition 15)
// incrementally. A node's strong class is its (target clique, source
// clique) pair; the cliqueTracker maintains the cliques as union-finds
// (cliques only merge under insertion) and each node carries one
// representative property per side. Clique merges reconcile lazily —
// summary-edge keys store raw representative elements and are
// canonicalized through Find at snapshot time — while the single
// non-merge event, a node acquiring its first clique on a side, eagerly
// re-keys that node's incident edges (O(degree)). No rebuild is ever
// needed: typing does not affect strong equivalence.

import (
	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

type strongDriver struct {
	bs       *BuilderSet
	ct       *cliqueTracker
	edges    *edgeTracker
	dirty    bool
	nRebuild uint64
}

func newStrongDriver(bs *BuilderSet) *strongDriver {
	return &strongDriver{bs: bs, ct: newCliqueTracker(), edges: newEdgeTracker()}
}

func (d *strongDriver) kind() Kind            { return Strong }
func (d *strongDriver) needsAdjacency() bool  { return true }
func (d *strongDriver) needsClasses() bool    { return false }
func (d *strongDriver) rebuilds() uint64      { return d.nRebuild }
func (d *strongDriver) typeAdded(typeEvent)   {}
func (d *strongDriver) typeDeleted(typeEvent) {}

// dataDeleted: removing a data triple can split a clique (the union that
// linked its properties is not invertible), so the driver defers a counted
// rebuild to the next snapshot.
func (d *strongDriver) dataDeleted(int32, store.Triple) { d.dirty = true }

func (d *strongDriver) dataCompacted([]int32) {
	if d.dirty {
		d.edges.keys = d.edges.keys[:0] // the rebuild re-derives every key
	}
}

func (d *strongDriver) ref(n dict.ID) classRef {
	st := d.ct.nodes[n]
	return classRef{tag: refClique, a: st.repIn, b: st.repOut}
}

func (d *strongDriver) key(t store.Triple) edgeKey {
	return edgeKey{s: d.ref(t.S), p: t.P, o: d.ref(t.O)}
}

func (d *strongDriver) feed(t store.Triple) {
	firstOut := d.ct.noteSubject(t.S, t.P)
	firstIn := d.ct.noteObject(t.O, t.P)
	if firstOut {
		rekeyIncident(d.bs, d.edges, t.S, d.key)
	}
	if firstIn {
		rekeyIncident(d.bs, d.edges, t.O, d.key)
	}
	d.edges.append(d.key(t))
}

func (d *strongDriver) dataAdded(_ int32, t store.Triple) {
	if d.dirty {
		return
	}
	d.feed(t)
}

func (d *strongDriver) rebuild() {
	d.nRebuild++
	d.ct = newCliqueTracker()
	d.edges.reset(len(d.bs.g.Data))
	for _, t := range d.bs.g.Data {
		d.feed(t)
	}
	d.dirty = false
}

func (d *strongDriver) snapshot() *Summary {
	if d.dirty {
		d.rebuild()
	}
	g := d.bs.g
	out, rep := startSummary(g, Strong, d.bs.names)
	srcM, tgtM := d.ct.memberLists()

	names := make(map[[2]int32]dict.ID)
	name := func(r classRef) dict.ID {
		tc, sc := int32(-1), int32(-1)
		if r.a >= 0 {
			tc = d.ct.tgtUF.Find(r.a)
		}
		if r.b >= 0 {
			sc = d.ct.srcUF.Find(r.b)
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

	// Stale keys of merged classes canonicalize to equal triples here and
	// collapse in the finalizing SortDedup.
	for k := range d.edges.counts {
		out.Data = append(out.Data, store.Triple{S: name(k.s), P: k.p, O: name(k.o)})
	}

	nodeOf := make(map[dict.ID]dict.ID, len(d.ct.nodes))
	for n, st := range d.ct.nodes {
		nodeOf[n] = name(classRef{tag: refClique, a: st.repIn, b: st.repOut})
	}
	summarizeTypesWeak(g, out, rep, nodeOf)
	return &Summary{Graph: out, NodeOf: nodeOf}
}
