package core

// trackers.go holds the incremental state shared by the quotient engine's
// per-kind drivers (engine.go): node adjacency over the accumulated data
// triples, interned class sets, incrementally maintained property cliques,
// and the refcounted summary-edge bookkeeping that lets drivers re-represent
// nodes without re-scanning the graph.

import (
	"encoding/binary"
	"slices"
	"sort"

	"rdfsum/internal/dict"
	"rdfsum/internal/store"
	"rdfsum/internal/unionfind"
)

// classRef identifies a node's current equivalence class inside one driver,
// at the granularity the driver's edge bookkeeping needs. The encoding is
// deliberately "raw" (union-find elements, not canonical roots): classes
// that merge are reconciled lazily at snapshot time by canonicalizing the
// refs, while the only non-merge class changes — a node migrating between
// partitions — eagerly re-key that node's incident edges. Every field is
// 32 bits wide, so edgeKey has no padding and hashes as one block of
// memory instead of field by field.
type classRef struct {
	tag, a, b int32
}

const (
	// refClique: an untyped node under a strong-style driver.
	// a = representative in-property element (-1 for the empty target
	// clique), b = representative out-property element (-1 for ∅).
	refClique int32 = iota
	// refSet: a typed node; a = interned class-set ID.
	refSet
	// refWeak: an untyped node under a weak-style driver; a = the
	// union-find element it first met (weakNode.rep).
	refWeak
	// refNode: an untyped node represented by a fresh copy of itself
	// (type-based summary); a = the node's own dictionary ID.
	refNode
)

// edgeKey is one summary data edge at classRef granularity.
type edgeKey struct {
	s classRef
	p dict.ID
	o classRef
}

// edgeTracker maintains the multiset of summary data edges of one driver,
// which embeds it: counts is the refcounted edge map a snapshot reads, and
// keys records, per input data triple (parallel to Graph.Data), the exact
// key the triple currently contributes to — so a re-representation can
// decrement precisely the entry it incremented, regardless of merges that
// happened in between. Outside a migration keys[i] equals key(Data[i]),
// which is why keys need not exist until something migrates: recount
// leaves them nil and the set's first mutation derives them (index).
type edgeTracker struct {
	bs      *BuilderSet
	classOf func(n dict.ID) classRef // n's current class in the embedding driver
	counts  map[edgeKey]int
	keys    []edgeKey
}

func (e *edgeTracker) tracker() *edgeTracker { return e }

func (e *edgeTracker) key(t store.Triple) edgeKey {
	return edgeKey{s: e.classOf(t.S), p: t.P, o: e.classOf(t.O)}
}

// recount derives counts from scratch over the graph's data triples under
// the driver's current classes — the last step of every tracking driver's
// seed. The per-triple keys are dropped with the state they described.
func (e *edgeTracker) recount() {
	e.counts = make(map[edgeKey]int)
	e.keys = nil
	for _, t := range e.bs.g.Data {
		e.counts[e.key(t)]++
	}
}

// index derives the per-triple keys of an already counted graph.
func (e *edgeTracker) index() {
	data := e.bs.g.Data
	e.keys = make([]edgeKey, len(data))
	for i, t := range data {
		e.keys[i] = e.key(t)
	}
}

// append records the key of the data triple just appended to the graph.
func (e *edgeTracker) append(t store.Triple) {
	k := e.key(t)
	e.keys = append(e.keys, k)
	e.counts[k]++
}

// rekey moves every data triple incident to n to its key under n's new
// class — the migration primitive, O(degree of n).
func (e *edgeTracker) rekey(n dict.ID) {
	e.bs.adj.each(n, func(i int32) {
		k := e.key(e.bs.g.Data[i])
		if old := e.keys[i]; old != k {
			e.decrement(old)
			e.counts[k]++
			e.keys[i] = k
		}
	})
}

// remove decrements the key data triple i contributes — the exact
// decremental path a deletion takes when the driver's bookkeeping is
// refcounted. The stale keys[i] entry dies in the following compact.
func (e *edgeTracker) remove(i int32) { e.decrement(e.keys[i]) }

func (e *edgeTracker) decrement(k edgeKey) {
	if c := e.counts[k]; c <= 1 {
		delete(e.counts, k)
	} else {
		e.counts[k] = c - 1
	}
}

// compact renumbers keys after the graph's data component dropped the
// positions mapped to -1: keys[remap[i]] = keys[i] for survivors.
func (e *edgeTracker) compact(remap []int32) {
	out := e.keys[:0]
	for i, k := range e.keys {
		if remap[i] >= 0 {
			out = append(out, k)
		}
	}
	e.keys = out
}

// adjacency indexes the accumulated data triples by endpoint, so drivers
// can re-key a node's incident edges in O(degree) when it is
// re-represented. Values are indexes into Graph.Data. A seeded set has
// none: its first mutation builds it from the graph (BuilderSet.index).
type adjacency struct {
	out dict.Table[[]int32]
	in  dict.Table[[]int32]
}

func indexAdjacency(g *store.Graph) *adjacency {
	a := &adjacency{}
	a.out.Grow(dict.ID(g.Dict().Len()))
	a.in.Grow(dict.ID(g.Dict().Len()))
	for i, t := range g.Data {
		a.add(t, int32(i))
	}
	return a
}

func (a *adjacency) add(t store.Triple, i int32) {
	out := a.out.Ptr(t.S)
	*out = append(*out, i)
	in := a.in.Ptr(t.O)
	*in = append(*in, i)
}

// each visits the indexes of n's incident data triples (out-edges, then
// in-edges; a self-loop is visited twice, which re-keying tolerates).
func (a *adjacency) each(n dict.ID, fn func(i int32)) {
	for _, i := range a.out.Get(n) {
		fn(i)
	}
	for _, i := range a.in.Get(n) {
		fn(i)
	}
}

// remap rewrites every stored index through remap after the data component
// compacted away deleted positions (-1 = deleted). A node whose last
// incident edge died is left an empty list.
func (a *adjacency) remap(remap []int32) {
	for _, t := range []*dict.Table[[]int32]{&a.out, &a.in} {
		for _, list := range t.All() {
			kept := (*list)[:0]
			for _, i := range *list {
				if ni := remap[i]; ni >= 0 {
					kept = append(kept, ni)
				}
			}
			*list = kept
		}
	}
}

// typeEvent describes the effect of one type triple on the class-set
// tracker. Drivers read the node's new set through the tracker itself.
type typeEvent struct {
	node    dict.ID
	old     int32 // set ID before the triple; -1 if the node was untyped
	changed bool  // false when the class was already in the node's set
}

// classSetTracker maintains, for every typed resource, its current class
// set (sorted, deduplicated — Definition 12's grouping key), interning
// equal sets under one dense ID so drivers can use set IDs in edge keys.
// It is shared by the type-based, typed-weak and typed-strong drivers of a
// BuilderSet: one update serves all three.
type classSetTracker struct {
	setOf   dict.Table[int32] // node -> its interned set ID + 1; 0 = untyped
	byKey   map[string]int32  // canonical byte key -> set ID
	classes [][]dict.ID       // set ID -> sorted class IDs
	members []int             // set ID -> nodes currently holding that set
	set1    []dict.ID         // scratch: the candidate set of one update
	key     []byte            // scratch: its byte key
}

func newClassSetTracker() *classSetTracker {
	return &classSetTracker{byKey: make(map[string]int32)}
}

// set returns n's interned class set. A nil tracker — the one an
// untyped kind holds — types nothing.
func (c *classSetTracker) set(n dict.ID) (sid int32, typed bool) {
	if c == nil {
		return 0, false
	}
	v := c.setOf.Get(n)
	return v - 1, v != 0
}

func (c *classSetTracker) isTyped(n dict.ID) bool {
	_, typed := c.set(n)
	return typed
}

// addType applies one type triple (n, τ, cls) and reports how n's set
// changed. Class sets only grow per node, so the only events are "first
// type" (old == -1) and "set grew".
func (c *classSetTracker) addType(n, cls dict.ID) typeEvent {
	ev := typeEvent{node: n, old: -1}
	var set []dict.ID
	old, typed := c.set(n)
	if typed {
		ev.old = old
		set = c.classes[old]
	}
	i := sort.Search(len(set), func(i int) bool { return set[i] >= cls })
	if i < len(set) && set[i] == cls {
		return ev
	}
	c.set1 = append(append(append(c.set1[:0], set[:i]...), cls), set[i:]...)
	sid := c.intern(c.set1)
	if typed {
		c.members[old]--
	}
	c.members[sid]++
	c.setOf.Set(n, sid+1)
	ev.changed = true
	return ev
}

// removeType applies the deletion of the type triple (n, τ, cls): n's
// class set shrinks (sets are refcount-free because the graph stores type
// triples set-wise per pair after a delete removes every copy). Exact and
// invertible — the one quotient-relevant structure deletions never force a
// rebuild of. The returned event mirrors addType's; when the node loses
// its last class it leaves the typed partition entirely (setOf drops it).
func (c *classSetTracker) removeType(n, cls dict.ID) typeEvent {
	ev := typeEvent{node: n, old: -1}
	old, typed := c.set(n)
	if !typed {
		return ev
	}
	ev.old = old
	set := c.classes[old]
	i := sort.Search(len(set), func(i int) bool { return set[i] >= cls })
	if i >= len(set) || set[i] != cls {
		return ev
	}
	ev.changed = true
	c.members[old]--
	if len(set) == 1 {
		c.setOf.Set(n, 0)
		return ev
	}
	c.set1 = append(append(c.set1[:0], set[:i]...), set[i+1:]...)
	sid := c.intern(c.set1)
	c.members[sid]++
	c.setOf.Set(n, sid+1)
	return ev
}

// intern returns the ID of set, which it copies when it is new; callers
// build candidate sets in the tracker's scratch buffers.
func (c *classSetTracker) intern(set []dict.ID) int32 {
	c.key = c.key[:0]
	for _, id := range set {
		c.key = binary.LittleEndian.AppendUint32(c.key, uint32(id))
	}
	if sid, ok := c.byKey[string(c.key)]; ok {
		return sid
	}
	sid := int32(len(c.classes))
	c.byKey[string(c.key)] = sid
	c.classes = append(c.classes, slices.Clone(set))
	c.members = append(c.members, 0)
	return sid
}

// summarize fills in the typed half of a type-first summary — every typed
// node maps to its set's node C(X), and each set X some node holds
// contributes the triples C(X) τ c for c ∈ X (the dcls structure of §6.1)
// — and returns the nodes by set ID, for the caller to name edge ends
// through: C(X) is rendered once per held set per snapshot. The held sets
// are named in the order of their (sorted) class-ID lists, not by set ID,
// which records the order the sets were first met in. (Sets nobody holds
// any more keep the zero ID and are never looked up: an edge key or a
// setOf entry always names a held set.)
func (c *classSetTracker) summarize(s *Summary, rep *representer) []dict.ID {
	typ := s.Graph.Vocab().Type
	var held []int32
	for sid, count := range c.members {
		if count > 0 {
			held = append(held, int32(sid))
		}
	}
	slices.SortFunc(held, func(a, b int32) int { return slices.Compare(c.classes[a], c.classes[b]) })
	setNode := make([]dict.ID, len(c.classes))
	for _, sid := range held {
		setNode[sid] = rep.classSetNode(c.classes[sid])
		for _, cls := range c.classes[sid] {
			s.Graph.Types = append(s.Graph.Types, store.Triple{S: setNode[sid], P: typ, O: s.terms.Get(cls)})
		}
	}
	for n, v := range c.setOf.All() {
		if *v != 0 {
			s.NodeOf.Set(n, setNode[*v-1])
		}
	}
	return setNode
}

// weakNode is one node's place in a weakTracker: the (property, side)
// element it first met — its class is that element's class — and whether
// it ever met a second one. A node that did not linked no two elements,
// so it can leave the structure exactly (typed-weak's late typing). The
// zero weakNode is a node the tracker does not hold.
type weakNode struct {
	rep   int32
	seen  bool
	multi bool
}

// weakTracker maintains weak equivalence (Definition 7) among the nodes
// it is told about, as the paper's Algorithms 1–2 do: every data property
// has one source and one target representative (dpSrc / dpTarg), here the
// elements of a union-find, and a node with several of them merges them
// (MERGEDATANODES). Nodes are not elements themselves — a node is in the
// class of the first representative it met — so the forest has two
// elements per property however large the graph, and classes only merge.
type weakTracker struct {
	uf      unionfind.UF
	srcElem map[dict.ID]int32 // data property -> source element
	tgtElem map[dict.ID]int32 // data property -> target element
	nodes   dict.Table[weakNode]
}

// newWeakTracker returns an empty tracker with room for the nodes up to
// max without growing.
func newWeakTracker(max dict.ID) *weakTracker {
	w := &weakTracker{srcElem: make(map[dict.ID]int32), tgtElem: make(map[dict.ID]int32)}
	w.nodes.Grow(max)
	return w
}

// noteSubject records that n is a subject of p; noteObject, an object.
func (w *weakTracker) noteSubject(n, p dict.ID) { w.note(n, p, w.srcElem) }
func (w *weakTracker) noteObject(n, p dict.ID)  { w.note(n, p, w.tgtElem) }

func (w *weakTracker) note(n, p dict.ID, side map[dict.ID]int32) {
	e, ok := side[p]
	if !ok {
		e = w.uf.Add()
		side[p] = e
	}
	switch st := w.nodes.Ptr(n); {
	case !st.seen:
		*st = weakNode{rep: e, seen: true}
	case st.rep != e:
		w.uf.Union(st.rep, e)
		st.multi = true
	}
}

// drop removes n if its departure cannot split a class; see
// cliqueTracker.drop.
func (w *weakTracker) drop(n dict.ID) bool {
	switch st := w.nodes.Get(n); {
	case st.multi:
		return false
	case st.seen:
		w.nodes.Set(n, weakNode{})
	}
	return true
}

// names names the current classes on demand: the class of element e is
// N(in, out) over the properties whose target resp. source representative
// fell into it (§4.1's N(∪TC, ∪SC)). Lists and names are indexed by
// union-find root.
func (w *weakTracker) names(rep *representer) func(e int32) dict.ID {
	inProps := make([][]dict.ID, w.uf.Len())
	outProps := make([][]dict.ID, w.uf.Len())
	for p, e := range w.srcElem {
		root := w.uf.Find(e)
		outProps[root] = append(outProps[root], p)
	}
	for p, e := range w.tgtElem {
		root := w.uf.Find(e)
		inProps[root] = append(inProps[root], p)
	}
	names := make([]dict.ID, w.uf.Len())
	return func(e int32) dict.ID {
		root := w.uf.Find(e)
		if names[root] == dict.None {
			names[root] = rep.node(inProps[root], outProps[root])
		}
		return names[root]
	}
}

// cliqueNodeState is one node's position in a cliqueTracker: the
// representative property on each side (its clique is the representative's
// clique), plus whether the node ever related two distinct properties on a
// side — the information needed to decide if the node can be dropped from
// the structure without a rebuild (typed-strong's late-typing migration).
// The zero state is a node the tracker does not hold.
type cliqueNodeState struct {
	repIn, repOut     int32 // property element, -1 = no clique on that side
	seen              bool
	multiIn, multiOut bool
}

// cliqueTracker maintains the source and target property cliques
// (Definition 5) incrementally: properties are union-find elements, and a
// data triple unions its property with the subject's (resp. object's)
// representative property. Cliques only merge under insertion, so the
// structure never needs revisiting; a node's clique pair is read through
// Find at snapshot time.
type cliqueTracker struct {
	propIdx map[dict.ID]int32
	props   []dict.ID
	srcUF   *unionfind.UF
	tgtUF   *unionfind.UF
	nodes   dict.Table[cliqueNodeState]
}

// newCliqueTracker returns an empty tracker with room for the nodes up to
// max without growing.
func newCliqueTracker(max dict.ID) *cliqueTracker {
	c := &cliqueTracker{
		propIdx: make(map[dict.ID]int32),
		srcUF:   &unionfind.UF{},
		tgtUF:   &unionfind.UF{},
	}
	c.nodes.Grow(max)
	return c
}

// prop interns p as a property element of both union-finds (same index).
func (c *cliqueTracker) prop(p dict.ID) int32 {
	if i, ok := c.propIdx[p]; ok {
		return i
	}
	i := c.srcUF.Add()
	c.tgtUF.Add()
	c.propIdx[p] = i
	c.props = append(c.props, p)
	return i
}

// noteSubject records that n is a subject of p; noteObject, an object.
// The return value reports a non-merge class change (n just acquired its
// clique on that side), which the caller must answer by re-keying n's
// incident edges.
func (c *cliqueTracker) noteSubject(n, p dict.ID) (first bool) { return c.note(n, p, false) }
func (c *cliqueTracker) noteObject(n, p dict.ID) (first bool)  { return c.note(n, p, true) }

func (c *cliqueTracker) note(n, p dict.ID, object bool) (first bool) {
	pi := c.prop(p)
	st := c.nodes.Ptr(n)
	if !st.seen {
		*st = cliqueNodeState{repIn: -1, repOut: -1, seen: true}
	}
	rep, multi, uf := &st.repOut, &st.multiOut, c.srcUF
	if object {
		rep, multi, uf = &st.repIn, &st.multiIn, c.tgtUF
	}
	switch {
	case *rep == pi:
		return false
	case *rep < 0:
		*rep = pi
		return true
	default:
		uf.Union(*rep, pi)
		*multi = true
		return false
	}
}

// drop removes n from the tracker if its departure cannot split a clique:
// a node that never related two distinct properties on either side
// contributed no property–property link, so deleting its assignment is
// exact. Returns false — leaving the tracker untouched — when n may be
// load-bearing, in which case the caller must schedule a rebuild.
func (c *cliqueTracker) drop(n dict.ID) bool {
	switch st := c.nodes.Get(n); {
	case st.multiIn || st.multiOut:
		return false
	case st.seen:
		c.nodes.Set(n, cliqueNodeState{})
	}
	return true
}

// memberLists groups the interned properties by their current clique roots
// on each side. Member order is irrelevant: the representation function
// sorts lexically.
func (c *cliqueTracker) memberLists() (srcM, tgtM map[int32][]dict.ID) {
	srcM = make(map[int32][]dict.ID)
	tgtM = make(map[int32][]dict.ID)
	for i, p := range c.props {
		sr := c.srcUF.Find(int32(i))
		tr := c.tgtUF.Find(int32(i))
		srcM[sr] = append(srcM[sr], p)
		tgtM[tr] = append(tgtM[tr], p)
	}
	return srcM, tgtM
}
