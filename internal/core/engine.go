package core

// engine.go is the quotient engine: one BuilderSet over per-kind drivers
// that maintain their summary under triple insertions and deletions,
// sharing a single accumulated graph, one class-set tracker and one
// adjacency index when several kinds are built together. It is
// also the only construction of each kind: Summarize seeds a set with the
// graph and snapshots it, because a from-scratch build is maintenance
// with an empty history.
//
// The design generalizes the paper's observation behind Algorithms 1–3
// (the weak summary is maintainable one triple at a time) to every
// quotient the paper defines:
//
//   - Equivalence classes only MERGE under insertion for the weak
//     relation and for property cliques, so those structures are
//     union-finds whose stale references are reconciled lazily (Find) at
//     snapshot time.
//   - The only non-merge class changes are per-node MIGRATIONS: a node
//     acquiring its first source/target clique (strong kinds), its first
//     type (typed kinds take the node out of the untyped partition), or a
//     changed class set. Migrations re-key exactly the node's incident
//     edges, using the adjacency index — O(degree), never O(|G|).
//   - What a union-find cannot undo — a deleted data edge that fed one, a
//     late-typed node that already related properties inside the untyped
//     partition — the driver refuses, and the set reseeds it before its
//     next snapshot: the one event class that costs O(|G|), counted and
//     reported via Rebuilds. Streams that type nodes before giving them
//     data edges never pay it.
//
// Each driver has one from-scratch construction, seed, run when the set
// is created over a graph and again for such a rebuild. Seeding fills
// what a snapshot reads — union-finds, trackers, refcounted edge counts,
// input stats — and nothing per triple: the adjacency index and the
// per-triple edge keys only serve migrations, so the first mutation the
// set sees derives them from the graph (index). A set that is seeded,
// snapshotted and dropped never pays for them.
//
// Snapshots are cheap and non-destructive: Summary() materializes the
// current summary in O(state) — equivalence structures are read through
// Find, never recomputed — and the builder keeps absorbing triples, which
// is what makes the engine epoch-friendly for the live subsystem.

import (
	"fmt"
	"sort"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// driver is the per-kind half of the engine: it builds its state from
// the set's graph, reacts to appended and deleted data and type triples,
// and materializes summaries from that state. An event handler returning
// false could not apply the event exactly; the set then stops feeding the
// driver and reseeds it before its next snapshot.
type driver interface {
	// seed builds the driver's state from scratch over the set's graph,
	// whose class sets the shared tracker already holds — the kind's
	// from-scratch construction, also its rebuild.
	seed()
	// tracker is the per-triple edge bookkeeping of a kind whose nodes
	// change class other than by merging; nil for the weak kind.
	tracker() *edgeTracker
	// dataAdded reacts to t, just appended to the graph's data. The
	// shared adjacency index does not yet contain it.
	dataAdded(t store.Triple)
	// typeAdded reacts to an appended type triple, after the shared
	// class-set tracker absorbed it.
	typeAdded(ev typeEvent) bool
	// dataDeleted reacts to the pending removal of g.Data[i] == t.
	// Positions are pre-compaction; the shared adjacency index still
	// contains t.
	dataDeleted(i int32, t store.Triple) bool
	// typeDeleted reacts to a deleted type triple, after the shared
	// class-set tracker shrank the node's set.
	typeDeleted(ev typeEvent)
	snapshot() *Summary
}

// maintained is one driver of a set with the set's bookkeeping about it.
type maintained struct {
	driver
	stale    bool   // refused an event: reseed before the next snapshot
	rebuilds uint64 // reseeds paid so far
}

// BuilderSet maintains several summary kinds over one shared graph with
// one pass per inserted triple: the class-set tracker, the adjacency
// index and the input statistics are computed once and shared by every
// driver, instead of re-derived per kind. A set over one kind is the
// single-kind incremental builder. Insertions cost O(α) amortized;
// deletions are exact or defer a counted rebuild (see DeleteBatch).
// Snapshots (Summary) are independent of one another and do not freeze
// the set.
type BuilderSet struct {
	g *store.Graph
	// names is where every snapshot of every kind interns its node URIs:
	// one overlay of g's dictionary for the set's lifetime, so a name is
	// interned once however many snapshots carry it and g's dictionary
	// holds input terms only.
	names   *dict.Dict
	classes *classSetTracker // nil unless a typed kind is maintained
	stats   *inputStats
	drivers []*maintained
	byKind  [NumKinds]*maintained
	// adj and the drivers' per-triple edge keys only serve migrations, so
	// they do not exist until the set's first mutation (see index);
	// tracked reports whether any driver has such state at all.
	adj     *adjacency
	tracked bool
}

// NewBuilderSet returns a builder set over g maintaining the given kinds
// (deduplicated; the empty set is allowed and maintains nothing). The
// graph is adopted, not copied: its existing triples seed the drivers —
// class sets before data, so pre-typed nodes never look late-typed — and
// later Add calls append to it.
func NewBuilderSet(g *store.Graph, kinds []Kind) (*BuilderSet, error) {
	bs := &BuilderSet{g: g, names: dict.Overlay(g.Dict()), stats: &inputStats{}}
	for _, k := range kinds {
		if int(k) < 0 || int(k) >= NumKinds {
			return nil, fmt.Errorf("core: unknown summary kind %d", int(k))
		}
		if bs.byKind[k] != nil {
			continue
		}
		if k != Weak && k != Strong && bs.classes == nil {
			bs.classes = newClassSetTracker()
		}
		var d driver
		switch k {
		case Weak:
			d = &weakDriver{bs: bs}
		case Strong, TypedStrong:
			d = newStrongDriver(bs, k)
		case TypeBased:
			d = newTypeBasedDriver(bs)
		case TypedWeak:
			d = newTypedWeakDriver(bs)
		}
		m := &maintained{driver: d}
		bs.drivers = append(bs.drivers, m)
		bs.byKind[k] = m
		bs.tracked = bs.tracked || d.tracker() != nil
	}
	if len(bs.drivers) == 0 {
		// Nothing to seed: stats are only consumed through maintained
		// summaries.
		return bs, nil
	}
	// Per-node tables are sized for the dictionary once, not grown by the
	// seeding writes.
	bs.stats.dataNodes.n.Grow(g.Dict().MaxID())
	if bs.classes != nil {
		bs.classes.setOf.Grow(g.Dict().MaxID())
	}
	for _, t := range g.Types {
		bs.stats.typ(t)
		if bs.classes != nil {
			bs.classes.addType(t.S, t.O)
		}
	}
	for _, t := range g.Data {
		bs.stats.data(t)
	}
	for _, d := range bs.drivers {
		d.seed()
	}
	return bs, nil
}

// index derives the per-triple state from the graph, once, before the
// first mutation is applied: the adjacency index and every tracking
// driver's edge keys. Between mutations a triple's key is a function of
// the drivers' current classes, so what a seeded set derives here equals
// what a set fed the same triples one by one has accumulated.
func (bs *BuilderSet) index() {
	if bs.adj != nil || !bs.tracked {
		return
	}
	bs.adj = indexAdjacency(bs.g)
	for _, d := range bs.drivers {
		if e := d.tracker(); e != nil {
			e.index()
		}
	}
}

// Graph exposes the shared accumulated graph.
func (bs *BuilderSet) Graph() *store.Graph { return bs.g }

// Kinds lists the maintained kinds in canonical order.
func (bs *BuilderSet) Kinds() []Kind {
	out := make([]Kind, 0, len(bs.drivers))
	for _, k := range Kinds {
		if bs.byKind[k] != nil {
			out = append(out, k)
		}
	}
	return out
}

// Maintains reports whether kind is maintained by this set.
func (bs *BuilderSet) Maintains(kind Kind) bool {
	return int(kind) >= 0 && int(kind) < NumKinds && bs.byKind[kind] != nil
}

// Add routes one string-level triple into the graph and every driver.
func (bs *BuilderSet) Add(t rdf.Triple) {
	bs.index()
	d, ty := len(bs.g.Data), len(bs.g.Types)
	bs.g.Add(t)
	bs.route(d, ty)
}

// AddEncoded routes one encoded triple (IDs from Graph().Dict()).
func (bs *BuilderSet) AddEncoded(s, p, o dict.ID) {
	bs.index()
	d, ty := len(bs.g.Data), len(bs.g.Types)
	bs.g.AddEncoded(s, p, o)
	bs.route(d, ty)
}

func (bs *BuilderSet) route(d, ty int) {
	switch {
	case len(bs.g.Data) > d:
		bs.feedData(int32(d))
	case len(bs.g.Types) > ty:
		bs.feedType(bs.g.Types[ty])
	default:
		// Schema triples need no driver action: rule SCH copies the
		// schema component verbatim at snapshot time.
	}
}

func (bs *BuilderSet) feedData(i int32) {
	t := bs.g.Data[i]
	bs.stats.data(t)
	for _, d := range bs.drivers {
		if !d.stale {
			d.dataAdded(t)
		}
	}
	if bs.adj != nil {
		bs.adj.add(t, i)
	}
}

func (bs *BuilderSet) feedType(t store.Triple) {
	bs.stats.typ(t)
	if bs.classes == nil {
		return // no maintained kind looks at types before its snapshot
	}
	ev := bs.classes.addType(t.S, t.O)
	for _, d := range bs.drivers {
		if !d.stale && !d.typeAdded(ev) {
			d.stale = true
		}
	}
}

// Delete removes every stored copy of one string-level triple, reporting
// how many copies existed.
func (bs *BuilderSet) Delete(t rdf.Triple) int {
	n, _ := bs.DeleteBatch([]rdf.Triple{t})
	return n
}

// DeleteBatch removes every stored copy of each listed triple from the
// graph and every driver's state. It returns the number of triple copies
// removed and the distinct encoded triples that were actually present —
// the tombstone set an index overlay needs.
//
// The graph's affected components are compacted into fresh slices
// (copy-on-write: live-store snapshot views of the old slices are
// unaffected), an O(component) scan; a component none of whose triples
// is removed is scanned but not copied. Driver state shrinks exactly where
// the bookkeeping is refcounted — type-based always; class-set shrink for
// every typed kind; typed-weak/typed-strong when only typed nodes are
// involved — and otherwise the driver refuses the deletion and is reseeded
// (a counted rebuild) before its next snapshot, because quotient merges
// (union-finds) are not invertible.
func (bs *BuilderSet) DeleteBatch(triples []rdf.Triple) (int, []store.Triple) {
	bs.index()
	d := bs.g.Dict()
	v := bs.g.Vocab()
	var delData, delTypes, delSchema map[store.Triple]bool
	for _, tr := range triples {
		s, okS := d.Lookup(tr.S)
		p, okP := d.Lookup(tr.P)
		o, okO := d.Lookup(tr.O)
		if !okS || !okP || !okO {
			continue // an unseen term cannot be part of a stored triple
		}
		t := store.Triple{S: s, P: p, O: o}
		switch v.ComponentOf(p) {
		case store.CompTypes:
			if delTypes == nil {
				delTypes = make(map[store.Triple]bool)
			}
			delTypes[t] = true
		case store.CompSchema:
			if delSchema == nil {
				delSchema = make(map[store.Triple]bool)
			}
			delSchema[t] = true
		default:
			if delData == nil {
				delData = make(map[store.Triple]bool)
			}
			delData[t] = true
		}
	}

	removed := 0
	var tombs []store.Triple

	// Data deletions first, so the adjacency index and per-position keys
	// reflect the surviving data triples before type events re-key.
	if len(delData) > 0 {
		// remap (old position → new, -1 for deleted) is read by the
		// adjacency index and the edge trackers only, which exist together
		// or not at all (see index): a weak-only set skips it. It and kept
		// are allocated at the first hit — a batch that removes no data
		// triple copies nothing.
		var remap []int32
		var kept []store.Triple
		hit := make(map[store.Triple]bool, len(delData))
		for i, t := range bs.g.Data {
			if delData[t] {
				if kept == nil {
					kept = keptBefore(bs.g.Data, i)
					if bs.adj != nil {
						remap = make([]int32, len(bs.g.Data))
						for j := range i {
							remap[j] = int32(j)
						}
					}
				}
				if remap != nil {
					remap[i] = -1
				}
				removed++
				hit[t] = true
				bs.stats.dataRemoved(t)
				for _, dr := range bs.drivers {
					if !dr.stale && !dr.dataDeleted(int32(i), t) {
						dr.stale = true
					}
				}
			} else if kept != nil {
				if remap != nil {
					remap[i] = int32(len(kept))
				}
				kept = append(kept, t)
			}
		}
		if len(hit) > 0 {
			bs.g.Data = kept
			if remap != nil {
				bs.adj.remap(remap)
			}
			for _, dr := range bs.drivers {
				// A stale driver's keys die with its reseed.
				if e := dr.tracker(); e != nil && !dr.stale {
					e.compact(remap)
				}
			}
			tombs = appendSortedTriples(tombs, hit)
		}
	}

	// Type deletions: compact the component, then shrink the class sets
	// pair by pair (deterministically ordered) and let drivers migrate.
	if len(delTypes) > 0 {
		var kept []store.Triple
		hit := make(map[store.Triple]bool, len(delTypes))
		for i, t := range bs.g.Types {
			if delTypes[t] {
				if kept == nil {
					kept = keptBefore(bs.g.Types, i)
				}
				removed++
				hit[t] = true
				bs.stats.typRemoved(t)
			} else if kept != nil {
				kept = append(kept, t)
			}
		}
		if len(hit) > 0 {
			bs.g.Types = kept
			pairs := make([]store.Triple, 0, len(hit))
			for t := range hit {
				pairs = append(pairs, t)
			}
			sort.Slice(pairs, func(i, j int) bool { return pairs[i].Less(pairs[j]) })
			for _, t := range pairs {
				var ev typeEvent
				if bs.classes != nil {
					ev = bs.classes.removeType(t.S, t.O)
				}
				for _, dr := range bs.drivers {
					if !dr.stale {
						dr.typeDeleted(ev)
					}
				}
			}
			tombs = appendSortedTriples(tombs, hit)
		}
	}

	// Schema deletions need no driver action: rule SCH copies the schema
	// component verbatim at snapshot time, and it just shrank.
	if len(delSchema) > 0 {
		var kept []store.Triple
		hit := make(map[store.Triple]bool, len(delSchema))
		for i, t := range bs.g.Schema {
			if delSchema[t] {
				if kept == nil {
					kept = keptBefore(bs.g.Schema, i)
				}
				removed++
				hit[t] = true
			} else if kept != nil {
				kept = append(kept, t)
			}
		}
		if len(hit) > 0 {
			bs.g.Schema = kept
			tombs = appendSortedTriples(tombs, hit)
		}
	}
	return removed, tombs
}

// keptBefore starts a component's compacted copy at its first deleted
// triple, position i: the triples before it, in a slice with room for
// the rest.
func keptBefore(comp []store.Triple, i int) []store.Triple {
	return append(make([]store.Triple, 0, len(comp)), comp[:i]...)
}

// appendSortedTriples appends set's members to out in (S, P, O) order.
func appendSortedTriples(out []store.Triple, set map[store.Triple]bool) []store.Triple {
	start := len(out)
	for t := range set {
		out = append(out, t)
	}
	added := out[start:]
	sort.Slice(added, func(i, j int) bool { return added[i].Less(added[j]) })
	return out
}

// Summary materializes the current summary of one maintained kind. The
// set stays usable; snapshots are independent.
func (bs *BuilderSet) Summary(kind Kind) (*Summary, error) {
	if !bs.Maintains(kind) {
		return nil, fmt.Errorf("core: kind %v is not maintained by this builder set", kind)
	}
	d := bs.byKind[kind]
	if d.stale {
		bs.rebuild(d)
	}
	s := d.snapshot()
	s.Kind = kind
	s.Input = bs.g
	s.Graph.SortDedup()
	s.Stats = bs.stats.compute(bs.g, s.Graph)
	return s, nil
}

// rebuild reseeds a driver that refused an event — the deferred cost of a
// non-invertible deletion or late typing, paid at most once per snapshot
// no matter how many such events batched up before it. Only a mutation
// makes a driver stale, so the set is indexed and the driver's keys are
// re-derived with it.
func (bs *BuilderSet) rebuild(d *maintained) {
	d.rebuilds++
	d.seed()
	if e := d.tracker(); e != nil {
		e.index()
	}
	d.stale = false
}

// Summaries materializes every maintained kind.
func (bs *BuilderSet) Summaries() (map[Kind]*Summary, error) {
	out := make(map[Kind]*Summary, len(bs.drivers))
	for _, k := range bs.Kinds() {
		s, err := bs.Summary(k)
		if err != nil {
			return nil, err
		}
		out[k] = s
	}
	return out, nil
}

// Rebuilds counts the full state reconstructions kind has paid for
// late-typing events and non-invertible deletions (always 0 for
// type-based).
func (bs *BuilderSet) Rebuilds(kind Kind) uint64 {
	if !bs.Maintains(kind) {
		return 0
	}
	return bs.byKind[kind].rebuilds
}

// SummarizeAll builds the summaries of every requested kind (all five
// when kinds is nil) in one shared pass over g: the clique and class-set
// state feeding the drivers is computed once, not re-derived per kind.
func SummarizeAll(g *store.Graph, kinds []Kind) (map[Kind]*Summary, error) {
	if kinds == nil {
		kinds = Kinds
	}
	set, err := NewBuilderSet(g, kinds)
	if err != nil {
		return nil, err
	}
	return set.Summaries()
}
