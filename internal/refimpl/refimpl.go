// Package refimpl holds naive, definition-faithful reference
// implementations of the paper's constructions, used exclusively as
// testing oracles for the optimized packages:
//
//   - property cliques by pairwise fixpoint (Definition 5, verbatim);
//   - weak and strong node equivalence by closure over the definitions
//     (Definitions 7 and 15), and the three type-first partitions
//     (Definitions 12, 14 and 17) on top of them;
//   - saturation by blind rule application to fixpoint (§2.1);
//   - BGP evaluation by unindexed backtracking.
//
// Everything here favors obviousness over speed (quadratic/cubic loops);
// oracles only run on small graphs in tests.
package refimpl

import (
	"fmt"
	"sort"

	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// SourceCliques returns the partition of data properties into source
// cliques by the literal Definition 5 fixpoint: p1 and p2 are
// source-related iff some resource has both, or some resource has p1 and
// p3 with p3 source-related to p2.
func SourceCliques(data []store.Triple) [][]dict.ID {
	return cliquesBy(data, func(t store.Triple) dict.ID { return t.S })
}

// TargetCliques is the target-side counterpart.
func TargetCliques(data []store.Triple) [][]dict.ID {
	return cliquesBy(data, func(t store.Triple) dict.ID { return t.O })
}

func cliquesBy(data []store.Triple, end func(store.Triple) dict.ID) [][]dict.ID {
	props := map[dict.ID]bool{}
	for _, t := range data {
		props[t.P] = true
	}
	related := map[[2]dict.ID]bool{}
	relate := func(a, b dict.ID) { related[[2]dict.ID{a, b}] = true; related[[2]dict.ID{b, a}] = true }
	for p := range props {
		relate(p, p)
	}
	// Base case: co-occurrence on one resource.
	for _, t1 := range data {
		for _, t2 := range data {
			if end(t1) == end(t2) {
				relate(t1.P, t2.P)
			}
		}
	}
	// Fixpoint of the transitive condition (ii).
	for changed := true; changed; {
		changed = false
		for a := range props {
			for b := range props {
				if related[[2]dict.ID{a, b}] {
					continue
				}
				for c := range props {
					if related[[2]dict.ID{a, c}] && related[[2]dict.ID{c, b}] {
						relate(a, b)
						changed = true
						break
					}
				}
			}
		}
	}
	return classesOf(props, func(a, b dict.ID) bool { return related[[2]dict.ID{a, b}] })
}

// classesOf groups the keys of set into equivalence classes of eq, each
// sorted, ordered by smallest member.
func classesOf(set map[dict.ID]bool, eq func(a, b dict.ID) bool) [][]dict.ID {
	var ids []dict.ID
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	assigned := map[dict.ID]int{}
	var classes [][]dict.ID
	for _, id := range ids {
		placed := false
		for ci := range classes {
			if eq(classes[ci][0], id) {
				classes[ci] = append(classes[ci], id)
				assigned[id] = ci
				placed = true
				break
			}
		}
		if !placed {
			assigned[id] = len(classes)
			classes = append(classes, []dict.ID{id})
		}
	}
	return classes
}

// nodeCliques computes SC(r) and TC(r) for every data node skip does not
// exclude (nil excludes none), as indexes into the returned clique lists
// (-1 = ∅). An excluded node is absent from the maps and relates no
// properties: the cliques are those of the remaining nodes alone.
func nodeCliques(g *store.Graph, skip func(dict.ID) bool) (src, tgt [][]dict.ID, nodeSrc, nodeTgt map[dict.ID]int) {
	keep := func(n dict.ID) bool { return skip == nil || !skip(n) }
	var bySubject, byObject []store.Triple
	for _, t := range g.Data {
		if keep(t.S) {
			bySubject = append(bySubject, t)
		}
		if keep(t.O) {
			byObject = append(byObject, t)
		}
	}
	src = SourceCliques(bySubject)
	tgt = TargetCliques(byObject)
	srcOf := map[dict.ID]int{}
	for i, c := range src {
		for _, p := range c {
			srcOf[p] = i
		}
	}
	tgtOf := map[dict.ID]int{}
	for i, c := range tgt {
		for _, p := range c {
			tgtOf[p] = i
		}
	}
	nodeSrc = map[dict.ID]int{}
	nodeTgt = map[dict.ID]int{}
	seen := map[dict.ID]bool{}
	for _, t := range bySubject {
		seen[t.S] = true
		nodeSrc[t.S] = srcOf[t.P]
	}
	for _, t := range byObject {
		seen[t.O] = true
		nodeTgt[t.O] = tgtOf[t.P]
	}
	// Typed-only resources: no cliques at all.
	for _, t := range g.Types {
		if keep(t.S) {
			seen[t.S] = true
		}
	}
	for n := range seen {
		if _, ok := nodeSrc[n]; !ok {
			nodeSrc[n] = -1
		}
		if _, ok := nodeTgt[n]; !ok {
			nodeTgt[n] = -1
		}
	}
	return src, tgt, nodeSrc, nodeTgt
}

// weakPartition closes "same source clique or same target clique"
// transitively over the nodes of the two maps (Definition 7), with all
// clique-less nodes lumped into one class (the paper's Nτ convention,
// §4.1).
func weakPartition(nodeSrc, nodeTgt map[dict.ID]int) [][]dict.ID {
	nodes := map[dict.ID]bool{}
	for n := range nodeSrc {
		nodes[n] = true
	}
	eq := func(a, b dict.ID) bool {
		if a == b {
			return true
		}
		// Transitive closure by BFS over the base relation.
		base := func(x, y dict.ID) bool {
			if nodeSrc[x] == -1 && nodeTgt[x] == -1 && nodeSrc[y] == -1 && nodeTgt[y] == -1 {
				return true // both clique-less: Nτ
			}
			return (nodeSrc[x] != -1 && nodeSrc[x] == nodeSrc[y]) ||
				(nodeTgt[x] != -1 && nodeTgt[x] == nodeTgt[y])
		}
		visited := map[dict.ID]bool{a: true}
		frontier := []dict.ID{a}
		for len(frontier) > 0 {
			x := frontier[0]
			frontier = frontier[1:]
			if base(x, b) {
				return true
			}
			for y := range nodes {
				if !visited[y] && base(x, y) {
					visited[y] = true
					frontier = append(frontier, y)
				}
			}
		}
		return false
	}
	return classesOf(nodes, eq)
}

// strongPartition groups the nodes of the two maps by (source clique,
// target clique) pair (Definition 15).
func strongPartition(nodeSrc, nodeTgt map[dict.ID]int) [][]dict.ID {
	nodes := map[dict.ID]bool{}
	for n := range nodeSrc {
		nodes[n] = true
	}
	eq := func(a, b dict.ID) bool {
		return nodeSrc[a] == nodeSrc[b] && nodeTgt[a] == nodeTgt[b]
	}
	return classesOf(nodes, eq)
}

// WeakClasses returns the partition of G's data nodes under weak
// equivalence.
func WeakClasses(g *store.Graph) [][]dict.ID {
	_, _, nodeSrc, nodeTgt := nodeCliques(g, nil)
	return weakPartition(nodeSrc, nodeTgt)
}

// StrongClasses returns the partition under strong equivalence.
func StrongClasses(g *store.Graph) [][]dict.ID {
	_, _, nodeSrc, nodeTgt := nodeCliques(g, nil)
	return strongPartition(nodeSrc, nodeTgt)
}

// classSets renders each typed resource's class set (the objects of its
// type triples, as a set) into a comparable key.
func classSets(g *store.Graph) map[dict.ID]string {
	sets := map[dict.ID]map[dict.ID]bool{}
	for _, t := range g.Types {
		if sets[t.S] == nil {
			sets[t.S] = map[dict.ID]bool{}
		}
		sets[t.S][t.O] = true
	}
	keys := map[dict.ID]string{}
	for n, set := range sets {
		var ids []dict.ID
		for c := range set {
			ids = append(ids, c)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		keys[n] = fmt.Sprint(ids)
	}
	return keys
}

// typedPartition groups the typed resources by class set (Definition 12)
// and hands the untyped data nodes' cliques — computed over untyped nodes
// only, "cliques are computed only for untyped data nodes" (§6.1) — to
// untyped for the rest of the partition.
func typedPartition(g *store.Graph, untyped func(nodeSrc, nodeTgt map[dict.ID]int) [][]dict.ID) [][]dict.ID {
	sets := classSets(g)
	typed := map[dict.ID]bool{}
	for n := range sets {
		typed[n] = true
	}
	_, _, nodeSrc, nodeTgt := nodeCliques(g, func(n dict.ID) bool { return typed[n] })
	classes := classesOf(typed, func(a, b dict.ID) bool { return sets[a] == sets[b] })
	return append(classes, untyped(nodeSrc, nodeTgt)...)
}

// TypeBasedClasses returns the partition under ≡T (Definition 12): typed
// resources with the same class set are equivalent; an untyped node is
// equivalent only to itself.
func TypeBasedClasses(g *store.Graph) [][]dict.ID {
	return typedPartition(g, func(nodeSrc, _ map[dict.ID]int) [][]dict.ID {
		var singles [][]dict.ID
		for n := range nodeSrc {
			singles = append(singles, []dict.ID{n})
		}
		return singles
	})
}

// TypedWeakClasses returns the partition of the typed weak summary
// (Definition 14): class sets first, untyped nodes weakly among
// themselves.
func TypedWeakClasses(g *store.Graph) [][]dict.ID { return typedPartition(g, weakPartition) }

// TypedStrongClasses returns the partition of the typed strong summary
// (Definition 17): class sets first, untyped nodes strongly among
// themselves.
func TypedStrongClasses(g *store.Graph) [][]dict.ID { return typedPartition(g, strongPartition) }

// Saturate computes G∞ by blind rule application to fixpoint (no schema
// pre-closure, no pass ordering — the defining construction of §2.1).
func Saturate(g *store.Graph) *store.Graph {
	v := g.Vocab()
	set := map[store.Triple]bool{}
	var all []store.Triple
	add := func(t store.Triple) bool {
		if set[t] {
			return false
		}
		set[t] = true
		all = append(all, t)
		return true
	}
	for _, t := range g.All() {
		add(t)
	}
	for changed := true; changed; {
		changed = false
		snapshot := append([]store.Triple(nil), all...)
		for _, t1 := range snapshot {
			for _, t2 := range snapshot {
				for _, derived := range derive(v, t1, t2) {
					if add(derived) {
						changed = true
					}
				}
			}
		}
	}
	out := store.NewGraphWithDict(g.Dict())
	for _, t := range all {
		out.AddEncoded(t.S, t.P, t.O)
	}
	out.SortDedup()
	return out
}

// derive applies every immediate entailment rule with t1, t2 as premises
// (in that order).
func derive(v store.Vocab, t1, t2 store.Triple) []store.Triple {
	var out []store.Triple
	switch {
	case t1.P == v.SubClass && t2.P == v.SubClass && t1.O == t2.S:
		out = append(out, store.Triple{S: t1.S, P: v.SubClass, O: t2.O})
	case t1.P == v.SubProp && t2.P == v.SubProp && t1.O == t2.S:
		out = append(out, store.Triple{S: t1.S, P: v.SubProp, O: t2.O})
	case t1.P == v.Domain && t2.P == v.SubClass && t1.O == t2.S:
		out = append(out, store.Triple{S: t1.S, P: v.Domain, O: t2.O})
	case t1.P == v.Range && t2.P == v.SubClass && t1.O == t2.S:
		out = append(out, store.Triple{S: t1.S, P: v.Range, O: t2.O})
	case t1.P == v.SubProp && t2.P == v.Domain && t1.O == t2.S:
		out = append(out, store.Triple{S: t1.S, P: v.Domain, O: t2.O})
	case t1.P == v.SubProp && t2.P == v.Range && t1.O == t2.S:
		out = append(out, store.Triple{S: t1.S, P: v.Range, O: t2.O})
	case t1.P == v.Type && t2.P == v.SubClass && t1.O == t2.S:
		out = append(out, store.Triple{S: t1.S, P: v.Type, O: t2.O})
	}
	// Instance rules keyed on t2 being a schema triple about t1's property.
	if !isSchemaOrType(v, t1.P) {
		switch t2.P {
		case v.SubProp:
			if t1.P == t2.S {
				out = append(out, store.Triple{S: t1.S, P: t2.O, O: t1.O})
			}
		case v.Domain:
			if t1.P == t2.S {
				out = append(out, store.Triple{S: t1.S, P: v.Type, O: t2.O})
			}
		case v.Range:
			if t1.P == t2.S {
				out = append(out, store.Triple{S: t1.O, P: v.Type, O: t2.O})
			}
		}
	}
	return out
}

func isSchemaOrType(v store.Vocab, p dict.ID) bool {
	return p == v.Type || p == v.SubClass || p == v.SubProp || p == v.Domain || p == v.Range
}
