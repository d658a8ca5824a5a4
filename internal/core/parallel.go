package core

import (
	"sync"

	"rdfsum/internal/dict"
	"rdfsum/internal/store"
	"rdfsum/internal/unionfind"
)

// weakParallel is a shared-memory parallel weak summarization — the
// paper's future-work direction ("improving scalability by leveraging a
// massively parallel platform"), realized with goroutines instead of
// Spark.
//
// The algorithm exploits that weak equivalence is pure connectivity: the
// final partition is determined by the set of (node, property-role)
// adjacency pairs, which commutes with any partitioning of the triples.
// Phase 1 (parallel): workers scan disjoint chunks of D_G and emit their
// chunk's deduplicated adjacency pairs over a dense element space —
// node n ↦ 3n, source-of-p ↦ 3p+1, target-of-p ↦ 3p+2 — doing all the
// hashing work concurrently. Phase 2 (sequential): the pairs are unioned
// into one forest (near-linear, trivially cheap relative to phase 1), and
// the summary is materialized exactly as in the sequential algorithm.
// The result is bit-identical to weakIncremental (cross-checked in
// parallel_test.go).
func weakParallel(g *store.Graph, workers int) *Summary {
	if workers < 2 || len(g.Data) < 2*workers {
		return weakIncremental(g)
	}
	// Every ID in g is at most MaxID: the arrays below are indexed by the
	// input's IDs only (summary names live in their own overlay).
	maxID := int(g.Dict().MaxID())
	if maxID >= (1<<31-1)/3 {
		// The dense 3·ID element space would overflow int32: a dictionary
		// of over 700M terms, or an overlay with terms of its own (g is
		// itself a summary), whose IDs start at 2^31 — fall back to the
		// map-based sequential algorithm.
		return weakIncremental(g)
	}

	type pair struct{ a, b int32 }
	chunks := make([][]pair, workers)
	var wg sync.WaitGroup
	per := (len(g.Data) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > len(g.Data) {
			hi = len(g.Data)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, part []store.Triple) {
			defer wg.Done()
			seen := make(map[uint64]struct{}, 2*len(part))
			pairs := make([]pair, 0, 2*len(part))
			add := func(a, b int32) {
				key := uint64(uint32(a))<<32 | uint64(uint32(b))
				if _, ok := seen[key]; ok {
					return
				}
				seen[key] = struct{}{}
				pairs = append(pairs, pair{a, b})
			}
			for _, t := range part {
				add(3*int32(t.S), 3*int32(t.P)+1)
				add(3*int32(t.O), 3*int32(t.P)+2)
			}
			chunks[w] = pairs
		}(w, g.Data[lo:hi])
	}
	wg.Wait()

	uf := unionfind.New(3 * (maxID + 1))
	present := make([]bool, 3*(maxID+1))
	for _, pairs := range chunks {
		for _, p := range pairs {
			uf.Union(p.a, p.b)
			present[p.a] = true
			present[p.b] = true
		}
	}

	// Materialization: identical to the sequential path, over the dense
	// element space.
	inProps := make(map[int32][]dict.ID)
	outProps := make(map[int32][]dict.ID)
	var props []dict.ID
	for id := 1; id <= maxID; id++ {
		if present[3*id+1] { // a data property (both roles always coexist)
			p := dict.ID(id)
			props = append(props, p)
			outProps[uf.Find(int32(3*id+1))] = append(outProps[uf.Find(int32(3*id+1))], p)
			inProps[uf.Find(int32(3*id+2))] = append(inProps[uf.Find(int32(3*id+2))], p)
		}
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

	for _, p := range props {
		out.Data = append(out.Data, store.Triple{
			S: name(uf.Find(int32(3*int(p) + 1))),
			P: p,
			O: name(uf.Find(int32(3*int(p) + 2))),
		})
	}
	nodeOf := make(map[dict.ID]dict.ID)
	for id := 1; id <= maxID; id++ {
		if present[3*id] {
			nodeOf[dict.ID(id)] = name(uf.Find(int32(3 * id)))
		}
	}
	summarizeTypesWeak(g, out, rep, nodeOf)
	return &Summary{Graph: out, NodeOf: nodeOf}
}
