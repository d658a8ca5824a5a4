package query

import (
	"math/rand/v2"
	"strconv"

	"rdfsum/internal/dict"
	"rdfsum/internal/store"
)

// ExtractRBGP builds a random RBGP query (Definition 3) that is guaranteed
// non-empty on g: it samples a connected subgraph of up to size triples
// from D_G ∪ T_G and abstracts it into patterns — every subject/object
// node becomes a variable (consistently: one variable per node), property
// URIs are kept, and the class URI of each τ triple is kept.
//
// Because the sampled subgraph embeds into g via the identity, q(g) ≠ ∅ by
// construction; this is the query generator behind the representativeness
// property tests (Prop. 1). Returns ok=false when g has no instance
// triples to sample.
func ExtractRBGP(g *store.Graph, rng *rand.Rand, size int) (q *Query, ok bool) {
	instance := make([]store.Triple, 0, len(g.Data)+len(g.Types))
	instance = append(instance, g.Data...)
	instance = append(instance, g.Types...)
	if len(instance) == 0 || size <= 0 {
		return nil, false
	}

	// Adjacency by node for connected growth.
	byNode := make(map[dict.ID][]store.Triple)
	v := g.Vocab()
	touch := func(n dict.ID, t store.Triple) { byNode[n] = append(byNode[n], t) }
	for _, t := range instance {
		touch(t.S, t)
		if t.P != v.Type {
			touch(t.O, t)
		}
	}

	// The chosen triples in the order they were drawn: the patterns and
	// their v0, v1, … names follow it, so a seed replays its query.
	seed := instance[rng.IntN(len(instance))]
	picked := []store.Triple{seed}
	chosen := map[store.Triple]bool{seed: true}
	frontier := []dict.ID{seed.S}
	if seed.P != v.Type {
		frontier = append(frontier, seed.O)
	}
	// Bounded growth: random expansion attempts may repeatedly hit already
	// chosen triples, so cap the number of tries rather than loop until
	// size is reached.
	for tries := 0; len(picked) < size && tries < 8*size; tries++ {
		n := frontier[rng.IntN(len(frontier))]
		candidates := byNode[n]
		if len(candidates) == 0 {
			continue
		}
		t := candidates[rng.IntN(len(candidates))]
		if !chosen[t] {
			chosen[t] = true
			picked = append(picked, t)
			frontier = append(frontier, t.S)
			if t.P != v.Type {
				frontier = append(frontier, t.O)
			}
		}
	}

	// Abstract: node -> variable.
	varOf := make(map[dict.ID]string)
	varFor := func(n dict.ID) Term {
		if name, ok := varOf[n]; ok {
			return Var(name)
		}
		name := "v" + strconv.Itoa(len(varOf))
		varOf[n] = name
		return Var(name)
	}
	q = &Query{}
	for _, t := range picked {
		pat := Pattern{
			S: varFor(t.S),
			P: Const(g.Dict().Term(t.P)),
		}
		if t.P == v.Type {
			pat.O = Const(g.Dict().Term(t.O))
		} else {
			pat.O = varFor(t.O)
		}
		q.Patterns = append(q.Patterns, pat)
	}
	q.Distinguished = q.Vars()
	return q, true
}

// NewRNG builds a deterministic PCG generator for query extraction.
func NewRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e0d))
}
