package core

import (
	"maps"
	"slices"
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// typesFirst reorders triples the way a set seeds them: type triples,
// then everything else, each in its original order.
func typesFirst(ts []rdf.Triple) []rdf.Triple {
	out := make([]rdf.Triple, 0, len(ts))
	for _, t := range ts {
		if t.P.Value == rdf.RDFType {
			out = append(out, t)
		}
	}
	for _, t := range ts {
		if t.P.Value != rdf.RDFType {
			out = append(out, t)
		}
	}
	return out
}

// samePerTripleState compares what two sets hold per data triple: the
// shared adjacency and, for every tracking driver neither set has marked
// stale, the refcounted edge counts and the per-triple keys.
func samePerTripleState(t *testing.T, when string, a, b *BuilderSet) bool {
	t.Helper()
	sameLists := func(x, y map[dict.ID][]int32) bool { return maps.EqualFunc(x, y, slices.Equal[[]int32]) }
	if (a.adj == nil) != (b.adj == nil) ||
		a.adj != nil && !(sameLists(a.adj.out, b.adj.out) && sameLists(a.adj.in, b.adj.in)) {
		t.Logf("%s: adjacency differs", when)
		return false
	}
	for _, k := range Kinds {
		da, db := a.byKind[k], b.byKind[k]
		if da.stale != db.stale {
			t.Logf("%s: %v stale on one side only", when, k)
			return false
		}
		ea, eb := da.tracker(), db.tracker()
		if ea == nil || da.stale {
			continue
		}
		if !maps.Equal(ea.counts, eb.counts) {
			t.Logf("%s: %v edge counts differ", when, k)
			return false
		}
		if !slices.Equal(ea.keys, eb.keys) {
			t.Logf("%s: %v per-triple keys differ (%d vs %d)", when, k, len(ea.keys), len(eb.keys))
			return false
		}
	}
	return true
}

// TestSeededSetDefersPerTripleState: a seeded set holds no adjacency and
// no per-triple keys — snapshots included — until its first mutation, and
// from then on holds exactly what a set fed the same triples one by one
// from empty holds: same counts, same keys, same adjacency. The mutations
// are one Add, one Delete and one late rdf:type on a node with data edges,
// in both orders — a type triple arriving first must find the adjacency
// of the whole graph, not an empty one.
func TestSeededSetDefersPerTripleState(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://seed.test/" + s) }
	f := func(seed uint64, typeFirst bool) bool {
		triples := typesFirst(datagen.RandomGraph(datagen.FromQuickSeed(seed)).Decode())
		seeded, err := NewBuilderSet(store.FromTriples(triples), Kinds)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seeded.Summaries(); err != nil {
			t.Fatal(err)
		}
		if seeded.adj != nil {
			t.Log("a seeded, snapshotted set built its adjacency")
			return false
		}
		for _, k := range Kinds {
			if e := seeded.byKind[k].tracker(); e != nil && e.keys != nil {
				t.Logf("a seeded, snapshotted set holds %v keys", k)
				return false
			}
		}

		streamed, err := NewBuilderSet(store.NewGraph(), Kinds)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range triples {
			streamed.Add(tr)
		}
		for _, k := range Kinds {
			if n := streamed.Rebuilds(k); n != 0 {
				t.Logf("%v: a types-first stream paid %d rebuilds", k, n)
				return false
			}
		}

		g := seeded.Graph()
		if len(g.Data) == 0 {
			return true
		}
		d := g.Dict()
		first, mid := g.Data[0], g.Data[len(g.Data)/2]
		add := rdf.NewTriple(d.Term(first.S), d.Term(mid.P), iri("fresh"))
		del := rdf.NewTriple(d.Term(mid.S), d.Term(mid.P), d.Term(mid.O))
		late := rdf.NewTriple(d.Term(first.S), rdf.NewIRI(rdf.RDFType), iri("Late"))
		ops := []func(*BuilderSet){
			func(bs *BuilderSet) { bs.Add(add) },
			func(bs *BuilderSet) { bs.Delete(del) },
			func(bs *BuilderSet) { bs.Add(late) },
		}
		if typeFirst {
			ops[0], ops[2] = ops[2], ops[0]
		}
		for i, op := range ops {
			op(seeded)
			op(streamed)
			if seeded.adj == nil {
				t.Log("a mutated set has no adjacency")
				return false
			}
			if !samePerTripleState(t, "after mutation", seeded, streamed) {
				t.Logf("seed %d, typeFirst %v, mutation %d", seed, typeFirst, i)
				return false
			}
		}
		// Snapshots reseed the stale drivers; the two sets must still
		// agree on state and on every summary.
		for _, k := range Kinds {
			a, errA := seeded.Summary(k)
			b, errB := streamed.Summary(k)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if !sameSummary(a, b) || a.Stats != b.Stats {
				t.Logf("seed %d: %v summaries differ after the mutations", seed, k)
				return false
			}
		}
		return samePerTripleState(t, "after rebuilds", seeded, streamed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
