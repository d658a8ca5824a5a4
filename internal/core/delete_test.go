package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

// removeAllCopies applies the engine's set-delete semantics to the oracle
// multiset: deleting a triple removes every copy (a later re-add brings
// it back).
func removeAllCopies(ts []rdf.Triple, dead rdf.Triple) []rdf.Triple {
	out := ts[:0:0]
	for _, t := range ts {
		if t != dead {
			out = append(out, t)
		}
	}
	return out
}

// TestAllKindsDeleteInterleavingOracle extends the engine's interleaving
// property test with deletions: a random mix of adds, deletes of present
// triples, deletes of absent triples and re-adds is fed through one
// BuilderSet maintaining all five kinds, snapshotting at random points —
// every snapshot of every kind must be bit-identical (graph and quotient
// map, Stats) to a freshly seeded set's summary of the surviving triples.
func TestAllKindsDeleteInterleavingOracle(t *testing.T) {
	f := func(seed uint64) bool {
		pool := datagen.RandomGraph(datagen.FromQuickSeed(seed)).Decode()
		rng := rand.New(rand.NewPCG(seed, 0xdead))
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

		set, err := NewBuilderSet(store.NewGraph(), Kinds)
		if err != nil {
			t.Fatal(err)
		}
		var oracle []rdf.Triple
		next := 0
		steps := len(pool) + len(pool)/2
		for i := 0; i < steps; i++ {
			switch {
			case next < len(pool) && (len(oracle) == 0 || rng.IntN(3) != 0):
				tr := pool[next]
				next++
				set.Add(tr)
				oracle = append(oracle, tr)
			case rng.IntN(5) == 0 && next > 0:
				// Delete something that may or may not still be present.
				tr := pool[rng.IntN(next)]
				removed, _ := set.DeleteBatch([]rdf.Triple{tr})
				present := 0
				for _, o := range oracle {
					if o == tr {
						present++
					}
				}
				if removed != present {
					t.Logf("seed %d: DeleteBatch removed %d copies, oracle had %d", seed, removed, present)
					return false
				}
				oracle = removeAllCopies(oracle, tr)
			default:
				if len(oracle) == 0 {
					continue
				}
				tr := oracle[rng.IntN(len(oracle))]
				set.Delete(tr)
				oracle = removeAllCopies(oracle, tr)
			}

			if rng.IntN(7) != 0 && i != steps-1 {
				continue
			}
			batchGraph := store.FromTriples(oracle)
			for _, kind := range Kinds {
				inc, err := set.Summary(kind)
				if err != nil {
					t.Fatal(err)
				}
				batch := MustSummarize(batchGraph, kind)
				if !sameSummary(batch, inc) {
					t.Logf("seed %d: %v snapshot after step %d differs from a fresh seed over survivors", seed, kind, i)
					return false
				}
				if batch.Stats != inc.Stats {
					t.Logf("seed %d: %v stats differ at step %d: seeded %+v inc %+v", seed, kind, i, batch.Stats, inc.Stats)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTypedDeletesAreExact: on a fully typed workload (every data edge
// connects typed nodes), deleting data edges and type triples never
// forces a rebuild of the typed kinds — the refcounted trackers shrink
// exactly. Weak and strong, whose merges are not invertible, pay exactly
// the counted deferred rebuilds.
func TestTypedDeletesAreExact(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	typ := rdf.NewIRI(rdf.RDFType)
	var triples []rdf.Triple
	for _, n := range []string{"a", "b", "c", "d"} {
		triples = append(triples, rdf.NewTriple(iri(n), typ, iri("C"+n)))
		triples = append(triples, rdf.NewTriple(iri(n), typ, iri("CX")))
	}
	triples = append(triples,
		rdf.NewTriple(iri("a"), iri("p"), iri("b")),
		rdf.NewTriple(iri("b"), iri("q"), iri("c")),
		rdf.NewTriple(iri("c"), iri("p"), iri("d")),
		rdf.NewTriple(iri("d"), iri("q"), iri("a")),
	)
	set, err := NewBuilderSet(store.FromTriples(triples), Kinds)
	if err != nil {
		t.Fatal(err)
	}

	// Data edge between typed nodes: exact for every typed kind.
	set.Delete(rdf.NewTriple(iri("b"), iri("q"), iri("c")))
	// Class-set shrink (node stays typed): exact for every typed kind.
	set.Delete(rdf.NewTriple(iri("a"), typ, iri("CX")))
	// Last class of d: d re-enters the untyped partition — still exact.
	set.Delete(rdf.NewTriple(iri("d"), typ, iri("Cd")))
	set.Delete(rdf.NewTriple(iri("d"), typ, iri("CX")))

	oracle := triples
	for _, dead := range []rdf.Triple{
		rdf.NewTriple(iri("b"), iri("q"), iri("c")),
		rdf.NewTriple(iri("a"), typ, iri("CX")),
		rdf.NewTriple(iri("d"), typ, iri("Cd")),
		rdf.NewTriple(iri("d"), typ, iri("CX")),
	} {
		oracle = removeAllCopies(oracle, dead)
	}
	batchGraph := store.FromTriples(oracle)
	for _, kind := range Kinds {
		inc, err := set.Summary(kind)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSummary(MustSummarize(batchGraph, kind), inc) {
			t.Errorf("%v: post-delete summary differs from a fresh seed over survivors", kind)
		}
	}
	for _, kind := range []Kind{TypeBased, TypedWeak, TypedStrong} {
		if n := set.Rebuilds(kind); n != 0 {
			t.Errorf("%v: fully typed deletions paid %d rebuilds, want 0 (exact decremental path)", kind, n)
		}
	}
	for _, kind := range []Kind{Weak, Strong} {
		if n := set.Rebuilds(kind); n == 0 {
			t.Errorf("%v: data deletion should have forced a counted deferred rebuild", kind)
		}
	}
}

// TestDeleteOfAbsentTripleIsNoOp: deleting triples the graph never held
// (including ones with unseen terms) removes nothing and perturbs no
// summary.
func TestDeleteOfAbsentTripleIsNoOp(t *testing.T) {
	set, err := NewBuilderSet(samples.Fig2(), Kinds)
	if err != nil {
		t.Fatal(err)
	}
	before, err := set.Summary(Weak)
	if err != nil {
		t.Fatal(err)
	}
	n := set.Delete(rdf.NewTriple(rdf.NewIRI("http://nowhere/x"), rdf.NewIRI("http://nowhere/p"), rdf.NewIRI("http://nowhere/y")))
	if n != 0 {
		t.Fatalf("deleting an absent triple removed %d copies", n)
	}
	n = set.Delete(rdf.NewTriple(samples.IRI("r1"), samples.Title, samples.IRI("never-an-object")))
	if n != 0 {
		t.Fatalf("deleting an absent triple over known terms removed %d copies", n)
	}
	after, err := set.Summary(Weak)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSummary(before, after) {
		t.Fatal("no-op delete changed the weak summary")
	}
	if set.Rebuilds(Weak) != 0 {
		t.Fatal("no-op delete forced a rebuild")
	}
}

// TestWeakBuilderDelete: a weak-only builder set's Delete round-trips —
// the summary matches a fresh seed over the survivors, at the price of one
// counted rebuild.
func TestWeakBuilderDelete(t *testing.T) {
	b := weakBuilder(t, samples.Fig2())
	dead := rdf.NewTriple(samples.IRI("a1"), samples.Reviewed, samples.IRI("r4"))
	if n := b.Delete(dead); n != 1 {
		t.Fatalf("Delete removed %d copies, want 1", n)
	}
	oracle := removeAllCopies(samples.Fig2Triples(), dead)
	batch := MustSummarize(store.FromTriples(oracle), Weak)
	if !sameSummary(batch, snapshot(t, b, Weak)) {
		t.Fatal("weak summary after Delete differs from a fresh seed over survivors")
	}
	if b.Rebuilds(Weak) != 1 {
		t.Fatalf("weak builder paid %d rebuilds for one data deletion, want 1", b.Rebuilds(Weak))
	}
}
