package core

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

// weakBuilder returns a builder set maintaining the weak kind over g
// (nil for empty).
func weakBuilder(t *testing.T, g *store.Graph) *BuilderSet {
	t.Helper()
	return kindBuilder(t, Weak, g)
}

// kindBuilder returns a builder set maintaining one kind over g (nil for
// empty).
func kindBuilder(t *testing.T, kind Kind, g *store.Graph) *BuilderSet {
	t.Helper()
	if g == nil {
		g = store.NewGraph()
	}
	b, err := NewBuilderSet(g, []Kind{kind})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// snapshot materializes kind from b, failing the test on error.
func snapshot(t *testing.T, b *BuilderSet, kind Kind) *Summary {
	t.Helper()
	s, err := b.Summary(kind)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBuilderMatchesBatch: streaming every triple through the builder
// yields the exact summary of a builder seeded with the whole graph,
// regardless of insertion order.
func TestBuilderMatchesBatch(t *testing.T) {
	for name, g := range sampleGraphs() {
		batch := summarize(t, g, Weak)
		b := weakBuilder(t, nil)
		decoded := g.Decode()
		// Insert in reverse to exercise order independence.
		for i := len(decoded) - 1; i >= 0; i-- {
			b.Add(decoded[i])
		}
		inc := snapshot(t, b, Weak)
		if !reflect.DeepEqual(batch.Graph.CanonicalStrings(), inc.Graph.CanonicalStrings()) {
			t.Errorf("%s: incremental summary differs from batch", name)
		}
		if batch.Stats.DataNodes != inc.Stats.DataNodes ||
			batch.Stats.AllEdges != inc.Stats.AllEdges {
			t.Errorf("%s: stats differ: batch %+v inc %+v", name, batch.Stats, inc.Stats)
		}
	}
}

func TestBuilderMatchesBatchRandom(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		batch := MustSummarize(g, Weak)
		b := weakBuilder(t, nil)
		for _, tr := range g.Decode() {
			b.Add(tr)
		}
		inc := snapshot(t, b, Weak)
		return reflect.DeepEqual(batch.Graph.CanonicalStrings(), inc.Graph.CanonicalStrings())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBuilderSnapshotsAreMonotone: adding triples can only merge classes,
// never split them — class counts are non-increasing once all nodes are
// present, and every snapshot remains a valid fixpoint.
func TestBuilderSnapshotsEvolve(t *testing.T) {
	b := weakBuilder(t, nil)
	triples := samples.Fig2Triples()
	var lastSummary *Summary
	for _, tr := range triples {
		b.Add(tr)
		lastSummary = snapshot(t, b, Weak)
		// Each snapshot is a valid weak summary of the prefix: re-summarize
		// its input and compare.
		again := MustSummarize(b.Graph(), Weak)
		if !reflect.DeepEqual(lastSummary.Graph.CanonicalStrings(), again.Graph.CanonicalStrings()) {
			t.Fatalf("snapshot after %v is not the seeded summary of the prefix", tr)
		}
	}
	if lastSummary.Stats.DataNodes != 6 {
		t.Errorf("final snapshot has %d data nodes, want 6 (Figure 4)", lastSummary.Stats.DataNodes)
	}
}

// TestBuilderAddEncoded: encoded and string-level insertion agree.
func TestBuilderAddEncoded(t *testing.T) {
	b1 := weakBuilder(t, nil)
	for _, tr := range samples.Fig2Triples() {
		b1.Add(tr)
	}
	b2 := weakBuilder(t, nil)
	d := b2.Graph().Dict()
	for _, tr := range samples.Fig2Triples() {
		b2.AddEncoded(d.Encode(tr.S), d.Encode(tr.P), d.Encode(tr.O))
	}
	if !reflect.DeepEqual(snapshot(t, b1, Weak).Graph.CanonicalStrings(), snapshot(t, b2, Weak).Graph.CanonicalStrings()) {
		t.Error("Add and AddEncoded disagree")
	}
}

// TestBuilderContinuesAfterSnapshot: a snapshot must not freeze the
// builder.
func TestBuilderContinuesAfterSnapshot(t *testing.T) {
	b := weakBuilder(t, nil)
	triples := samples.Fig2Triples()
	half := len(triples) / 2
	for _, tr := range triples[:half] {
		b.Add(tr)
	}
	_ = snapshot(t, b, Weak) // snapshot mid-stream
	for _, tr := range triples[half:] {
		b.Add(tr)
	}
	final := snapshot(t, b, Weak)
	batch := MustSummarize(store.FromTriples(triples), Weak)
	if !reflect.DeepEqual(final.Graph.CanonicalStrings(), batch.Graph.CanonicalStrings()) {
		t.Error("builder diverged after a mid-stream snapshot")
	}
}

// --- unified quotient engine (engine.go) ----------------------------------

// renderNodeOf maps the paper's rd function to lexical forms, so quotient
// maps are comparable across dictionaries: input nodes through the
// input's dictionary, their representatives through the summary's.
func renderNodeOf(s *Summary) map[string]string {
	out := make(map[string]string)
	for n, rep := range nodeOfMap(s) {
		out[s.Input.Dict().Term(n).String()] = s.Graph.Dict().Term(rep).String()
	}
	return out
}

func sameSummary(a, b *Summary) bool {
	return reflect.DeepEqual(a.Graph.CanonicalStrings(), b.Graph.CanonicalStrings()) &&
		reflect.DeepEqual(renderNodeOf(a), renderNodeOf(b))
}

// TestAllKindsBuilderMatchesBatch: for every summary kind, streaming every
// triple through an empty builder (in reverse, to exercise order
// independence) yields the exact summary — graph and quotient map — of a
// builder seeded with the whole graph, which is what Summarize is.
func TestAllKindsBuilderMatchesBatch(t *testing.T) {
	for name, g := range sampleGraphs() {
		for _, kind := range Kinds {
			batch := summarize(t, g, kind)
			b := kindBuilder(t, kind, nil)
			decoded := g.Decode()
			for i := len(decoded) - 1; i >= 0; i-- {
				b.Add(decoded[i])
			}
			inc := snapshot(t, b, kind)
			if !sameSummary(batch, inc) {
				t.Errorf("%s/%v: streamed summary differs from seeded", name, kind)
			}
			if batch.Stats != inc.Stats {
				t.Errorf("%s/%v: stats differ: seeded %+v streamed %+v", name, kind, batch.Stats, inc.Stats)
			}
		}
	}
}

// TestAllKindsRandomInterleavingOracle is the engine's property test: a
// random graph's triples are shuffled into a random interleaving of data
// and type triples (so nodes get typed late, exercising migrations and
// rebuilds), fed through one shared BuilderSet maintaining all five kinds,
// and snapshotted at random points — every snapshot of every kind must be
// bit-identical, Stats included, to a freshly seeded set's summary of the
// prefix (internal/refimpl's oracle checks both against the definitions
// and a scan).
func TestAllKindsRandomInterleavingOracle(t *testing.T) {
	f := func(seed uint64) bool {
		triples := datagen.RandomGraph(datagen.FromQuickSeed(seed)).Decode()
		rng := rand.New(rand.NewPCG(seed, 0xfeed))
		rng.Shuffle(len(triples), func(i, j int) { triples[i], triples[j] = triples[j], triples[i] })

		set, err := NewBuilderSet(store.NewGraph(), Kinds)
		if err != nil {
			t.Fatal(err)
		}
		snapAt := map[int]bool{len(triples) - 1: true}
		for k := 0; k < 3 && len(triples) > 0; k++ {
			snapAt[rng.IntN(len(triples))] = true
		}
		for i, tr := range triples {
			set.Add(tr)
			if !snapAt[i] {
				continue
			}
			prefix := store.FromTriples(triples[:i+1])
			for _, kind := range Kinds {
				inc, err := set.Summary(kind)
				if err != nil {
					t.Fatal(err)
				}
				batch := MustSummarize(prefix, kind)
				if !sameSummary(batch, inc) {
					t.Logf("seed %d: %v snapshot after %d triples differs from a fresh seed", seed, kind, i+1)
					return false
				}
				if batch.Stats != inc.Stats {
					t.Logf("seed %d: %v stats differ at %d: seeded %+v inc %+v", seed, kind, i+1, batch.Stats, inc.Stats)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestLateTypingTriggersRebuild: typing a node that already bridged two
// property representatives cannot be undone in a union-find, so the
// typed-weak and typed-strong drivers must rebuild — and still match a
// freshly seeded set exactly.
func TestLateTypingTriggersRebuild(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	triples := []rdf.Triple{
		rdf.NewTriple(iri("n"), iri("p"), iri("o1")),
		rdf.NewTriple(iri("n"), iri("q"), iri("o2")), // n bridges p and q
		rdf.NewTriple(iri("m"), iri("p"), iri("o3")),
		rdf.NewTriple(iri("n"), rdf.NewIRI(rdf.RDFType), iri("C")), // late first type
		rdf.NewTriple(iri("m"), iri("q"), iri("o4")),               // post-rebuild increment
	}
	for _, kind := range []Kind{TypedWeak, TypedStrong} {
		b := kindBuilder(t, kind, nil)
		for _, tr := range triples {
			b.Add(tr)
		}
		inc := snapshot(t, b, kind)
		if b.Rebuilds(kind) == 0 {
			t.Errorf("%v: late typing of a bridging node should force a rebuild", kind)
		}
		batch := MustSummarize(store.FromTriples(triples), kind)
		if !sameSummary(batch, inc) {
			t.Errorf("%v: post-rebuild summary differs from a fresh seed", kind)
		}
	}
}

// TestTypesFirstStreamNeverRebuilds: when every node's types arrive before
// its data edges — the BuilderSet seeding order, and the live store's
// recommended ingest shape — no kind ever pays a rebuild.
func TestTypesFirstStreamNeverRebuilds(t *testing.T) {
	g := datagen.RandomGraph(datagen.Default(7))
	set, err := NewBuilderSet(g, Kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds {
		if _, err := set.Summary(kind); err != nil {
			t.Fatal(err)
		}
		if n := set.Rebuilds(kind); n != 0 {
			t.Errorf("%v: types-first stream paid %d rebuilds, want 0", kind, n)
		}
	}
}

// TestBuilderSetSharesOnePass: a set maintaining every kind answers each
// kind identically to five independent builders.
func TestBuilderSetSharesOnePass(t *testing.T) {
	g := samples.Fig2()
	set, err := NewBuilderSet(g.CloneStructure(), Kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds {
		shared, err := set.Summary(kind)
		if err != nil {
			t.Fatal(err)
		}
		solo := MustSummarize(g, kind)
		if !reflect.DeepEqual(shared.Graph.CanonicalStrings(), solo.Graph.CanonicalStrings()) {
			t.Errorf("%v: shared-set summary differs from standalone", kind)
		}
	}
	if got, want := len(set.Kinds()), NumKinds; got != want {
		t.Errorf("set maintains %d kinds, want %d", got, want)
	}
}

// TestKindsDense: the Kind constants are dense in [0, NumKinds), the
// invariant behind every [NumKinds]-sized array in the system.
func TestKindsDense(t *testing.T) {
	if len(Kinds) != NumKinds {
		t.Fatalf("len(Kinds) = %d, want NumKinds = %d", len(Kinds), NumKinds)
	}
	seen := map[Kind]bool{}
	for _, k := range Kinds {
		if int(k) < 0 || int(k) >= NumKinds || seen[k] {
			t.Errorf("kind %v out of range or duplicated", k)
		}
		seen[k] = true
	}
}

// TestParseKindSpellings: every advertised spelling parses, and the error
// text enumerates the accepted short forms.
func TestParseKindSpellings(t *testing.T) {
	for i, forms := range KindSpellings() {
		for _, form := range forms {
			k, err := ParseKind(form)
			if err != nil || k != Kinds[i] {
				t.Errorf("ParseKind(%q) = %v, %v; want %v", form, k, err, Kinds[i])
			}
		}
	}
	_, err := ParseKind("bogus")
	if err == nil {
		t.Fatal("ParseKind accepted a bogus name")
	}
	for _, short := range []string{"tw", "ts", "tb", "w|", "s|"} {
		if !strings.Contains(err.Error(), short) {
			t.Errorf("ParseKind error %q does not list short form %q", err, short)
		}
	}
}
