package core

import (
	"testing"
	"testing/quick"

	"rdfsum/internal/datagen"
	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

// TestProperty4UniqueDataProperties: each data property of G appears in
// exactly one data edge of W_G.
func TestProperty4UniqueDataProperties(t *testing.T) {
	for name, g := range sampleGraphs() {
		s := summarize(t, g, Weak)
		counts := map[dict.ID]int{}
		for _, e := range s.Graph.Data {
			counts[e.P]++
		}
		props := g.DistinctDataProperties()
		if len(counts) != len(props) {
			t.Errorf("%s: W_G covers %d properties, want %d", name, len(counts), len(props))
		}
		for p, c := range counts {
			if c != 1 {
				t.Errorf("%s: property %v labels %d weak edges, want 1", name, g.Dict().Term(p), c)
			}
		}
	}
}

// TestWeakSizeBounds: |W data edges| = |D_G|⁰p and |W data nodes| ≤
// 2·|D_G|⁰p (+1 for Nτ) — §4.1's bounds.
func TestWeakSizeBounds(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		s := MustSummarize(g, Weak)
		nProps := len(g.DistinctDataProperties())
		if s.Stats.DataEdges != nProps {
			t.Logf("seed %d: weak data edges %d != distinct props %d", seed, s.Stats.DataEdges, nProps)
			return false
		}
		if s.Stats.DataNodes > 2*nProps+1 {
			t.Logf("seed %d: weak data nodes %d > 2·%d+1", seed, s.Stats.DataNodes, nProps)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestStrongSizeBounds: §5.1's bounds — S_G has no more data nodes than G,
// no more than (#source cliques)·(#target cliques)+1, and no more data
// edges than G.
func TestStrongSizeBounds(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		s := MustSummarize(g, Strong)
		if s.Stats.DataNodes > s.Stats.InputDataNodes {
			return false
		}
		nProps := len(g.DistinctDataProperties())
		if s.Stats.DataNodes > (nProps+1)*(nProps+1)+1 {
			return false
		}
		return s.Stats.DataEdges <= len(g.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestWeakEquivalenceIsCliqueConnectivity: sources of the same property
// are always merged (§4.1: "the sources of edges labeled with a given
// data property p are all weakly equivalent").
func TestWeakEquivalenceIsCliqueConnectivity(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		s := MustSummarize(g, Weak)
		bySrcProp := map[dict.ID]dict.ID{}
		byTgtProp := map[dict.ID]dict.ID{}
		for _, tr := range g.Data {
			if rep, ok := bySrcProp[tr.P]; ok {
				if s.NodeOf.Get(tr.S) != rep {
					return false
				}
			} else {
				bySrcProp[tr.P] = s.NodeOf.Get(tr.S)
			}
			if rep, ok := byTgtProp[tr.P]; ok {
				if s.NodeOf.Get(tr.O) != rep {
					return false
				}
			} else {
				byTgtProp[tr.P] = s.NodeOf.Get(tr.O)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStrongRefinesWeak: strong equivalence implies weak equivalence, so
// the strong summary never merges nodes the weak summary separates.
func TestStrongRefinesWeak(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		w := MustSummarize(g, Weak)
		s := MustSummarize(g, Strong)
		// Map strong node -> weak node; it must be a function.
		proj := map[dict.ID]dict.ID{}
		for n, sn := range nodeOfMap(s) {
			wn := w.NodeOf.Get(n)
			if prev, ok := proj[sn]; ok && prev != wn {
				return false
			}
			proj[sn] = wn
		}
		return s.Stats.DataNodes >= w.Stats.DataNodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTypedStrongRefinesTypedWeak: same refinement on the typed side.
func TestTypedStrongRefinesTypedWeak(t *testing.T) {
	f := func(seed uint64) bool {
		g := datagen.RandomGraph(datagen.FromQuickSeed(seed))
		tw := MustSummarize(g, TypedWeak)
		ts := MustSummarize(g, TypedStrong)
		proj := map[dict.ID]dict.ID{}
		for n, sn := range nodeOfMap(ts) {
			wn := tw.NodeOf.Get(n)
			if prev, ok := proj[sn]; ok && prev != wn {
				return false
			}
			proj[sn] = wn
		}
		return ts.Stats.DataNodes >= tw.Stats.DataNodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEmptyAndDegenerateGraphs: summarizing empty, schema-only and
// types-only graphs must work and preserve the schema.
func TestEmptyAndDegenerateGraphs(t *testing.T) {
	empty := store.NewGraph()
	for _, kind := range Kinds {
		s := MustSummarize(empty, kind)
		if s.Graph.NumEdges() != 0 {
			t.Errorf("%v summary of empty graph has %d edges", kind, s.Graph.NumEdges())
		}
	}

	schemaOnly := store.FromTriples([]rdf.Triple{
		rdf.NewTriple(samples.IRI("A"), rdf.SubClassOf(), samples.IRI("B")),
	})
	for _, kind := range Kinds {
		s := MustSummarize(schemaOnly, kind)
		if len(s.Graph.Schema) != 1 {
			t.Errorf("%v summary dropped the schema component", kind)
		}
	}

	typesOnly := store.FromTriples([]rdf.Triple{
		rdf.NewTriple(samples.IRI("x"), rdf.Type(), samples.IRI("C")),
		rdf.NewTriple(samples.IRI("y"), rdf.Type(), samples.IRI("C")),
		rdf.NewTriple(samples.IRI("z"), rdf.Type(), samples.IRI("D")),
	})
	// Weak/strong: all typed-only resources collapse into Nτ.
	for _, kind := range []Kind{Weak, Strong} {
		s := MustSummarize(typesOnly, kind)
		if s.Stats.DataNodes != 1 {
			t.Errorf("%v summary of types-only graph has %d data nodes, want 1 (Nτ)", kind, s.Stats.DataNodes)
		}
		if s.Stats.TypeEdges != 2 {
			t.Errorf("%v summary of types-only graph has %d type edges, want 2", kind, s.Stats.TypeEdges)
		}
	}
	// Typed kinds: {x,y} share C({C}); z gets C({D}).
	for _, kind := range []Kind{TypeBased, TypedWeak, TypedStrong} {
		s := MustSummarize(typesOnly, kind)
		if s.Stats.DataNodes != 2 {
			t.Errorf("%v summary of types-only graph has %d data nodes, want 2", kind, s.Stats.DataNodes)
		}
	}
}
