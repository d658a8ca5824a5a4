package core

import (
	"reflect"
	"testing"

	"rdfsum/internal/lubm"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/saturate"
	"rdfsum/internal/store"
)

// TestSelfLoops: a triple s p s makes s both the source and the target of
// p; in the weak summary the single p edge becomes a self-loop on the node
// representing s.
func TestSelfLoops(t *testing.T) {
	g := store.FromTriples([]rdf.Triple{
		rdf.NewTriple(samples.IRI("n"), samples.IRI("loop"), samples.IRI("n")),
		rdf.NewTriple(samples.IRI("n"), samples.IRI("loop"), samples.IRI("m")),
	})
	for _, kind := range []Kind{Weak, Strong, TypedWeak, TypedStrong} {
		s := MustSummarize(g, kind)
		n := lookup(t, g, "n")
		m := lookup(t, g, "m")
		// n is source and target of loop; m is target of loop: in every
		// kind their representatives join through the target side of
		// "loop" (weak family) or split by clique pairs (strong family).
		if kind == Weak || kind == TypedWeak {
			if s.NodeOf.Get(n) != s.NodeOf.Get(m) {
				t.Errorf("%v: n and m share the target of 'loop', must merge", kind)
			}
			if !hasDataEdge(s, s.NodeOf.Get(n), lookup(t, g, "loop"), s.NodeOf.Get(n)) {
				t.Errorf("%v: missing self-loop edge", kind)
			}
		} else {
			// strong: n has (tc={loop}, sc={loop}), m has (tc={loop}, ∅).
			if s.NodeOf.Get(n) == s.NodeOf.Get(m) {
				t.Errorf("%v: n and m have different clique pairs, must split", kind)
			}
		}
		// Fixpoint survives self-loops.
		ss := MustSummarize(s.Graph, kind)
		if !reflect.DeepEqual(s.Graph.CanonicalStrings(), ss.Graph.CanonicalStrings()) {
			t.Errorf("%v: fixpoint violated on self-loop graph", kind)
		}
	}
}

// TestBlankNodeOnlyGraph: graphs whose resources are all blank nodes
// summarize like any other.
func TestBlankNodeOnlyGraph(t *testing.T) {
	b := func(i byte) rdf.Term { return rdf.NewBlank(string([]byte{'b', i})) }
	p := samples.IRI("p")
	g := store.FromTriples([]rdf.Triple{
		rdf.NewTriple(b('0'), p, b('1')),
		rdf.NewTriple(b('2'), p, b('3')),
		rdf.NewTriple(b('0'), rdf.Type(), samples.IRI("C")),
	})
	s := MustSummarize(g, Weak)
	if s.Stats.DataNodes != 2 { // all sources of p merge; all targets merge
		t.Errorf("blank graph weak data nodes = %d, want 2", s.Stats.DataNodes)
	}
	for _, tr := range s.Graph.Decode() {
		if err := tr.Validate(); err != nil {
			t.Errorf("invalid summary triple: %v", err)
		}
	}
}

// TestLUBMCompleteness: Props 5 and 8 hold on the LUBM workload, whose
// subproperty families actually fuse cliques during saturation.
func TestLUBMCompleteness(t *testing.T) {
	cfg := lubm.DefaultConfig(1)
	cfg.DeptsPerUniversity = 2
	g := lubm.GenerateGraph(cfg)
	for _, kind := range []Kind{Weak, Strong} {
		direct := MustSummarize(saturate.Graph(g), kind)
		s := MustSummarize(g, kind)
		cheap := MustSummarize(saturate.Graph(s.Graph), kind)
		if !reflect.DeepEqual(direct.Graph.CanonicalStrings(), cheap.Graph.CanonicalStrings()) {
			t.Errorf("%v completeness violated on LUBM", kind)
		}
	}
	// And the typed kinds are incomplete here as well (LUBM declares
	// domains, so saturation types previously untyped publication
	// authors' — the Fig. 8 mechanism on a realistic workload).
	for _, kind := range []Kind{TypedWeak, TypedStrong} {
		direct := MustSummarize(saturate.Graph(g), kind)
		s := MustSummarize(g, kind)
		cheap := MustSummarize(saturate.Graph(s.Graph), kind)
		if reflect.DeepEqual(direct.Graph.CanonicalStrings(), cheap.Graph.CanonicalStrings()) {
			t.Logf("note: %v happened to commute with saturation on this LUBM instance", kind)
		}
	}
}

// TestMultiValuedAndSharedLiterals: identical literals are one node; a
// literal shared by two properties makes them target-related, merging the
// properties' *targets* (not their sources) into one weak node.
func TestMultiValuedAndSharedLiterals(t *testing.T) {
	lit := rdf.NewLiteral("shared")
	g := store.FromTriples([]rdf.Triple{
		rdf.NewTriple(samples.IRI("a"), samples.IRI("p"), lit),
		rdf.NewTriple(samples.IRI("b"), samples.IRI("q"), lit),
		rdf.NewTriple(samples.IRI("c"), samples.IRI("q"), rdf.NewLiteral("other")),
	})
	s := MustSummarize(g, Weak)
	a := lookup(t, g, "a")
	bID := lookup(t, g, "b")
	c := lookup(t, g, "c")
	// Sources of p and of q live in different source cliques and share no
	// target clique: they stay apart.
	if s.NodeOf.Get(a) == s.NodeOf.Get(bID) {
		t.Error("a and b have unrelated source cliques, must stay apart")
	}
	// All sources of q merge.
	if s.NodeOf.Get(bID) != s.NodeOf.Get(c) {
		t.Error("b and c are both sources of q, must merge")
	}
	// The shared literal links the target cliques of p and q: all their
	// values form one node.
	litID, _ := g.Dict().Lookup(lit)
	otherID, _ := g.Dict().Lookup(rdf.NewLiteral("other"))
	if s.NodeOf.Get(litID) != s.NodeOf.Get(otherID) {
		t.Error("values of target-related p and q must share a node")
	}
	// Both property edges point at that shared target node.
	p := lookup(t, g, "p")
	q := lookup(t, g, "q")
	if !hasDataEdge(s, s.NodeOf.Get(a), p, s.NodeOf.Get(litID)) ||
		!hasDataEdge(s, s.NodeOf.Get(bID), q, s.NodeOf.Get(litID)) {
		t.Error("p and q edges must converge on the shared target node")
	}
	// The oracle agrees (refimpl covers this via random graphs; here we
	// just confirm Prop. 4 still holds).
	if s.Stats.DataEdges != 2 {
		t.Errorf("weak data edges = %d, want 2 (one per property)", s.Stats.DataEdges)
	}
}
