package core

import (
	"fmt"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// TestClassSetNodeRendersOncePerSet: C(X) is a function of the class set —
// the same set names the same node, distinct sets distinct nodes. (That a
// snapshot renders each set once is TestTypedKindsNameOncePerClassSet's.)
func TestClassSetNodeRendersOncePerSet(t *testing.T) {
	g := store.NewGraph()
	set := []dict.ID{g.Dict().EncodeIRI("http://x/A"), g.Dict().EncodeIRI("http://x/B")}
	_, rep := startSummary(g, TypedWeak, dict.Overlay(g.Dict()))
	first := rep.classSetNode(set)
	if rep.classSetNode(set) != first {
		t.Error("C(X) changed between calls")
	}
	if other := rep.classSetNode(set[:1]); other == first {
		t.Error("distinct class sets share a node")
	}
}

// TestTypedKindsNameOncePerClassSet bounds what a typed summary allocates
// per typed node, a from-scratch build and a snapshot alike: 5000 typed
// nodes over four class sets cost a handful of allocations per node for
// the quotient's own maps, where rendering C(X) for every node cost
// fourteen.
func TestTypedKindsNameOncePerClassSet(t *testing.T) {
	const n = 5000
	triples := make([]rdf.Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/node%d", i))
		triples = append(triples,
			rdf.NewTriple(s, rdf.NewIRI(rdf.RDFType), rdf.NewIRI(fmt.Sprintf("http://x/Class%d", i%4))),
			rdf.NewTriple(s, rdf.NewIRI(fmt.Sprintf("http://x/p%d", i%3)), rdf.NewLiteral(fmt.Sprintf("v%d", i%50))))
	}
	g := store.FromTriples(triples)
	set, err := NewBuilderSet(g, Kinds)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{TypeBased, TypedWeak, TypedStrong} {
		build := testing.AllocsPerRun(3, func() { MustSummarize(g, kind) })
		snapshot := testing.AllocsPerRun(3, func() {
			if _, err := set.Summary(kind); err != nil {
				t.Fatal(err)
			}
		})
		if build > 3*n || snapshot > 3*n {
			t.Errorf("%v: %.1f (build) and %.1f (snapshot) allocations per typed node, want at most 3",
				kind, build/n, snapshot/n)
		}
	}
}
