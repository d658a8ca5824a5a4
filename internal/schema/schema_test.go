package schema

import (
	"reflect"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

func buildGraph(triples ...rdf.Triple) *store.Graph { return store.FromTriples(triples) }

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

func TestFromGraphExtractsConstraints(t *testing.T) {
	g := buildGraph(
		rdf.NewTriple(iri("B"), rdf.SubClassOf(), iri("A")),
		rdf.NewTriple(iri("p"), rdf.SubPropertyOf(), iri("q")),
		rdf.NewTriple(iri("p"), rdf.Domain(), iri("B")),
		rdf.NewTriple(iri("p"), rdf.Range(), iri("A")),
		rdf.NewTriple(iri("s"), iri("p"), iri("o")),
	)
	s := FromGraph(g)
	id := func(name string) dict.ID {
		v, _ := g.Dict().LookupIRI("http://x/" + name)
		return v
	}
	if got := s.SubClass[id("B")]; !reflect.DeepEqual(got, []dict.ID{id("A")}) {
		t.Errorf("SubClass[B] = %v, want [A]", got)
	}
	if got := s.SubProp[id("p")]; !reflect.DeepEqual(got, []dict.ID{id("q")}) {
		t.Errorf("SubProp[p] = %v, want [q]", got)
	}
	if got := s.Domain[id("p")]; !reflect.DeepEqual(got, []dict.ID{id("B")}) {
		t.Errorf("Domain[p] = %v, want [B]", got)
	}
	if got := s.Range[id("p")]; !reflect.DeepEqual(got, []dict.ID{id("A")}) {
		t.Errorf("Range[p] = %v, want [A]", got)
	}
	if len(s.SubClass)+len(s.SubProp)+len(s.Domain)+len(s.Range) == 0 {
		t.Error("schema with constraints reported empty")
	}
	if e := FromGraph(buildGraph(rdf.NewTriple(iri("s"), iri("p"), iri("o")))); len(e.SubClass)+len(e.SubProp)+len(e.Domain)+len(e.Range) != 0 {
		t.Error("schema of schemaless graph should be empty")
	}
}

func TestSaturateTransitivity(t *testing.T) {
	g := buildGraph(
		rdf.NewTriple(iri("C1"), rdf.SubClassOf(), iri("C2")),
		rdf.NewTriple(iri("C2"), rdf.SubClassOf(), iri("C3")),
		rdf.NewTriple(iri("C3"), rdf.SubClassOf(), iri("C4")),
		rdf.NewTriple(iri("p1"), rdf.SubPropertyOf(), iri("p2")),
		rdf.NewTriple(iri("p2"), rdf.SubPropertyOf(), iri("p3")),
	)
	s := FromGraph(g).Saturate()
	id := func(name string) dict.ID {
		v, _ := g.Dict().LookupIRI("http://x/" + name)
		return v
	}
	if got := s.SubClass[id("C1")]; len(got) != 3 {
		t.Errorf("SubClass+[C1] = %v, want 3 superclasses", got)
	}
	if got := s.SubProp[id("p1")]; len(got) != 2 {
		t.Errorf("SubProp+[p1] = %v, want 2 superproperties", got)
	}
	if got := s.SubClass[id("C4")]; len(got) != 0 {
		t.Errorf("SubClass+[C4] = %v, want none", got)
	}
}

func TestSaturateCycleTerminates(t *testing.T) {
	g := buildGraph(
		rdf.NewTriple(iri("A"), rdf.SubClassOf(), iri("B")),
		rdf.NewTriple(iri("B"), rdf.SubClassOf(), iri("A")),
	)
	s := FromGraph(g).Saturate()
	id := func(name string) dict.ID {
		v, _ := g.Dict().LookupIRI("http://x/" + name)
		return v
	}
	// Each class reaches the other and itself through the cycle.
	if got := s.SubClass[id("A")]; len(got) != 2 {
		t.Errorf("SubClass+[A] over a cycle = %v, want {A,B}", got)
	}
}

// The paper's §2.1 example: writtenBy ≺sp hasAuthor, writtenBy ←↩d Book,
// Book ≺sc Publication entails writtenBy ←↩d Publication (shown as an
// implicit triple in the paper).
func TestSaturateDomainGeneralizationAndInheritance(t *testing.T) {
	g := buildGraph(
		rdf.NewTriple(iri("Book"), rdf.SubClassOf(), iri("Publication")),
		rdf.NewTriple(iri("writtenBy"), rdf.SubPropertyOf(), iri("hasAuthor")),
		rdf.NewTriple(iri("writtenBy"), rdf.Domain(), iri("Book")),
		rdf.NewTriple(iri("writtenBy"), rdf.Range(), iri("Person")),
		rdf.NewTriple(iri("hasAuthor"), rdf.Range(), iri("Agent")),
	)
	s := FromGraph(g).Saturate()
	id := func(name string) dict.ID {
		v, _ := g.Dict().LookupIRI("http://x/" + name)
		return v
	}
	wantDom := []dict.ID{id("Book"), id("Publication")}
	got := s.Domain[id("writtenBy")]
	if !sameIDSet(got, wantDom) {
		t.Errorf("Domain+[writtenBy] = %v, want %v", got, wantDom)
	}
	// Range inheritance from the superproperty hasAuthor.
	wantRng := []dict.ID{id("Person"), id("Agent")}
	if got := s.Range[id("writtenBy")]; !sameIDSet(got, wantRng) {
		t.Errorf("Range+[writtenBy] = %v, want %v", got, wantRng)
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	g := buildGraph(
		rdf.NewTriple(iri("B"), rdf.SubClassOf(), iri("A")),
		rdf.NewTriple(iri("p"), rdf.Domain(), iri("B")),
		rdf.NewTriple(iri("p"), rdf.Range(), iri("A")),
		rdf.NewTriple(iri("p"), rdf.SubPropertyOf(), iri("q")),
	)
	s := FromGraph(g)
	ts := s.Triples(g.Vocab())
	if len(ts) != 4 {
		t.Fatalf("Triples() = %d triples, want 4", len(ts))
	}
	g2 := store.NewGraphWithDict(g.Dict())
	for _, tr := range ts {
		g2.AddEncoded(tr.S, tr.P, tr.O)
	}
	if !reflect.DeepEqual(FromGraph(g2), s) {
		t.Error("schema -> triples -> schema round trip mismatch")
	}
}

func sameIDSet(a, b []dict.ID) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[dict.ID]bool{}
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}
