package saturate

import (
	"reflect"
	"testing"

	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }

// The running example of §2.1: the book graph with its four constraints.
// Saturation must contain exactly the implicit triples the paper lists.
func paperBookGraph() *store.Graph {
	doi1 := iri("doi1")
	b1 := rdf.NewBlank("b1")
	return store.FromTriples([]rdf.Triple{
		rdf.NewTriple(doi1, rdf.Type(), iri("Book")),
		rdf.NewTriple(doi1, iri("writtenBy"), b1),
		rdf.NewTriple(doi1, iri("hasTitle"), rdf.NewLiteral("Le Port des Brumes")),
		rdf.NewTriple(b1, iri("hasName"), rdf.NewLiteral("G. Simenon")),
		rdf.NewTriple(doi1, iri("publishedIn"), rdf.NewLiteral("1932")),
		// books are publications
		rdf.NewTriple(iri("Book"), rdf.SubClassOf(), iri("Publication")),
		// writing something means being an author
		rdf.NewTriple(iri("writtenBy"), rdf.SubPropertyOf(), iri("hasAuthor")),
		// books are written by people
		rdf.NewTriple(iri("writtenBy"), rdf.Domain(), iri("Book")),
		rdf.NewTriple(iri("writtenBy"), rdf.Range(), iri("Person")),
	})
}

func contains(g *store.Graph, t rdf.Triple) bool {
	want := t.String()
	for _, l := range g.CanonicalStrings() {
		if l == want {
			return true
		}
	}
	return false
}

func TestPaperExampleImplicitTriples(t *testing.T) {
	g := paperBookGraph()
	inf := Graph(g)

	implicit := []rdf.Triple{
		rdf.NewTriple(iri("doi1"), rdf.Type(), iri("Publication")),
		rdf.NewTriple(iri("doi1"), iri("hasAuthor"), rdf.NewBlank("b1")),
		rdf.NewTriple(iri("writtenBy"), rdf.Domain(), iri("Publication")),
		rdf.NewTriple(rdf.NewBlank("b1"), rdf.Type(), iri("Person")),
	}
	for _, tr := range implicit {
		if contains(g, tr) {
			t.Errorf("implicit triple %v already explicit in G", tr)
		}
		if !contains(inf, tr) {
			t.Errorf("G∞ missing implicit triple %v", tr)
		}
	}
	// Every explicit triple must be preserved.
	for _, l := range g.CanonicalStrings() {
		found := false
		for _, m := range inf.CanonicalStrings() {
			if l == m {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("G∞ lost explicit triple %s", l)
		}
	}
}

// TestRangeTypingCoversLiterals pins the generalized-RDF choice documented
// in the package comment: the range rule types literal objects uniformly,
// which the completeness shortcuts (Props. 5 and 8) rely on.
func TestRangeTypingCoversLiterals(t *testing.T) {
	g := store.FromTriples([]rdf.Triple{
		rdf.NewTriple(iri("s"), iri("p"), rdf.NewLiteral("v")),
		rdf.NewTriple(iri("p"), rdf.Range(), iri("C")),
	})
	inf := Graph(g)
	if len(inf.Types) != 1 {
		t.Fatalf("G∞ has %d type triples, want 1 (the typed literal)", len(inf.Types))
	}
	lit, _ := g.Dict().Lookup(rdf.NewLiteral("v"))
	c, _ := g.Dict().LookupIRI("http://x/C")
	if inf.Types[0].S != lit || inf.Types[0].O != c {
		t.Errorf("G∞ type triple = %v, want literal τ C", inf.Types[0])
	}
}

func TestSaturationIsIdempotent(t *testing.T) {
	g := paperBookGraph()
	once := Graph(g)
	twice := Graph(once)
	if !reflect.DeepEqual(once.CanonicalStrings(), twice.CanonicalStrings()) {
		t.Error("saturation is not idempotent")
	}
	if !IsSaturated(once) {
		t.Error("IsSaturated(G∞) = false")
	}
	if IsSaturated(g) {
		t.Error("IsSaturated(G) = true for a graph with implicit triples")
	}
}

func TestSaturationOfSchemalessGraphIsIdentity(t *testing.T) {
	g := store.FromTriples([]rdf.Triple{
		rdf.NewTriple(iri("a"), iri("p"), iri("b")),
		rdf.NewTriple(iri("a"), rdf.Type(), iri("C")),
	})
	inf := Graph(g)
	if !reflect.DeepEqual(g.CanonicalStrings(), inf.CanonicalStrings()) {
		t.Error("saturating a schemaless graph changed it")
	}
}

func TestMultiStepEntailmentChain(t *testing.T) {
	// p1 ≺sp p2 ≺sp p3, p3 ←↩d C1, C1 ≺sc C2 ≺sc C3:
	// one data triple (s p1 o) must entail s τ C1, C2, C3 and s p2/p3 o.
	doc := `
<http://x/p1> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://x/p2> .
<http://x/p2> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://x/p3> .
<http://x/p3> <http://www.w3.org/2000/01/rdf-schema#domain> <http://x/C1> .
<http://x/C1> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://x/C2> .
<http://x/C2> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://x/C3> .
<http://x/s> <http://x/p1> <http://x/o> .
`
	ts, err := ntriples.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	inf := Graph(store.FromTriples(ts))
	want := []rdf.Triple{
		rdf.NewTriple(iri("s"), iri("p2"), iri("o")),
		rdf.NewTriple(iri("s"), iri("p3"), iri("o")),
		rdf.NewTriple(iri("s"), rdf.Type(), iri("C1")),
		rdf.NewTriple(iri("s"), rdf.Type(), iri("C2")),
		rdf.NewTriple(iri("s"), rdf.Type(), iri("C3")),
	}
	for _, tr := range want {
		if !contains(inf, tr) {
			t.Errorf("G∞ missing %v", tr)
		}
	}
	if len(inf.Data) != 3 || len(inf.Types) != 3 {
		t.Errorf("G∞ has %d data, %d type triples; want 3, 3", len(inf.Data), len(inf.Types))
	}
}

// IsSaturated reports whether applying the entailment rules to g yields no
// new triple: the defining property of G∞.
func IsSaturated(g *store.Graph) bool {
	h := Graph(g)
	return h.NumEdges() == dedupCount(g)
}

func dedupCount(g *store.Graph) int {
	c := g.CloneStructure()
	c.SortDedup()
	return c.NumEdges()
}
