package load

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rdfsum/internal/compress"
	"rdfsum/internal/lubm"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
	"rdfsum/internal/turtle"
)

// loadTurtle loads doc as plain Turtle.
func loadTurtle(doc string) (*store.Graph, error) {
	return Reader(strings.NewReader(doc), Options{Format: FormatTurtle, Compression: compress.None})
}

// assertLoadsAsReference checks the loader against the reference
// construction — turtle.ParseString into store.FromTriples — dictionary
// and components, and returns the reference.
func assertLoadsAsReference(t *testing.T, doc string) *store.Graph {
	t.Helper()
	want := turtleReference(t, []byte(doc))
	got, err := loadTurtle(doc)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, want, got)
	return want
}

// The two traps the parser's spelling cache opens, checked against the
// dictionary and not just the triples.

func TestTurtlePrefixRebindingLoadsDistinctTerms(t *testing.T) {
	g := assertLoadsAsReference(t,
		"@prefix ex: <http://a/> . ex:x ex:p ex:y . @prefix ex: <http://b/> . ex:x ex:p ex:y .")
	ids := map[uint32]bool{}
	for _, iri := range []string{"http://a/x", "http://a/y", "http://b/x", "http://b/y"} {
		id, ok := g.Dict().LookupIRI(iri)
		if !ok {
			t.Fatalf("%s was not loaded", iri)
		}
		ids[uint32(id)] = true
	}
	if len(ids) != 4 || len(g.Data) != 2 {
		t.Errorf("loaded %d distinct nodes in %d triples, want 4 in 2", len(ids), len(g.Data))
	}
}

func TestTurtleDatatypeNameIsNotInterned(t *testing.T) {
	g := assertLoadsAsReference(t, `@prefix ex: <http://a/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:p "1"^^xsd:integer , "2"^^xsd:integer .
ex:t ex:p "1"^^xsd:integer ; ex:q ex:s .
`)
	if id, ok := g.Dict().LookupIRI(rdf.XSDInteger); ok {
		t.Errorf("the datatype IRI was interned as a term (id %d)", id)
	}
	if _, ok := g.Dict().Lookup(rdf.NewTypedLiteral("1", rdf.XSDInteger)); !ok {
		t.Error(`"1"^^xsd:integer was not loaded with its expanded datatype`)
	}
}

// TestStreamTurtleStopsAtFirstError: fn is called as statements parse,
// and its first error stops the parse and comes back unchanged.
func TestStreamTurtleStopsAtFirstError(t *testing.T) {
	var b strings.Builder
	b.WriteString("@prefix ex: <http://ex.org/> .\n")
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&b, "ex:s%d ex:p ex:o%d .\n", i, i)
	}
	stop := errors.New("stop")
	calls := 0
	err := Stream(strings.NewReader(b.String()), Options{Format: FormatTurtle}, func(rdf.Triple) error {
		if calls++; calls == 3 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 3 {
		t.Fatalf("Stream returned %v after %d calls of fn, want the fn's own error after 3", err, calls)
	}
}

// TestTurtleLoadAllocBound is the ceiling on what a Turtle load
// allocates, so the streaming property cannot rot: bytes within 12×
// the document (the document buffer's doubling is ≤ 4× of that; a load
// through []rdf.Triple took 37×) and objects within 2 per distinct term
// (its expansion or frame, and the dictionary's clone; 6 before). The
// same triples written with full <iri>s — N-Triples is Turtle — hold no
// prefixed name at all: the name cache sized for them must not show.
func TestTurtleLoadAllocBound(t *testing.T) {
	triples := lubm.GenerateGraph(lubm.DefaultConfig(5)).Decode()
	var prefixed, fullIRI bytes.Buffer
	if err := turtle.Write(&prefixed, triples, nil); err != nil {
		t.Fatal(err)
	}
	if err := ntriples.Write(&fullIRI, triples); err != nil {
		t.Fatal(err)
	}
	for name, doc := range map[string][]byte{"prefixed": prefixed.Bytes(), "full-iri": fullIRI.Bytes()} {
		t.Run(name, func(t *testing.T) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			g, err := Reader(bytes.NewReader(doc), Options{Format: FormatTurtle, Compression: compress.None})
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			bytesPerByte := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(doc))
			mallocs, terms := m1.Mallocs-m0.Mallocs, g.Dict().Len()
			t.Logf("%d-byte document, %d triples, %d terms: %.1f B allocated per byte, %d allocations (%.2f per term)",
				len(doc), g.NumEdges(), terms, bytesPerByte, mallocs, float64(mallocs)/float64(terms))
			if bytesPerByte > 12 {
				t.Errorf("allocated %.1f bytes per document byte, want ≤ 12", bytesPerByte)
			}
			if limit := uint64(2*terms + 1000); mallocs > limit {
				t.Errorf("%d allocations for %d distinct terms, want ≤ %d", mallocs, terms, limit)
			}
		})
	}
}

// FuzzTurtleLoad asserts at the dictionary level that the streamed load
// equals store.FromTriples(turtle.ParseString(doc)) term for term, ID for
// ID and component for component, and that malformed input fails both
// with a *turtle.ParseError on the same line.
func FuzzTurtleLoad(f *testing.F) {
	for _, s := range []string{
		"@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o , ex:s ; a ex:T .\nex:s2 a ex:T .\n",
		"@base <http://b.org/> .\n<a> <b> <c> .\n<d> <e> \"f\"@en , 3.14 , true .\n",
		"@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o .base <http://b.org/>\n<rel> ex:p ex:q .\n",
		"@prefix ex: <http://ex.org/> .\nex:s ex:p \"open\n .\nex:t ex:p ex:o .\n@prefix bad <x> .\n",
		"_:b <http://p> -2.5e3 .",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		ts, refErr := turtle.ParseString(doc)
		got, err := loadTurtle(doc)
		if refErr != nil {
			var want, loadErr *turtle.ParseError
			if !errors.As(refErr, &want) {
				t.Fatalf("ParseString failed with %T (%v), want *turtle.ParseError", refErr, refErr)
			}
			if !errors.As(err, &loadErr) || loadErr.Line != want.Line {
				t.Fatalf("ParseString failed with %q, the load with %v", want, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("ParseString succeeded; the load failed: %v", err)
		}
		assertIdentical(t, store.FromTriples(ts), got)
	})
}
