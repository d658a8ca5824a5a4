// Package load reads RDF dumps into encoded graphs.
//
// The paper's implementation (§6) parses N-Triples, encodes every term
// through a dictionary, and "subsequently works only with the integer
// representation". Here that is one sequential pass per document, for
// both formats: N-Triples streams through ntriples.ParseFunc in 64 KB
// slabs, each triple interned into the graph's dictionary and routed to
// its component as it parses; Turtle is buffered whole (its grammar is
// not line-delimited) and turtle.Stream hands each term to the
// dictionary once and each triple over as three IDs. Either way terms
// are numbered in first-occurrence order — subject, property, object of
// each triple in document order — so a load is, ID for ID and component
// for component, the graph store.FromTriples builds from the parsed
// triples. A malformed document fails with the first error in document
// order, at its 1-based line.
package load

import (
	"io"

	"rdfsum/internal/compress"
	"rdfsum/internal/dict"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
	"rdfsum/internal/turtle"
)

// Options says what an input is; zero fields are detected.
type Options struct {
	// Format is the RDF serialization of the input; FormatAuto (zero)
	// detects it from the file extension or leading bytes.
	Format Format
	// Compression is the input's stream compression; compress.Auto
	// (zero) sniffs the magic bytes.
	Compression compress.Codec
}

// ntriplesGraph loads an N-Triples document: ParseFunc into Graph.Add.
func ntriplesGraph(r io.Reader) (*store.Graph, error) {
	g := store.NewGraph()
	if err := ntriples.ParseFunc(r, func(t rdf.Triple) error { g.Add(t); return nil }); err != nil {
		return nil, err
	}
	return g, nil
}

// turtleGraph loads a Turtle document: buffered whole
// (turtle.ReadDocument), then interned straight into the graph's
// dictionary by the one statement loop, with IDs appended — no
// rdf.Triple is built.
func turtleGraph(r io.Reader) (*store.Graph, error) {
	doc, err := turtle.ReadDocument(r)
	if err != nil {
		return nil, err
	}
	g := store.NewGraph()
	d := g.Dict()
	err = turtle.Stream(doc,
		func(t rdf.Term) uint32 { return uint32(d.Encode(t)) },
		func(s, p, o uint32) error {
			g.AddEncoded(dict.ID(s), dict.ID(p), dict.ID(o))
			return nil
		})
	if err != nil {
		return nil, err
	}
	return g, nil
}
