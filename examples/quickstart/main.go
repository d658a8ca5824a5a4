// Quickstart: parse an RDF graph, saturate it, build all four summaries,
// and answer a query that needs implicit triples — the running example of
// the paper's §2.1.
package main

import (
	"fmt"
	"log"
	"os"

	"rdfsum"
)

const doc = `
<http://example.org/doi1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/Book> .
<http://example.org/doi1> <http://example.org/writtenBy> _:b1 .
<http://example.org/doi1> <http://example.org/hasTitle> "Le Port des Brumes" .
_:b1 <http://example.org/hasName> "G. Simenon" .
<http://example.org/doi1> <http://example.org/publishedIn> "1932" .
<http://example.org/Book> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://example.org/Publication> .
<http://example.org/writtenBy> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://example.org/hasAuthor> .
<http://example.org/writtenBy> <http://www.w3.org/2000/01/rdf-schema#domain> <http://example.org/Book> .
<http://example.org/writtenBy> <http://www.w3.org/2000/01/rdf-schema#range> <http://example.org/Person> .
`

func main() {
	// 1. Parse and load.
	triples, err := rdfsum.ParseString(doc)
	if err != nil {
		log.Fatal(err)
	}
	g := rdfsum.NewGraph(triples)
	fmt.Printf("loaded %d triples: %d data, %d type, %d schema\n",
		g.NumEdges(), len(g.Data), len(g.Types), len(g.Schema))

	// 2. Saturate: the semantics of an RDF graph is its saturation.
	inf := rdfsum.Saturate(g)
	fmt.Printf("saturation adds %d implicit triples\n", inf.NumEdges()-g.NumEdges())

	// 3. Query with complete answers (hasAuthor is implicit).
	q, err := rdfsum.ParseQuery(`
		PREFIX ex: <http://example.org/>
		SELECT ?name WHERE {
			?x ex:hasAuthor ?a .
			?a ex:hasName ?name .
			?x ex:hasTitle ?t
		}`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rdfsum.EvalQueryWithOptions(inf, rdfsum.NewIndex(inf), q, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("author name: %s\n", row[0])
	}

	// 4. Summarize, four ways.
	for _, kind := range []rdfsum.Kind{rdfsum.Weak, rdfsum.Strong, rdfsum.TypedWeak, rdfsum.TypedStrong} {
		s, err := rdfsum.Summarize(g, kind)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-13s %2d data nodes, %2d edges (compression %.2f)\n",
			kind.String()+":", s.Stats.DataNodes, s.Stats.AllEdges, s.Stats.CompressionRatio())
	}

	// 5. Render the weak summary for Graphviz (pipe to `dot -Tsvg`).
	s, _ := rdfsum.Summarize(g, rdfsum.Weak)
	if err := rdfsum.ExportDOT(os.Stdout, s.Graph, "weak summary of the book graph"); err != nil {
		log.Fatal(err)
	}
}
