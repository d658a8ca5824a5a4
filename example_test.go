package rdfsum_test

import (
	"fmt"
	"log"

	"rdfsum"
)

const exampleDoc = `
<http://ex.org/r1> <http://ex.org/author> <http://ex.org/a1> .
<http://ex.org/r1> <http://ex.org/title> "Foundations" .
<http://ex.org/r2> <http://ex.org/author> <http://ex.org/a1> .
<http://ex.org/r2> <http://ex.org/title> "Principles" .
<http://ex.org/r1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Book> .
`

func ExampleSummarize() {
	triples, err := rdfsum.ParseString(exampleDoc)
	if err != nil {
		log.Fatal(err)
	}
	g := rdfsum.NewGraph(triples)
	s, err := rdfsum.Summarize(g, rdfsum.Weak)
	if err != nil {
		log.Fatal(err)
	}
	// Both books share every clique, so one summary node represents them;
	// each property labels exactly one edge (Property 4).
	fmt.Println("data nodes:", s.Stats.DataNodes)
	fmt.Println("data edges:", s.Stats.DataEdges)
	// Output:
	// data nodes: 3
	// data edges: 2
}

func ExampleSaturate() {
	doc := exampleDoc + `
<http://ex.org/Book> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex.org/Publication> .
`
	triples, err := rdfsum.ParseString(doc)
	if err != nil {
		log.Fatal(err)
	}
	g := rdfsum.NewGraph(triples)
	inf := rdfsum.Saturate(g)
	fmt.Println("implicit triples:", inf.NumEdges()-g.NumEdges())
	// Output:
	// implicit triples: 1
}

func ExampleEvalQueryWithOptions() {
	triples, err := rdfsum.ParseString(exampleDoc)
	if err != nil {
		log.Fatal(err)
	}
	g := rdfsum.NewGraph(triples)
	q, err := rdfsum.ParseQuery(`
		PREFIX ex: <http://ex.org/>
		SELECT ?t WHERE { ?x a ex:Book . ?x ex:title ?t }`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rdfsum.EvalQueryWithOptions(g, rdfsum.NewIndex(g), q, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0])
	}
	// Output:
	// "Foundations"
}

func ExampleNewBuilderSet() {
	triples, err := rdfsum.ParseString(exampleDoc)
	if err != nil {
		log.Fatal(err)
	}
	b, err := rdfsum.NewBuilderSet(rdfsum.EmptyGraph(), []rdfsum.Kind{rdfsum.Weak})
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range triples {
		b.Add(t)
	}
	s, err := b.Summary(rdfsum.Weak) // snapshot; the builder keeps accepting triples
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nodes:", s.Stats.DataNodes)
	fmt.Println("edges:", s.Stats.DataEdges)
	// Output:
	// nodes: 3
	// edges: 2
}
