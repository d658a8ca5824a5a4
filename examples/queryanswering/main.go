// Query answering support: use a summary as a static-analysis oracle — the
// paper's query-oriented motivation. Because summaries are
// RBGP-representative (Prop. 1), a query with NO answers on the (small,
// saturated) summary provably has no answers on the (large) graph: the
// engine can prune it without touching the data. A query non-empty on the
// summary must still be evaluated, but the summary answers the emptiness
// check orders of magnitude faster.
package main

import (
	"fmt"
	"log"
	"time"

	"rdfsum"
)

func main() {
	g := rdfsum.GenerateBSBM(2000) // ~120k triples
	fmt.Printf("dataset: %d triples\n", g.NumEdges())

	// Build once, offline: the weak summary, its saturated pruning gate,
	// and the quotient-map weights behind the planner's estimates.
	start := time.Now()
	s, err := rdfsum.Summarize(g, rdfsum.Weak)
	if err != nil {
		log.Fatal(err)
	}
	pruner := rdfsum.NewQueryPruner(s)
	weights := s.ComputeWeights()
	fmt.Printf("weak summary: %d edges, gate+weights built in %v\n\n",
		s.Stats.AllEdges, time.Since(start).Round(time.Millisecond))

	queries := map[string]string{
		"reviews with a rating for an offered product (answerable)": `
			PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			SELECT ?r WHERE {
				?r bsbm:reviewFor ?p .
				?r bsbm:rating1 ?score .
				?o bsbm:product ?p .
			}`,
		"products that review something (unanswerable: wrong direction)": `
			PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			SELECT ?p WHERE {
				?p bsbm:producer ?x .
				?p bsbm:reviewFor ?r .
			}`,
		"offers with a review date (unanswerable: disjoint kinds)": `
			PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			SELECT ?o WHERE {
				?o bsbm:price ?x .
				?o bsbm:reviewDate ?d .
			}`,
	}

	inf := rdfsum.Saturate(g)
	infIx := rdfsum.NewIndex(inf)
	for name, text := range queries {
		q, err := rdfsum.ParseQuery(text)
		if err != nil {
			log.Fatal(err)
		}

		// One call: the engine consults the gate first, then, if it must
		// execute, estimates each pattern from the summary weights and
		// joins by live index counts.
		t0 := time.Now()
		res, err := rdfsum.EvalQueryWithOptions(inf, infIx, q, &rdfsum.QueryOptions{
			Pruner:  pruner,
			Stats:   weights,
			Explain: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)

		fmt.Printf("%s\n", name)
		if res.Explain.Pruned {
			fmt.Printf("  %v: provably EMPTY by the %s summary — graph never touched\n\n",
				elapsed.Round(time.Microsecond), res.Explain.PrunedBy)
			continue
		}
		fmt.Printf("  %v: %d answers; plan (est -> actual per pattern):\n",
			elapsed.Round(time.Millisecond), len(res.Rows))
		for _, step := range res.Explain.Steps {
			fmt.Printf("    %s  est=%d actual=%d\n", step.Pattern, step.Est, step.Actual)
		}
		fmt.Println()
	}
}
