package main

import (
	"fmt"

	"rdfsum"
)

// summaryCounts are the size measures GET /v1/summary reports.
type summaryCounts struct{ dataNodes, allNodes, dataEdges, allEdges int }

// oracle holds the answers the server must give, computed in-process
// from the generated inputs with the library's batch entry points.
type oracle struct {
	baseRows []int // expected row count per pool query on the base state
	// peakRows is the same with every add batch of the write window
	// applied and none deleted — the most a reader overlapping the writer
	// can see (mixed workloads only, else nil).
	peakRows []int

	finalTriples int
	finalSummary map[string]summaryCounts // by kind name, on the final state
}

func evalPool(g *rdfsum.Graph, pool []poolQuery, limit int) ([]int, error) {
	ix := rdfsum.NewIndex(g)
	rows := make([]int, len(pool))
	byText := map[string]int{} // the pool repeats its few unbound texts
	for i, pq := range pool {
		if n, ok := byText[pq.text]; ok {
			rows[i] = n
			continue
		}
		q, err := rdfsum.ParseQuery(pq.text)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s query %d: %w", pq.template, i, err)
		}
		res, err := rdfsum.EvalQueryWithOptions(g, ix, q, &rdfsum.QueryOptions{Limit: limit})
		if err != nil {
			return nil, fmt.Errorf("oracle: %s query %d: %w", pq.template, i, err)
		}
		rows[i] = len(res.Rows)
		byText[pq.text] = rows[i]
	}
	return rows, nil
}

// computeOracle evaluates the pool on the base graph, then applies the
// batches that survive the scenario (deleted[i] marks add batch i as
// deleted again) and summarizes the final graph. Every added triple has
// a subject unique to its batch, so "base + surviving batches" is the
// exact final state whatever order the server applied things in.
// nAdds is the number of batches the write window adds.
func computeOracle(w *workload, in *inputs, nAdds int, deleted []bool) (*oracle, error) {
	or := &oracle{}
	var err error
	if w.writeRate > 0 {
		peak := rdfsum.NewGraph(in.base)
		for _, b := range in.batches[:nAdds] {
			for _, t := range b {
				peak.Add(t)
			}
		}
		if or.peakRows, err = evalPool(peak, in.pool, w.limit); err != nil {
			return nil, err
		}
	}
	g := rdfsum.NewGraph(in.base)
	if or.baseRows, err = evalPool(g, in.pool, w.limit); err != nil {
		return nil, err
	}
	for i, b := range in.batches {
		if !deleted[i] {
			for _, t := range b {
				g.Add(t)
			}
		}
	}
	or.finalTriples = g.NumEdges()
	or.finalSummary = map[string]summaryCounts{}
	for _, kind := range rdfsum.Kinds {
		s, err := rdfsum.Summarize(g, kind)
		if err != nil {
			return nil, fmt.Errorf("oracle: summarize %s: %w", kind, err)
		}
		or.finalSummary[kind.String()] = summaryCounts{s.Stats.DataNodes, s.Stats.AllNodes, s.Stats.DataEdges, s.Stats.AllEdges}
	}
	return or, nil
}
