// Join-order tests: the executor picks every join step by live index count,
// so on the committed BSBM/LUBM query mixes (the LUBM joins plus lubmScans
// are benchmark/'s scan-lubm pool) the triples enumerated must not depend
// on the order the patterns are written in, nor on the statistics the plan
// was compiled with, and must stay at the work of the estimated static
// join order the executor used to break its ties by.
//
// The same fixtures gate estimation accuracy (`make est-check`): the
// median q-error of the whole-query estimates over the mixes must stay
// small.
package query

import (
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/core"
	"rdfsum/internal/lubm"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

var regressionMixes = []struct {
	name    string
	graph   func() *store.Graph
	kind    core.Kind
	queries []string
}{
	{
		name:  "bsbm",
		graph: func() *store.Graph { return bsbm.GenerateGraph(bsbm.DefaultConfig(300)) },
		kind:  core.Weak,
		queries: []string{
			`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			 SELECT ?p ?v WHERE {
				?o bsbm:product ?p .
				?o bsbm:vendor ?v .
				?r bsbm:reviewFor ?p .
				?r bsbm:rating1 ?score
			 }`,
			`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			 SELECT ?p ?c WHERE {
				?p bsbm:producer ?pr .
				?o bsbm:product ?p .
				?o bsbm:price ?c
			 }`,
			`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			 SELECT ?r ?d WHERE { ?r bsbm:reviewFor ?p . ?r bsbm:reviewDate ?d }`,
			`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
			 PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
			 SELECT ?p WHERE { ?p rdf:type bsbm:Product . ?p bsbm:producer ?x }`,
		},
	},
	{
		name:  "lubm",
		graph: func() *store.Graph { return lubm.GenerateGraph(lubm.DefaultConfig(2)) },
		kind:  core.TypedWeak,
		queries: []string{
			`PREFIX ub: <http://lubm.example.org/univ-bench.owl#>
			 SELECT ?x ?u WHERE { ?x ub:headOf ?d . ?d ub:subOrganizationOf ?u }`,
			`PREFIX ub: <http://lubm.example.org/univ-bench.owl#>
			 SELECT ?s WHERE { ?s ub:memberOf ?d . ?s ub:advisor ?p . ?p ub:worksFor ?d }`,
			`PREFIX ub: <http://lubm.example.org/univ-bench.owl#>
			 SELECT ?s ?c WHERE {
				?x ub:worksFor ?d .
				?x ub:teacherOf ?c .
				?s ub:advisor ?x .
				?s ub:takesCourse ?c
			 }`,
		},
	},
}

// lubmScans completes the lubm mix's joins to benchmark/'s scan-lubm pool.
// They stay out of regressionMixes: exact single-pattern estimates would
// dilute the q-error gate.
var lubmScans = []string{
	`PREFIX ub: <http://lubm.example.org/univ-bench.owl#> SELECT ?s ?c WHERE { ?s ub:takesCourse ?c }`,
	`PREFIX ub: <http://lubm.example.org/univ-bench.owl#> SELECT ?s ?n WHERE { ?s ub:name ?n }`,
}

// joinOrderWork is the number of triples each query enumerated (unlimited)
// when Compile still built an estimated static join order and the executor
// broke live-count ties by it: one entry per query of the mix, followed
// (lubm) by one per lubmScans query.
var joinOrderWork = map[string][]int64{
	"bsbm": {3368, 2100, 1200, 600},
	"lubm": {24, 706, 726, 1788, 1151},
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			out = append(out, slices.Insert(slices.Clone(p), at, n-1))
		}
	}
	return out
}

// permuted returns q with its patterns rewritten in the given order.
func permuted(q *Query, perm []int) *Query {
	cp := &Query{Distinguished: q.Distinguished, Patterns: make([]Pattern, len(perm))}
	for i, j := range perm {
		cp.Patterns[i] = q.Patterns[j]
	}
	return cp
}

// evalWork evaluates q and returns the triples enumerated, the sorted row
// set and the plan.
func evalWork(t *testing.T, g *store.Graph, ix *store.Index, q *Query, stats PlanStats) (work int64, rows []string, pl *Plan) {
	t.Helper()
	pl, err := Compile(g, q, stats)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pl.Eval(ix, &EvalOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Explain.Steps {
		work += st.Actual
	}
	for _, row := range res.Rows {
		var s string
		for _, term := range row {
			s += term.String() + "\t"
		}
		rows = append(rows, s)
	}
	sort.Strings(rows)
	return work, rows, pl
}

// mappedIndex returns an index over g served the way a durable store
// serves its base: from the mapped column sections of g's snapshot.
func mappedIndex(t *testing.T, g *store.Graph) *store.Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.rdfsum")
	if err := store.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	sf, err := store.OpenSnapshotFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sf.Close() }) //nolint:errcheck
	return store.NewIndexFromBase(sf.Runs(), store.IndexOptions{})
}

// evalBoth is evalWork over the heap index ix and the mapped index of the
// same graph, which must enumerate the same triples and rows.
func evalBoth(t *testing.T, g *store.Graph, ix, mapped *store.Index, q *Query, stats PlanStats) (int64, []string, *Plan) {
	t.Helper()
	work, rows, pl := evalWork(t, g, ix, q, stats)
	if mWork, mRows, _ := evalWork(t, g, mapped, q, stats); mWork != work || !slices.Equal(mRows, rows) {
		t.Fatalf("%v: %d triples and %d rows over the mapped base, %d and %d over the heap base",
			q.Patterns, mWork, len(mRows), work, len(rows))
	}
	return work, rows, pl
}

// TestJoinWorkPermutationInvariant evaluates every query of the mixes, in
// every pattern order, over a heap index and over the mapped base of the
// same graph's snapshot: both bases enumerate the same triples and rows.
func TestJoinWorkPermutationInvariant(t *testing.T) {
	for _, mix := range regressionMixes {
		t.Run(mix.name, func(t *testing.T) {
			g := mix.graph()
			w := core.MustSummarize(g, mix.kind).ComputeWeights()
			ix, mapped := store.NewIndex(g), mappedIndex(t, g)
			queries := mix.queries
			if mix.name == "lubm" {
				queries = append(slices.Clip(queries), lubmScans...)
			}
			if len(queries) != len(joinOrderWork[mix.name]) {
				t.Fatalf("%d queries, %d recorded work figures", len(queries), len(joinOrderWork[mix.name]))
			}
			for qi, text := range queries {
				q := MustParse(text)
				want := joinOrderWork[mix.name][qi]
				baseWork, baseRows, _ := evalBoth(t, g, ix, mapped, q, w)
				if free, _, _ := evalBoth(t, g, ix, mapped, q, nil); free != baseWork {
					t.Errorf("query %d: %d triples with statistics, %d without", qi, baseWork, free)
				}
				minWork, maxWork := baseWork, baseWork
				for _, perm := range permutations(len(q.Patterns)) {
					work, rows, _ := evalBoth(t, g, ix, mapped, permuted(q, perm), w)
					if !slices.Equal(rows, baseRows) {
						t.Fatalf("query %d, order %v: %d rows differ from the source order's %d", qi, perm, len(rows), len(baseRows))
					}
					if work > want+want/100 {
						t.Errorf("query %d, order %v: %d triples enumerated, static join order %d", qi, perm, work, want)
					}
					minWork, maxWork = min(minWork, work), max(maxWork, work)
				}
				t.Logf("query %d: %d rows, %d–%d triples enumerated over the orders (static join order %d)",
					qi, len(baseRows), minWork, maxWork, want)
			}
		})
	}

	// Without usable statistics — nil, or a hand-built Weights with no
	// per-edge statistics — every estimate is unknown and used_stats is
	// false, except that an absent constant makes the plan empty with
	// query_est 0; rows and work are those of the plan compiled with real
	// statistics, in every order.
	t.Run("stats-free", func(t *testing.T) {
		g := samples.Fig2()
		ix, mapped := store.NewIndex(g), mappedIndex(t, g)
		w := core.MustSummarize(g, core.Weak).ComputeWeights()
		cases := []struct {
			name, query string
			empty       bool
		}{
			{"variable property in a chain", `PREFIX ex: <http://example.org/>
				SELECT ?x ?p ?y WHERE { ?x ?p ?y . ?y ex:reviewed ?r . ?r ex:title ?t . ex:r1 ex:author ?y }`, false},
			{"disconnected pair", `PREFIX ex: <http://example.org/>
				SELECT ?x ?z WHERE { ?x ex:title ?t . ?z ex:editor ex:e2 . ?x ex:author ?a }`, false},
			{"star with a var-class type pattern", `PREFIX ex: <http://example.org/>
				SELECT ?x WHERE { ?x ex:title ?t . ?x a ?c . ?x ex:editor ex:e1 . ex:e1 ex:published ?w }`, false},
			{"absent constant", `PREFIX ex: <http://example.org/>
				SELECT ?x ?z WHERE { ?x ex:title ?t . ?z ex:nosuch ex:e2 . ?x ex:author ?a . ?z ?p ex:r4 }`, true},
			{"two constants beat one", `PREFIX ex: <http://example.org/>
				SELECT ?x WHERE { ex:r1 ?p ex:a1 . ?x ex:title ?t }`, false},
		}
		for _, tc := range cases {
			q := MustParse(tc.query)
			for _, perm := range permutations(len(q.Patterns)) {
				pq := permuted(q, perm)
				wantWork, wantRows, _ := evalBoth(t, g, ix, mapped, pq, w)
				for name, stats := range map[string]PlanStats{"nil": nil, "hand-built": {}} {
					work, rows, pl := evalBoth(t, g, ix, mapped, pq, stats)
					if pl.empty != tc.empty || pl.usedStats {
						t.Errorf("%s %v (%s stats): empty=%v usedStats=%v, want %v and false", tc.name, perm, name, pl.empty, pl.usedStats, tc.empty)
					}
					wantEst := estUnknown
					if tc.empty {
						wantEst = 0
					}
					if pl.queryEst != wantEst {
						t.Errorf("%s %v (%s stats): queryEst = %d, want %d", tc.name, perm, name, pl.queryEst, wantEst)
					}
					for i, est := range pl.est {
						if est != wantEst {
							t.Errorf("%s %v (%s stats): pattern %d est = %d, want %d", tc.name, perm, name, i, est, wantEst)
						}
					}
					if work != wantWork || !slices.Equal(rows, wantRows) {
						t.Errorf("%s %v (%s stats): %d triples, %d rows; with statistics %d and %d",
							tc.name, perm, name, work, len(rows), wantWork, len(wantRows))
					}
				}
			}
		}
	})
}

// TestEstimationAccuracyMixes is the est-check gate: the median q-error of
// whole-query estimates over the committed mixes (measured against the
// true number of embeddings — all variables projected) must stay under the
// regression threshold.
func TestEstimationAccuracyMixes(t *testing.T) {
	const (
		medianMax = 5.0
		worstMax  = 1e4
	)
	var qerrs []float64
	for _, mix := range regressionMixes {
		g := mix.graph()
		w := core.MustSummarize(g, mix.kind).ComputeWeights()
		ix := store.NewIndex(g)
		for qi, text := range mix.queries {
			q := MustParse(text)
			// Project every body variable so the row count equals the
			// number of embeddings the estimator predicts.
			full := &Query{Patterns: q.Patterns}
			res, err := Eval(g, ix, full, &EvalOptions{Stats: w, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			est, act := float64(res.Explain.QueryEst), float64(len(res.Rows))
			if est < 1 {
				est = 1
			}
			if act < 1 {
				act = 1
			}
			qe := est / act
			if qe < 1 {
				qe = 1 / qe
			}
			t.Logf("%s query %d: est=%d actual=%d q-error=%.2f", mix.name, qi, res.Explain.QueryEst, len(res.Rows), qe)
			if qe > worstMax {
				t.Errorf("%s query %d: q-error %.1f exceeds %.0f", mix.name, qi, qe, worstMax)
			}
			qerrs = append(qerrs, qe)
		}
	}
	sort.Float64s(qerrs)
	if median := qerrs[len(qerrs)/2]; median > medianMax {
		t.Errorf("median q-error %.2f over the mixes exceeds %.1f", median, medianMax)
	}
}
