// Soundness of the summary-pruning gate (Prop. 1): a query with answers
// on G∞ must NEVER be pruned, for every summary kind, on randomized
// graphs — and gated evaluation must return exactly the ungated rows for
// every query, empty or not.
package query_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"rdfsum/internal/core"
	"rdfsum/internal/query"
	"rdfsum/internal/samples"
	"rdfsum/internal/saturate"
	"rdfsum/internal/store"
)

var prunerKinds = []core.Kind{core.Weak, core.Strong, core.TypedWeak, core.TypedStrong}

// prunersOf builds the saturated-summary gate of every kind for g.
func prunersOf(t testing.TB, g *store.Graph) map[core.Kind]*query.Pruner {
	t.Helper()
	out := map[core.Kind]*query.Pruner{}
	for _, k := range prunerKinds {
		out[k] = query.NewPruner(core.MustSummarize(g, k))
	}
	return out
}

// TestPrunerSoundnessRandom: extracted queries are non-empty on G∞ by
// construction, so no summary may ever prove them empty.
func TestPrunerSoundnessRandom(t *testing.T) {
	f := func(seed uint64) bool {
		g := smallGraph(seed)
		inf := saturate.Graph(g)
		pruners := prunersOf(t, g)
		rng := query.NewRNG(seed)
		for i := 0; i < 5; i++ {
			q, ok := query.ExtractRBGP(inf, rng, 3)
			if !ok {
				return true
			}
			for k, pr := range pruners {
				if pr.ProvablyEmpty(q) {
					t.Logf("seed %d: %s pruner dropped non-empty query %s", seed, k, q)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGatedEvalNeverDropsRows: for arbitrary queries — including ones the
// gate prunes — Eval with EvalOptions.Pruner set returns exactly the
// ungated row set. Pruning may only short-circuit evaluations that would
// have been empty anyway.
func TestGatedEvalNeverDropsRows(t *testing.T) {
	f := func(seed uint64) bool {
		g := smallGraph(seed)
		ix := store.NewIndex(g)
		pruners := prunersOf(t, g)
		rng := query.NewRNG(seed ^ 0xfeed)
		props := g.DistinctDataProperties()
		for i := 0; i < 4; i++ {
			q, ok := query.ExtractRBGP(g, rng, 3)
			if !ok {
				return true
			}
			// Also evaluate a likely-empty corruption: swap one pattern's
			// property for a random other property of the graph.
			variants := []*query.Query{q}
			if len(props) > 1 {
				c := &query.Query{
					Distinguished: q.Distinguished,
					Patterns:      append([]query.Pattern(nil), q.Patterns...),
				}
				for j, p := range c.Patterns {
					if !p.P.IsVar {
						c.Patterns[j].P = query.Const(g.Dict().Term(props[rng.IntN(len(props))]))
						break
					}
				}
				variants = append(variants, c)
			}
			for _, v := range variants {
				want, err := query.Eval(g, ix, v, nil)
				if err != nil {
					continue // corruption can make the query invalid; skip
				}
				for k, pr := range pruners {
					got, err := query.Eval(g, ix, v, &query.EvalOptions{Pruner: pr})
					if err != nil {
						t.Logf("seed %d: gated eval error: %v", seed, err)
						return false
					}
					if !reflect.DeepEqual(canon(got), canon(want)) {
						t.Logf("seed %d: %s-gated eval of %s: %d rows, want %d",
							seed, k, v, len(got.Rows), len(want.Rows))
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// canon canonicalizes a result's rows for set comparison.
func canon(r *query.Result) map[string]bool {
	out := map[string]bool{}
	for _, row := range r.Rows {
		key := ""
		for _, term := range row {
			key += term.String() + "\t"
		}
		out[key] = true
	}
	return out
}

// TestPrunerDeclinesNonRBGP: representativeness is only guaranteed for
// the relational BGP dialect, so queries outside it are never pruned even
// when they are empty on the summary.
func TestPrunerDeclinesNonRBGP(t *testing.T) {
	g := samples.Fig2()
	s := core.MustSummarize(g, core.Weak)
	pr := query.NewPruner(s)
	// Variable property position: not RBGP.
	q := query.MustParse(`SELECT ?p WHERE { ?x ?p ?y }`)
	if pr.ProvablyEmpty(q) {
		t.Error("pruner claimed a non-RBGP query empty")
	}
	// Constant subject: not RBGP either.
	q2 := query.MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?y WHERE { <http://example.org/nowhere> ex:author ?y }`)
	if pr.ProvablyEmpty(q2) {
		t.Error("pruner claimed a constant-subject query empty")
	}
}

// TestPrunerPrunesDisjointJoin: Fig. 2 has no node carrying both author
// and comment, and the weak summary separates their source cliques, so
// the gate proves the join empty without touching the graph.
func TestPrunerPrunesDisjointJoin(t *testing.T) {
	g := samples.Fig2()
	ix := store.NewIndex(g)
	pruners := prunersOf(t, g)
	q := query.MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x ex:author ?a . ?x ex:comment ?c }`)
	// Ground truth: empty on G∞.
	inf := saturate.Graph(g)
	if found, err := query.Ask(inf, store.NewIndex(inf), q); err != nil || found {
		t.Fatalf("precondition: query should be empty on G∞ (found=%v, err=%v)", found, err)
	}
	prunedBySome := false
	for k, pr := range pruners {
		if pr.ProvablyEmpty(q) {
			prunedBySome = true
			// The gated evaluation must report the pruning in Explain.
			res, err := query.Eval(g, ix, q, &query.EvalOptions{Pruner: pr, Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 0 || !res.Explain.Pruned || res.Explain.PrunedBy != k.String() {
				t.Errorf("%s: pruned eval = %d rows, explain %+v", k, len(res.Rows), res.Explain)
			}
		}
	}
	if !prunedBySome {
		t.Error("no summary kind pruned the disjoint author/comment join")
	}
}
