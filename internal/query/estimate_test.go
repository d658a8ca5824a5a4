// Estimator properties: exactness on single patterns, bound-endpoint
// selectivity, and q-error bounds on the committed golden corpora.
package query_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rdfsum/internal/core"
	"rdfsum/internal/dict"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/query"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

// evalEst evaluates q with statistics and explain, returning the
// whole-query estimate, the first step's estimate and the row count.
func evalEst(t testing.TB, g *store.Graph, stats query.PlanStats, q *query.Query) (queryEst, firstEst int64, rows int) {
	t.Helper()
	res, err := query.Eval(g, store.NewIndex(g), q, &query.EvalOptions{Stats: stats, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Explain.QueryEst, res.Explain.Steps[0].Est, len(res.Rows)
}

// TestEstimatorExactSinglePattern: on a fresh summary of the queried
// graph, single-pattern queries with free endpoints are estimated
// exactly — the per-edge multiplicities partition the triples, so their
// sum is the true count. Checked for every property, every class, and
// the all-wildcard pattern, against the rows the engine actually returns.
func TestEstimatorExactSinglePattern(t *testing.T) {
	f := func(seed uint64) bool {
		g := smallGraph(seed)
		stats := weightsOf(t, g)
		terms := g.Dict()

		props := map[dict.ID]bool{}
		for _, tr := range g.Data {
			props[tr.P] = true
		}
		for p := range props {
			q := &query.Query{Patterns: []query.Pattern{
				{S: query.Var("x"), P: query.Const(terms.Term(p)), O: query.Var("y")},
			}}
			qe, fe, rows := evalEst(t, g, stats, q)
			if qe != int64(rows) || fe != int64(rows) {
				t.Logf("seed %d: property %s est=(%d,%d) rows=%d", seed, terms.Term(p), qe, fe, rows)
				return false
			}
		}

		classes := map[dict.ID]bool{}
		for _, tr := range g.Types {
			classes[tr.O] = true
		}
		for c := range classes {
			q := &query.Query{Patterns: []query.Pattern{
				{S: query.Var("x"), P: query.Const(terms.Term(g.Vocab().Type)), O: query.Const(terms.Term(c))},
			}}
			qe, fe, rows := evalEst(t, g, stats, q)
			if qe != int64(rows) || fe != int64(rows) {
				t.Logf("seed %d: class %s est=(%d,%d) rows=%d", seed, terms.Term(c), qe, fe, rows)
				return false
			}
		}

		all := &query.Query{Patterns: []query.Pattern{
			{S: query.Var("s"), P: query.Var("p"), O: query.Var("o")},
		}}
		qe, _, rows := evalEst(t, g, stats, all)
		if qe != int64(rows) {
			t.Logf("seed %d: wildcard est=%d rows=%d", seed, qe, rows)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEstimatorBoundEndpointTightens: a pattern with a bound subject never
// estimates above its fully-unbound form, and estimates strictly below it
// whenever the statistics support it — the acceptance criterion that
// <s> :p ?o beats ?x :p ?y. Fig. 2's title property (four triples, four
// distinct subjects) guarantees at least one strict case.
func TestEstimatorBoundEndpointTightens(t *testing.T) {
	g := samples.Fig2()
	stats := weightsOf(t, g)
	terms := g.Dict()
	strict := false
	for _, tr := range g.Data {
		unbound := &query.Query{Patterns: []query.Pattern{
			{S: query.Var("x"), P: query.Const(terms.Term(tr.P)), O: query.Var("y")},
		}}
		bound := &query.Query{Patterns: []query.Pattern{
			{S: query.Const(terms.Term(tr.S)), P: query.Const(terms.Term(tr.P)), O: query.Var("o")},
		}}
		_, estU, _ := evalEst(t, g, stats, unbound)
		_, estB, rows := evalEst(t, g, stats, bound)
		if estB > estU {
			t.Errorf("bound-subject est %d exceeds unbound est %d for %s", estB, estU, terms.Term(tr.P))
		}
		if estB < 1 {
			t.Errorf("bound-subject est %d for a pattern with %d answers", estB, rows)
		}
		if estB < estU {
			strict = true
		}
	}
	if !strict {
		t.Error("no data pattern estimated strictly lower with a bound subject")
	}

	// Bound objects tighten symmetrically.
	for _, tr := range g.Data {
		unbound := &query.Query{Patterns: []query.Pattern{
			{S: query.Var("x"), P: query.Const(terms.Term(tr.P)), O: query.Var("y")},
		}}
		bound := &query.Query{Patterns: []query.Pattern{
			{S: query.Var("x"), P: query.Const(terms.Term(tr.P)), O: query.Const(terms.Term(tr.O))},
		}}
		_, estU, _ := evalEst(t, g, stats, unbound)
		_, estB, _ := evalEst(t, g, stats, bound)
		if estB > estU {
			t.Errorf("bound-object est %d exceeds unbound est %d for %s", estB, estU, terms.Term(tr.P))
		}
	}
}

// loadCorpus parses one committed N-Triples file from the samples corpus.
func loadCorpus(t testing.TB, path string) *store.Graph {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	triples, err := ntriples.Parse(f)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	return store.FromTriples(triples)
}

// qError is the symmetric estimation-error ratio, with both sides floored
// at one row so empty/sub-row cases stay finite.
func qError(est int64, actual int) float64 {
	e, a := float64(est), float64(actual)
	if e < 1 {
		e = 1
	}
	if a < 1 {
		a = 1
	}
	if e > a {
		return e / a
	}
	return a / e
}

// TestEstimatorQErrorGolden: over the golden corpora, randomly extracted
// (guaranteed non-empty) RBGP queries estimated from weak and typed-weak
// summaries stay within a bounded q-error: every estimate is at least one
// row (the witness embedding always contributes), the median q-error is
// small, and no estimate is wildly off.
func TestEstimatorQErrorGolden(t *testing.T) {
	inputs, err := filepath.Glob(filepath.Join("..", "samples", "testdata", "*.nt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) == 0 {
		t.Fatal("no corpora under internal/samples/testdata")
	}
	var qerrs []float64
	for _, path := range inputs {
		g := loadCorpus(t, path)
		ix := store.NewIndex(g)
		for _, kind := range []core.Kind{core.Weak, core.TypedWeak} {
			stats := core.MustSummarize(g, kind).ComputeWeights()
			rng := query.NewRNG(7)
			for i := 0; i < 20; i++ {
				q, ok := query.ExtractRBGP(g, rng, 1+i%3)
				if !ok {
					break
				}
				res, err := query.Eval(g, ix, q, &query.EvalOptions{Stats: stats, Explain: true})
				if err != nil {
					t.Fatal(err)
				}
				est := res.Explain.QueryEst
				if est < 1 {
					t.Errorf("%s/%s: est %d for non-empty query %s (%d rows)",
						filepath.Base(path), kind, est, q, len(res.Rows))
				}
				qerrs = append(qerrs, qError(est, len(res.Rows)))
			}
		}
	}
	sort.Float64s(qerrs)
	median := qerrs[len(qerrs)/2]
	max := qerrs[len(qerrs)-1]
	t.Logf("%d queries: median q-error %.2f, max %.2f", len(qerrs), median, max)
	if median > 2.0 {
		t.Errorf("median q-error %.2f exceeds 2.0 on the golden corpora", median)
	}
	if max > 500 {
		t.Errorf("max q-error %.2f exceeds 500 on the golden corpora", max)
	}
}

// TestExplainQueryEstRendered: the whole-query estimate reaches the
// rendered explain output, and stats-free plans keep it unknown.
func TestExplainQueryEstRendered(t *testing.T) {
	g := samples.Fig2()
	stats := weightsOf(t, g)
	q := query.MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?x ?t WHERE { ?x ex:title ?t . ?x ex:author ?a }`)
	res, err := query.Eval(g, store.NewIndex(g), q, &query.EvalOptions{Stats: stats, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.QueryEst < 1 {
		t.Errorf("QueryEst = %d, want >= 1 for a non-empty join", res.Explain.QueryEst)
	}
	if out := res.Explain.String(); !strings.Contains(out, "query est=") {
		t.Errorf("rendered explain lacks the whole-query estimate:\n%s", out)
	}
	bare, err := query.Eval(g, store.NewIndex(g), q, &query.EvalOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Explain.QueryEst != -1 {
		t.Errorf("stats-free QueryEst = %d, want -1", bare.Explain.QueryEst)
	}
	if out := bare.Explain.String(); strings.Contains(out, "query est=") {
		t.Errorf("stats-free explain renders an estimate:\n%s", out)
	}
}

// TestEstimatorClassThatIsAlsoADataNode: a class that is also a data node
// keeps its class reading in τ and schema patterns. In the five-triple
// graph a p C, b τ C, d τ C, e τ D, C ⊑sc D, the class C is the object
// of a data triple, so every summary represents it by some data node too;
// the estimator must still match ?x τ C against the τ edges to class C
// and C ⊑sc ?y against the schema triple, for every kind, exactly.
func TestEstimatorClassThatIsAlsoADataNode(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
	typ, sc := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSSubClassOf)
	g := store.FromTriples([]rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("C")},
		{S: iri("b"), P: typ, O: iri("C")},
		{S: iri("d"), P: typ, O: iri("C")},
		{S: iri("e"), P: typ, O: iri("D")},
		{S: iri("C"), P: sc, O: iri("D")},
	})
	cases := []struct {
		name string
		pat  query.Pattern
		want int
	}{
		{"?x τ C", query.Pattern{S: query.Var("x"), P: query.Const(typ), O: query.Const(iri("C"))}, 2},
		{"C ⊑sc ?y", query.Pattern{S: query.Const(iri("C")), P: query.Const(sc), O: query.Var("y")}, 1},
	}
	for _, kind := range core.Kinds {
		stats := core.MustSummarize(g, kind).ComputeWeights()
		for _, c := range cases {
			q := &query.Query{Patterns: []query.Pattern{c.pat}}
			qe, fe, rows := evalEst(t, g, stats, q)
			if rows != c.want || qe != int64(c.want) || fe != int64(c.want) {
				t.Errorf("%v: %s: est=(%d,%d) rows=%d, want %d", kind, c.name, qe, fe, rows, c.want)
			}
		}
	}
}

// TestEstimatorTermNewerThanSummary: statistics trail the graph they
// estimate for (a live store's planner weights may be epochs old), so a
// query constant can be a term the summary has never seen. It matches no
// summary edge in any position; it must not be read as a wildcard.
func TestEstimatorTermNewerThanSummary(t *testing.T) {
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://example.org/" + s) }
	typ := rdf.NewIRI(rdf.RDFType)
	g := store.FromTriples([]rdf.Triple{
		{S: iri("a"), P: iri("p"), O: iri("b")},
		{S: iri("b"), P: typ, O: iri("C")},
	})
	for _, kind := range core.Kinds {
		stats := core.MustSummarize(g, kind).ComputeWeights()
		later := g.CloneStructure()
		later.Add(rdf.Triple{S: iri("new"), P: iri("newp"), O: iri("b")})
		later.Add(rdf.Triple{S: iri("a"), P: iri("p"), O: iri("new")})
		later.Add(rdf.Triple{S: iri("new"), P: typ, O: iri("NewC")})
		for _, pat := range []query.Pattern{
			{S: query.Var("x"), P: query.Const(iri("p")), O: query.Const(iri("new"))},
			{S: query.Const(iri("new")), P: query.Var("p"), O: query.Var("y")},
			{S: query.Var("x"), P: query.Const(iri("newp")), O: query.Var("y")},
			{S: query.Var("x"), P: query.Const(typ), O: query.Const(iri("NewC"))},
		} {
			q := &query.Query{Patterns: []query.Pattern{pat}}
			if qe, fe, _ := evalEst(t, later, stats, q); qe != 0 || fe != 0 {
				t.Errorf("%v: %v: est=(%d,%d), want 0 for a term the summary never saw", kind, pat, qe, fe)
			}
		}
	}
}
