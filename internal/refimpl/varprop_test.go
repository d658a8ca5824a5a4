package refimpl

import (
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/dict"
	"rdfsum/internal/query"
	"rdfsum/internal/store"
)

// varPropWork is the number of triples each pattern of varPropQueries
// enumerated, in source order, recorded from the build that served a
// property-free, object-bound pattern from an OSP column (commit
// 23921e9). The skip scan over POS must enumerate the same triples.
var varPropWork = [][]int64{
	{65, 103}, {7, 2}, {5, 1}, {5}, {1},
	{10, 2}, {17, 5}, {3, 4}, {1}, {1},
	{100, 134}, {1, 7}, {5, 1}, {15}, {1},
	{100, 20}, {1, 2}, {10, 1}, {15}, {1},
}

// varPropQueries draws BGPs with a variable property from g, in five
// shapes in turn: the chain ?x ?p ?y . ?y q ?r of a triple (x p y) and a
// triple (y q r) of g, with x bound, or r bound; and the single patterns
// ?x ?p <y> and <x> ?p <y>. Once ?y is bound, the chain's first pattern
// is a skip scan too.
func varPropQueries(g *store.Graph, n int) []*query.Query {
	all := g.All()
	bySubject := map[dict.ID][]store.Triple{}
	for _, tr := range all {
		bySubject[tr.S] = append(bySubject[tr.S], tr)
	}
	c := func(id dict.ID) query.Term { return query.Const(g.Dict().Term(id)) }
	x, p, y, r := query.Var("x"), query.Var("p"), query.Var("y"), query.Var("r")
	rng := rand.New(rand.NewPCG(50, 50))
	var out []*query.Query
	for len(out) < n {
		t1 := all[rng.IntN(len(all))]
		next := bySubject[t1.O]
		if len(next) == 0 {
			continue
		}
		t2 := next[rng.IntN(len(next))]
		var ps []query.Pattern
		switch len(out) % 5 {
		case 0:
			ps = []query.Pattern{{S: x, P: p, O: y}, {S: y, P: c(t2.P), O: r}}
		case 1:
			ps = []query.Pattern{{S: c(t1.S), P: p, O: y}, {S: y, P: c(t2.P), O: r}}
		case 2:
			ps = []query.Pattern{{S: x, P: p, O: y}, {S: y, P: c(t2.P), O: c(t2.O)}}
		case 3:
			ps = []query.Pattern{{S: x, P: p, O: c(t1.O)}}
		default:
			ps = []query.Pattern{{S: c(t1.S), P: p, O: c(t1.O)}}
		}
		q := &query.Query{Patterns: ps}
		q.Distinguished = q.Vars()
		out = append(out, q)
	}
	return out
}

// TestVariablePropertyOracle: every varPropQueries query evaluates, over
// a heap index, the mapped base of the graph's snapshot, that base under
// delta runs that delete and re-add every seventh triple, and a heap
// index built in batches with the same deletes, to the row set
// refimpl.Eval finds, enumerating on each the triples varPropWork
// records, pattern by pattern.
func TestVariablePropertyOracle(t *testing.T) {
	g := bsbm.GenerateGraph(bsbm.DefaultConfig(5))
	path := filepath.Join(t.TempDir(), "g.rdfsum")
	if err := store.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	sf, err := store.OpenSnapshotFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	all := g.All()
	copies := map[store.Triple]int{}
	for _, tr := range all {
		copies[tr]++
	}
	var dead, readd []store.Triple
	for i := 0; i < len(all); i += 7 {
		if tr := all[i]; !slices.Contains(dead, tr) {
			dead = append(dead, tr)
			for range copies[tr] {
				readd = append(readd, tr)
			}
		}
	}
	// churn deletes and re-adds the dead triples in two delta runs.
	churn := func(ix *store.Index) *store.Index { return ix.Applied(nil, dead).Applied(readd, nil) }
	batched := store.NewIndexFromBase(store.NewRunCols(nil))
	for lo := 0; lo < len(all); lo += 37 {
		batched = batched.Applied(all[lo:min(lo+37, len(all))], nil)
	}
	indexes := []struct {
		name string
		ix   *store.Index
	}{
		{"heap", store.NewIndex(g)},
		{"mapped", store.NewIndexFromBase(sf.Runs())},
		{"tiered over the mapped base", churn(store.NewIndexFromBase(sf.Runs()))},
		{"tiered on the heap", churn(batched)},
	}

	queries := varPropQueries(g, len(varPropWork))
	for qi, q := range queries {
		want := Eval(g, q)
		pl, err := query.Compile(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range indexes {
			res, err := pl.Eval(ix.ix, &query.EvalOptions{Explain: true})
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]string, 0, len(res.Rows))
			for _, row := range res.Rows {
				parts := make([]string, len(row))
				for i, term := range row {
					parts[i] = term.String()
				}
				rows = append(rows, strings.Join(parts, "\t"))
			}
			sort.Strings(rows)
			if !slices.Equal(rows, want) {
				t.Errorf("query %d (%v), %s: %d rows, the reference %d", qi, q, ix.name, len(rows), len(want))
			}
			work := make([]int64, len(res.Explain.Steps))
			for i, st := range res.Explain.Steps {
				work[i] = st.Actual
			}
			if !slices.Equal(work, varPropWork[qi]) {
				t.Errorf("query %d (%v), %s: %v triples enumerated a pattern, recorded %v", qi, q, ix.name, work, varPropWork[qi])
			}
		}
	}
}
