// Oracle tests: the optimized implementations must agree with the naive
// definition-faithful ones on the sample graphs and a random corpus.
package refimpl

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rdfsum/internal/cliques"
	"rdfsum/internal/core"
	"rdfsum/internal/datagen"
	"rdfsum/internal/dict"
	"rdfsum/internal/query"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/saturate"
	"rdfsum/internal/store"
)

// smallConfig keeps oracle inputs tractable for the cubic reference code.
func smallGraph(seed uint64) *store.Graph {
	cfg := datagen.FromQuickSeed(seed)
	if cfg.Nodes > 14 {
		cfg.Nodes = 14
	}
	if cfg.Props > 5 {
		cfg.Props = 5
	}
	return datagen.RandomGraph(cfg)
}

func canonPartition(classes [][]dict.ID) []string {
	var keys []string
	for _, c := range classes {
		ids := append([]dict.ID(nil), c...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		var parts []string
		for _, id := range ids {
			parts = append(parts, string(rune('0'+id%10))+"#"+string(rune('0'+(id/10)%10)))
		}
		keys = append(keys, strings.Join(parts, ","))
	}
	sort.Strings(keys)
	return keys
}

func partitionFromMembers(members [][]dict.ID) []string { return canonPartition(members) }

// TestCliqueOracle: union-find cliques == fixpoint cliques.
func TestCliqueOracle(t *testing.T) {
	check := func(g *store.Graph) bool {
		fast := cliques.Compute(g.Data)
		if !reflect.DeepEqual(partitionFromMembers(fast.SrcMembers), canonPartition(SourceCliques(g.Data))) {
			return false
		}
		return reflect.DeepEqual(partitionFromMembers(fast.TgtMembers), canonPartition(TargetCliques(g.Data)))
	}
	for name, g := range map[string]*store.Graph{
		"fig2": samples.Fig2(), "fig5": samples.Fig5(), "fig10": samples.Fig10(),
	} {
		if !check(g) {
			t.Errorf("%s: clique oracle mismatch", name)
		}
	}
	f := func(seed uint64) bool { return check(smallGraph(seed)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// quotientMap returns a summary's NodeOf as a map, one entry per
// represented input node.
func quotientMap(s *core.Summary) map[dict.ID]dict.ID {
	m := map[dict.ID]dict.ID{}
	for n, rep := range s.NodeOf.All() {
		if *rep != dict.None {
			m[n] = *rep
		}
	}
	return m
}

// partitionFromSummary recovers the node partition of a summary from its
// NodeOf table.
func partitionFromSummary(s *core.Summary) []string {
	byRep := map[dict.ID][]dict.ID{}
	for n, rep := range quotientMap(s) {
		byRep[rep] = append(byRep[rep], n)
	}
	var classes [][]dict.ID
	for _, c := range byRep {
		classes = append(classes, c)
	}
	return canonPartition(classes)
}

// TestWeakPartitionOracle: the weak summary's node partition equals the
// Definition 7 closure.
func TestWeakPartitionOracle(t *testing.T) {
	check := func(g *store.Graph) bool {
		s := core.MustSummarize(g, core.Weak)
		return reflect.DeepEqual(partitionFromSummary(s), canonPartition(WeakClasses(g)))
	}
	for name, g := range map[string]*store.Graph{
		"fig2": samples.Fig2(), "fig5": samples.Fig5(), "fig8": samples.Fig8(),
	} {
		if !check(g) {
			t.Errorf("%s: weak partition oracle mismatch", name)
		}
	}
	f := func(seed uint64) bool { return check(smallGraph(seed)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestStrongPartitionOracle: the strong summary's node partition equals
// the Definition 15 grouping.
func TestStrongPartitionOracle(t *testing.T) {
	check := func(g *store.Graph) bool {
		s := core.MustSummarize(g, core.Strong)
		return reflect.DeepEqual(partitionFromSummary(s), canonPartition(StrongClasses(g)))
	}
	if !check(samples.Fig2()) {
		t.Error("fig2: strong partition oracle mismatch")
	}
	f := func(seed uint64) bool { return check(smallGraph(seed)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The five-kind oracle. core builds every summary kind with one
// construction — a seeded or incrementally fed BuilderSet — so nothing
// inside core is independent of it. What is: the partitions by definition
// in this package, the quotient rule applied to the input here, and a
// plain scan for the size measures.

var partitionByDefinition = map[core.Kind]func(*store.Graph) [][]dict.ID{
	core.Weak:        WeakClasses,
	core.Strong:      StrongClasses,
	core.TypeBased:   TypeBasedClasses,
	core.TypedWeak:   TypedWeakClasses,
	core.TypedStrong: TypedStrongClasses,
}

// exactPartition renders a partition canonically, IDs in full.
func exactPartition(classes [][]dict.ID) []string {
	keys := make([]string, 0, len(classes))
	for _, c := range classes {
		ids := append([]dict.ID(nil), c...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		keys = append(keys, fmt.Sprint(ids))
	}
	sort.Strings(keys)
	return keys
}

// scanStats is the reference for Summary.Stats: every measure recomputed
// by scanning the input and the summary, with none of the engine's
// refcounted counters involved.
func scanStats(in, out *store.Graph) core.Stats {
	return core.Stats{
		InputTriples:       in.NumEdges(),
		InputDataTriples:   len(in.Data),
		InputTypeTriples:   len(in.Types),
		InputSchemaTriples: len(in.Schema),
		InputDataNodes:     len(in.DataNodes()),
		InputClassNodes:    len(in.ClassNodes()),
		InputDataProps:     len(in.DistinctDataProperties()),

		DataNodes:     len(out.DataNodes()),
		ClassNodes:    len(out.ClassNodes()),
		AllNodes:      len(out.DataNodes()) + len(out.ClassNodes()),
		PropertyNodes: len(out.PropertyNodes()),
		DataEdges:     len(out.Data),
		TypeEdges:     len(out.Types),
		SchemaEdges:   len(out.Schema),
		AllEdges:      out.NumEdges(),
	}
}

// sortedSet returns the distinct triples of ts in (S, P, O) order — the
// form a finished summary keeps each component in.
func sortedSet(ts []store.Triple) []store.Triple {
	seen := map[store.Triple]bool{}
	out := []store.Triple{}
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// checkSummary holds s against Definition 9 over its own input: the
// NodeOf partition is the kind's partition by definition, the data and
// type components are the quotient {(NodeOf[s], p, NodeOf[o])} and
// {(NodeOf[s], τ, c)} of the input's, the schema is copied, and Stats
// equal a scan. Input terms are carried into the summary's own IDs by
// their lexical form. It returns what differs, "" when nothing does.
func checkSummary(s *core.Summary) string {
	in := s.Input
	nodeOf := quotientMap(s)
	byRep := map[dict.ID][]dict.ID{}
	for n, rep := range nodeOf {
		byRep[rep] = append(byRep[rep], n)
	}
	var classes [][]dict.ID
	for _, c := range byRep {
		classes = append(classes, c)
	}
	if got, want := exactPartition(classes), exactPartition(partitionByDefinition[s.Kind](in)); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("partition %v, by definition %v", got, want)
	}
	term := func(id dict.ID) dict.ID {
		out, _ := s.Graph.Dict().Lookup(in.Dict().Term(id))
		return out
	}
	var data, types, schema []store.Triple
	for _, t := range in.Data {
		data = append(data, store.Triple{S: nodeOf[t.S], P: term(t.P), O: nodeOf[t.O]})
	}
	for _, t := range in.Types {
		types = append(types, store.Triple{S: nodeOf[t.S], P: s.Graph.Vocab().Type, O: term(t.O)})
	}
	for _, t := range in.Schema {
		schema = append(schema, store.Triple{S: term(t.S), P: term(t.P), O: term(t.O)})
	}
	for name, c := range map[string][2][]store.Triple{
		"data":   {s.Graph.Data, sortedSet(data)},
		"type":   {s.Graph.Types, sortedSet(types)},
		"schema": {s.Graph.Schema, sortedSet(schema)},
	} {
		if len(c[0])+len(c[1]) > 0 && !reflect.DeepEqual(c[0], c[1]) {
			return fmt.Sprintf("%s edges %v, quotient of the input %v", name, c[0], c[1])
		}
	}
	if want := scanStats(in, s.Graph); s.Stats != want {
		return fmt.Sprintf("stats %+v, scan %+v", s.Stats, want)
	}
	return ""
}

// TestFiveKindOracle: for every kind, a one-shot Summarize of a random
// small graph, and a BuilderSet fed a random interleaving of that graph's
// data and type triples with deletions (so nodes get typed late, lose
// types, and classes split), snapshotted mid-stream and at the end, all
// satisfy checkSummary — and the set's accumulated graph holds exactly the
// triples the test thinks survive.
func TestFiveKindOracle(t *testing.T) {
	oneShot := func(g *store.Graph) bool {
		for _, kind := range core.Kinds {
			if diff := checkSummary(core.MustSummarize(g, kind)); diff != "" {
				t.Logf("%v, one-shot: %s", kind, diff)
				return false
			}
		}
		return true
	}
	for name, g := range map[string]*store.Graph{
		"fig2": samples.Fig2(), "fig5": samples.Fig5(), "fig8": samples.Fig8(), "fig10": samples.Fig10(),
	} {
		if !oneShot(g) {
			t.Errorf("%s: oracle mismatch", name)
		}
	}

	f := func(seed uint64) bool {
		g := smallGraph(seed)
		if !oneShot(g) {
			return false
		}
		pool := g.Decode()
		rng := rand.New(rand.NewPCG(seed, 0x0eac1e))
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		set, err := core.NewBuilderSet(store.NewGraph(), core.Kinds)
		if err != nil {
			t.Fatal(err)
		}
		var live []rdf.Triple
		next := 0
		for step, steps := 0, 2*len(pool); step < steps; step++ {
			if next < len(pool) && (len(live) == 0 || rng.IntN(3) != 0) {
				set.Add(pool[next])
				live = append(live, pool[next])
				next++
			} else if len(live) > 0 {
				dead := live[rng.IntN(len(live))]
				set.Delete(dead)
				kept := live[:0]
				for _, tr := range live {
					if tr != dead {
						kept = append(kept, tr)
					}
				}
				live = kept
			}
			if rng.IntN(6) != 0 && step != steps-1 {
				continue
			}
			if !reflect.DeepEqual(store.FromTriples(live).CanonicalStrings(), set.Graph().CanonicalStrings()) {
				t.Logf("seed %d, step %d: the set's graph is not the surviving triples", seed, step)
				return false
			}
			for _, kind := range core.Kinds {
				s, err := set.Summary(kind)
				if err != nil {
					t.Fatal(err)
				}
				if diff := checkSummary(s); diff != "" {
					t.Logf("seed %d, step %d, %v: %s", seed, step, kind, diff)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSaturationOracle: schema-first saturation == blind-fixpoint
// saturation.
func TestSaturationOracle(t *testing.T) {
	check := func(g *store.Graph) bool {
		fast := saturate.Graph(g)
		slow := Saturate(g)
		return reflect.DeepEqual(fast.CanonicalStrings(), slow.CanonicalStrings())
	}
	for name, g := range map[string]*store.Graph{
		"book": samples.BookGraph(), "fig5": samples.Fig5(), "fig8": samples.Fig8(),
		"fig10": samples.Fig10(),
	} {
		if !check(g) {
			t.Errorf("%s: saturation oracle mismatch", name)
		}
	}
	f := func(seed uint64) bool { return check(smallGraph(seed)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEvalOracle: indexed evaluation == naive scan evaluation, over
// extracted and hand-written queries.
func TestEvalOracle(t *testing.T) {
	rowsOf := func(g *store.Graph, q *query.Query) []string {
		res, err := query.Eval(g, store.NewIndex(g), q, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, row := range res.Rows {
			var parts []string
			for _, term := range row {
				parts = append(parts, term.String())
			}
			out = append(out, strings.Join(parts, "\t"))
		}
		sort.Strings(out)
		return out
	}
	sameRows := func(a, b []string) bool {
		if len(a) == 0 && len(b) == 0 {
			return true
		}
		return reflect.DeepEqual(a, b)
	}

	g := samples.Fig2()
	hand := []*query.Query{
		query.MustParse(`PREFIX ex: <http://example.org/>
			SELECT ?x ?y WHERE { ?x ex:title ?y }`),
		query.MustParse(`PREFIX ex: <http://example.org/>
			SELECT ?x WHERE { ?x ex:author ?a . ?a ex:reviewed ?r . ?r ex:title ?t }`),
		query.MustParse(`PREFIX ex: <http://example.org/>
			SELECT ?x ?p WHERE { ?x ?p ?y . ?x a ex:Journal }`),
		query.MustParse(`PREFIX ex: <http://example.org/>
			ASK { ?x ex:comment ?c . ?x ex:editor ?e }`),
	}
	for i, q := range hand {
		if !sameRows(rowsOf(g, q), Eval(g, q)) {
			t.Errorf("hand query %d: oracle mismatch", i)
		}
	}

	f := func(seed uint64) bool {
		g := smallGraph(seed)
		rng := query.NewRNG(seed)
		for i := 0; i < 4; i++ {
			q, ok := query.ExtractRBGP(g, rng, 3)
			if !ok {
				return true
			}
			if !sameRows(rowsOf(g, q), Eval(g, q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
