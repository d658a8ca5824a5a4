package query

import (
	"testing"

	"rdfsum/internal/lubm"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/saturate"
	"rdfsum/internal/store"
)

func fig2Indexed() (*store.Graph, *store.Index) {
	g := samples.Fig2()
	return g, store.NewIndex(g)
}

func TestEvalSingleBoundPattern(t *testing.T) {
	g, ix := fig2Indexed()
	q := &Query{
		Distinguished: []string{"x"},
		Patterns: []Pattern{
			{S: Var("x"), P: Const(samples.Author), O: Var("y")},
		},
	}
	res, err := Eval(g, ix, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // r1 and r4 have authors
		t.Fatalf("author subjects = %d rows, want 2: %v", len(res.Rows), res.Rows)
	}
}

func TestEvalJoin(t *testing.T) {
	g, ix := fig2Indexed()
	// Who reviews something that has a title? a1 reviews r4 (titled t3).
	q := &Query{
		Distinguished: []string{"who"},
		Patterns: []Pattern{
			{S: Var("who"), P: Const(samples.Reviewed), O: Var("x")},
			{S: Var("x"), P: Const(samples.Title), O: Var("t")},
		},
	}
	res, err := Eval(g, ix, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != samples.IRI("a1") {
		t.Fatalf("reviewers = %v, want [a1]", res.Rows)
	}
}

func TestEvalTypePattern(t *testing.T) {
	g, ix := fig2Indexed()
	q := MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x a ex:Journal }`)
	res, err := Eval(g, ix, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // r2 and r6
		t.Fatalf("Journal instances = %v, want r2 and r6", res.Rows)
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	g := store.FromTriples([]rdf.Triple{
		rdf.NewTriple(samples.IRI("n"), samples.IRI("loop"), samples.IRI("n")),
		rdf.NewTriple(samples.IRI("n"), samples.IRI("loop"), samples.IRI("m")),
	})
	ix := store.NewIndex(g)
	q := &Query{
		Distinguished: []string{"x"},
		Patterns:      []Pattern{{S: Var("x"), P: Const(samples.IRI("loop")), O: Var("x")}},
	}
	res, err := Eval(g, ix, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != samples.IRI("n") {
		t.Fatalf("self-loops = %v, want [n]", res.Rows)
	}
}

func TestEvalAbsentConstant(t *testing.T) {
	g, ix := fig2Indexed()
	q := &Query{
		Distinguished: []string{"x"},
		Patterns:      []Pattern{{S: Var("x"), P: Const(samples.IRI("no-such-prop")), O: Var("y")}},
	}
	res, err := Eval(g, ix, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows for absent property = %v, want none", res.Rows)
	}
	found, err := Ask(g, ix, q)
	if err != nil || found {
		t.Errorf("Ask = (%v,%v), want (false,nil)", found, err)
	}
}

func TestEvalLimit(t *testing.T) {
	g, ix := fig2Indexed()
	q := &Query{
		Distinguished: []string{"x", "y"},
		Patterns:      []Pattern{{S: Var("x"), P: Const(samples.Title), O: Var("y")}},
	}
	res, err := Eval(g, ix, q, &EvalOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("limited rows = %d, want 2", len(res.Rows))
	}
}

func TestEvalDeduplicatesProjection(t *testing.T) {
	g, ix := fig2Indexed()
	// Projecting only ?x over titles: r1, r2, r4, r5 each exactly once,
	// even though the join with the open pattern has more rows.
	q := &Query{
		Distinguished: []string{"x"},
		Patterns: []Pattern{
			{S: Var("x"), P: Const(samples.Title), O: Var("y")},
			{S: Var("x"), P: Var("p"), O: Var("z")},
		},
	}
	res, err := Eval(g, ix, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("distinct title-bearers = %d, want 4", len(res.Rows))
	}
}

// The paper's §2.1 query: the author name of "Le Port des Brumes" is only
// found on the saturated graph (hasAuthor is implicit).
func TestQueryAnsweringNeedsSaturation(t *testing.T) {
	g := samples.BookGraph()
	q := MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?name WHERE {
			?x ex:hasAuthor ?a .
			?a ex:hasName ?name .
			?x ex:hasTitle ?t
		}`)
	res, err := Eval(g, store.NewIndex(g), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("explicit-only evaluation returned %v, want empty (incomplete answer)", res.Rows)
	}
	inf := saturate.Graph(g)
	res, err = Eval(inf, store.NewIndex(inf), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != rdf.NewLiteral("G. Simenon") {
		t.Fatalf("q(G∞) = %v, want [\"G. Simenon\"]", res.Rows)
	}
}

func TestParserErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT WHERE { ?x ?p ?y }",
		"SELECT ?x { ?x ex:p ?y }",         // undeclared prefix
		"SELECT ?x WHERE { ?x <p> }",       // short pattern
		"SELECT ?x WHERE { ?x <p> ?y",      // unterminated
		"SELECT ?z WHERE { ?x <p> ?y }",    // head var not in body
		"FETCH ?x WHERE { ?x <p> ?y }",     // bad verb
		`SELECT ?x WHERE { "lit" <p> ?y }`, // literal subject
		"SELECT ?x WHERE { } junk",         // empty body + junk
		`SELECT ?x WHERE { ?x <p> "u@ }`,   // unterminated literal
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParserFeatures(t *testing.T) {
	q := MustParse(`
		# comment
		PREFIX ex: <http://example.org/>
		PREFIX : <http://default.org/>
		SELECT * WHERE {
			?x a ex:Book .
			?x :p ?y
		}`)
	if len(q.Distinguished) != 2 { // SELECT * binds x and y
		t.Fatalf("SELECT * resolved to %v", q.Distinguished)
	}
	q = MustParse(`PREFIX ex: <http://example.org/>
		ASK { ?x ex:p "v"@en . ?x ex:q "3"^^ex:int . ?x ex:r _:b }`)
	if len(q.Patterns) != 3 || len(q.Distinguished) != 0 {
		t.Fatalf("ASK parse: %+v", q)
	}
	if q.Patterns[0].O.Value != rdf.NewLangLiteral("v", "en") {
		t.Errorf("lang literal parsed as %v", q.Patterns[0].O)
	}
	if q.Patterns[1].O.Value != rdf.NewTypedLiteral("3", "http://example.org/int") {
		t.Errorf("typed literal parsed as %v", q.Patterns[1].O)
	}
	if q.Patterns[2].O.Value != rdf.NewBlank("b") {
		t.Errorf("blank object parsed as %v", q.Patterns[2].O)
	}
}

func TestParseRoundTripThroughString(t *testing.T) {
	q1 := MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?x ?t WHERE { ?x a ex:Book . ?x ex:title ?t }`)
	q2 := MustParse(q1.String())
	if q1.String() != q2.String() {
		t.Errorf("String round trip: %q vs %q", q1.String(), q2.String())
	}
}

func TestIsRBGP(t *testing.T) {
	good := MustParse(`PREFIX ex: <http://example.org/>
		SELECT ?x ?z WHERE { ?x a ex:Book . ?x ex:author ?y . ?y ex:reviewed ?z }`)
	if err := good.IsRBGP(); err != nil {
		t.Errorf("IsRBGP(good) = %v, want nil", err)
	}
	bad := []*Query{
		// variable property
		{Distinguished: []string{"x"}, Patterns: []Pattern{{S: Var("x"), P: Var("p"), O: Var("y")}}},
		// constant object on a non-τ triple
		{Distinguished: []string{"x"}, Patterns: []Pattern{{S: Var("x"), P: Const(samples.Author), O: Const(samples.IRI("a1"))}}},
		// variable τ object
		{Distinguished: []string{"x"}, Patterns: []Pattern{{S: Var("x"), P: Const(rdf.Type()), O: Var("c")}}},
		// constant subject
		{Distinguished: []string{"y"}, Patterns: []Pattern{{S: Const(samples.IRI("r1")), P: Const(samples.Author), O: Var("y")}}},
	}
	for i, q := range bad {
		if err := q.IsRBGP(); err == nil {
			t.Errorf("IsRBGP(bad[%d]) = nil, want error", i)
		}
	}
}

func TestExtractRBGPIsNonEmptyOnSource(t *testing.T) {
	g, ix := fig2Indexed()
	rng := NewRNG(7)
	for i := 0; i < 50; i++ {
		q, ok := ExtractRBGP(g, rng, 1+i%5)
		if !ok {
			t.Fatal("extraction failed on a non-empty graph")
		}
		if err := q.IsRBGP(); err != nil {
			t.Fatalf("extracted query is not RBGP: %v\n%s", err, q)
		}
		found, err := Ask(g, ix, q)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			t.Fatalf("extracted query empty on its source graph: %s", q)
		}
	}
}

func TestExtractRBGPEmptyGraph(t *testing.T) {
	g := store.NewGraph()
	if _, ok := ExtractRBGP(g, NewRNG(1), 3); ok {
		t.Error("extraction must fail on an empty graph")
	}
}

// TestExtractRBGPDeterministic: a fixed seed replays the same queries, so a
// failing seed of a property test can be rerun.
func TestExtractRBGPDeterministic(t *testing.T) {
	g := lubm.GenerateGraph(lubm.DefaultConfig(1))
	extract := func() []string {
		rng := NewRNG(7)
		var out []string
		for i := 0; i < 20; i++ {
			q, ok := ExtractRBGP(g, rng, 5)
			if !ok {
				t.Fatal("extraction failed on a non-empty graph")
			}
			out = append(out, q.String())
		}
		return out
	}
	first, second := extract(), extract()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("query %d differs between runs of one seed:\n%s\n%s", i, first[i], second[i])
		}
	}
}
