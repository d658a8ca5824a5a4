package core

import (
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

// helpers ------------------------------------------------------------------

func summarize(t *testing.T, g *store.Graph, k Kind) *Summary {
	t.Helper()
	s, err := Summarize(g, k)
	if err != nil {
		t.Fatalf("Summarize(%v): %v", k, err)
	}
	return s
}

func lookup(t *testing.T, g *store.Graph, local string) dict.ID {
	t.Helper()
	id, ok := g.Dict().LookupIRI(samples.NS + local)
	if !ok {
		t.Fatalf("term %q missing from dictionary", local)
	}
	return id
}

// repOf returns the summary node representing the sample resource.
func repOf(t *testing.T, s *Summary, local string) dict.ID {
	t.Helper()
	rep := s.NodeOf.Get(lookup(t, s.Input, local))
	if rep == dict.None {
		t.Fatalf("resource %q has no representative in the %v summary", local, s.Kind)
	}
	return rep
}

// termOf returns the summary's ID of the input term id, found by its
// lexical form in the summary's dictionary (dict.None when it holds none).
func termOf(s *Summary, id dict.ID) dict.ID {
	out, _ := s.Graph.Dict().Lookup(s.Input.Dict().Term(id))
	return out
}

// nodeOfMap returns the summary's quotient map as a map, one entry per
// represented input node.
func nodeOfMap(s *Summary) map[dict.ID]dict.ID {
	m := make(map[dict.ID]dict.ID)
	for n, rep := range s.NodeOf.All() {
		if *rep != dict.None {
			m[n] = *rep
		}
	}
	return m
}

// hasDataEdge reports whether the summary has edge src --p--> tgt, for
// summary nodes src and tgt and the input property p.
func hasDataEdge(s *Summary, src, p, tgt dict.ID) bool {
	for _, e := range s.Graph.Data {
		if e == (store.Triple{S: src, P: termOf(s, p), O: tgt}) {
			return true
		}
	}
	return false
}

// hasTypeEdge reports whether the summary has edge src --τ--> class, for
// the summary node src and the input class.
func hasTypeEdge(s *Summary, src, class dict.ID) bool {
	for _, e := range s.Graph.Types {
		if e.S == src && e.O == termOf(s, class) {
			return true
		}
	}
	return false
}

// sameRep asserts that all resources share one representative; distinctRep
// asserts that the two resources have different representatives.
func sameRep(t *testing.T, s *Summary, locals ...string) dict.ID {
	t.Helper()
	rep := repOf(t, s, locals[0])
	for _, l := range locals[1:] {
		if got := repOf(t, s, l); got != rep {
			t.Errorf("%v summary: %s and %s should share a node", s.Kind, locals[0], l)
		}
	}
	return rep
}

func distinctRep(t *testing.T, s *Summary, a, b string) {
	t.Helper()
	if repOf(t, s, a) == repOf(t, s, b) {
		t.Errorf("%v summary: %s and %s should have different nodes", s.Kind, a, b)
	}
}

// Figure 4: the weak summary of the Figure 2 graph -------------------------

func TestFig4WeakSummary(t *testing.T) {
	g := samples.Fig2()
	s := summarize(t, g, Weak)

	// Node structure: {r1..r5}, {a1,a2}, {t1..t4}, {e1,e2}, {c1}, {r6}=Nτ.
	big := sameRep(t, s, "r1", "r2", "r3", "r4", "r5")
	na := sameRep(t, s, "a1", "a2")
	nt := sameRep(t, s, "t1", "t2", "t3", "t4")
	ne := sameRep(t, s, "e1", "e2")
	nc := repOf(t, s, "c1")
	ntau := repOf(t, s, "r6")
	for _, pair := range [][2]dict.ID{{big, na}, {big, nt}, {big, ne}, {big, nc}, {big, ntau},
		{na, nt}, {na, ne}, {na, nc}, {na, ntau}, {nt, ne}, {nt, nc}, {nt, ntau},
		{ne, nc}, {ne, ntau}, {nc, ntau}} {
		if pair[0] == pair[1] {
			t.Error("weak summary merged nodes that Figure 4 keeps distinct")
		}
	}
	if got := s.Stats.DataNodes; got != 6 {
		t.Errorf("weak data nodes = %d, want 6 (Figure 4)", got)
	}
	if got := s.Stats.ClassNodes; got != 3 {
		t.Errorf("weak class nodes = %d, want 3 (Book, Journal, Spec)", got)
	}

	// Edge structure (one edge per data property, Property 4).
	if got, want := s.Stats.DataEdges, 6; got != want {
		t.Errorf("weak data edges = %d, want %d", got, want)
	}
	p := func(local string) dict.ID { return lookup(t, g, local) }
	edges := []struct {
		src dict.ID
		p   string
		tgt dict.ID
	}{
		{big, "author", na}, {big, "title", nt}, {big, "editor", ne},
		{big, "comment", nc}, {na, "reviewed", big}, {ne, "published", big},
	}
	for _, e := range edges {
		if !hasDataEdge(s, e.src, p(e.p), e.tgt) {
			t.Errorf("weak summary missing edge --%s--> of Figure 4", e.p)
		}
	}

	// Type edges: big node carries Book, Journal, Spec (due to r1,r2,r5);
	// Nτ carries Journal (due to r6).
	for _, cls := range []string{"Book", "Journal", "Spec"} {
		if !hasTypeEdge(s, big, lookup(t, g, cls)) {
			t.Errorf("weak summary: big node missing τ %s", cls)
		}
	}
	if !hasTypeEdge(s, ntau, lookup(t, g, "Journal")) {
		t.Error("weak summary: Nτ missing τ Journal (r6)")
	}
	if got := s.Stats.TypeEdges; got != 4 {
		t.Errorf("weak type edges = %d, want 4", got)
	}
	if got := s.Stats.AllNodes; got != 9 {
		t.Errorf("weak all nodes = %d, want 9", got)
	}
}

// Figure 9: the strong summary of the Figure 2 graph -----------------------

func TestFig9StrongSummary(t *testing.T) {
	g := samples.Fig2()
	s := summarize(t, g, Strong)

	// The strong summary splits the weak node {r1..r5} into {r1,r2,r3,r5}
	// (empty target clique) and {r4} (target clique {r,p}); it also splits
	// {a1,a2} and {e1,e2}, since a1/e1 have source cliques and a2/e2 do not.
	natec := sameRep(t, s, "r1", "r2", "r3", "r5")
	nrp := repOf(t, s, "r4")
	distinctRep(t, s, "r1", "r4")
	nra := repOf(t, s, "a1")
	na := repOf(t, s, "a2")
	distinctRep(t, s, "a1", "a2")
	npe := repOf(t, s, "e1")
	nE := repOf(t, s, "e2")
	distinctRep(t, s, "e1", "e2")
	nt := sameRep(t, s, "t1", "t2", "t3", "t4")
	nc := repOf(t, s, "c1")
	ntau := repOf(t, s, "r6")

	if got := s.Stats.DataNodes; got != 9 {
		t.Errorf("strong data nodes = %d, want 9 (Figure 9)", got)
	}
	if got := s.Stats.DataEdges; got != 9 {
		t.Errorf("strong data edges = %d, want 9 (Figure 9)", got)
	}

	p := func(local string) dict.ID { return lookup(t, g, local) }
	edges := []struct {
		src dict.ID
		p   string
		tgt dict.ID
	}{
		{natec, "author", nra},  // r1 author a1
		{natec, "title", nt},    // r1/r2/r5 titles
		{natec, "editor", npe},  // r2 editor e1
		{natec, "editor", nE},   // r3/r5 editor e2 — two e-labeled edges!
		{natec, "comment", nc},  // r3 comment c1
		{nrp, "author", na},     // r4 author a2
		{nrp, "title", nt},      // r4 title t3
		{nra, "reviewed", nrp},  // a1 reviewed r4
		{npe, "published", nrp}, // e1 published r4
	}
	for _, e := range edges {
		if !hasDataEdge(s, e.src, p(e.p), e.tgt) {
			t.Errorf("strong summary missing edge of Figure 9: --%s-->", e.p)
		}
	}

	// §5.1: "an a-labeled edge exits N^{r,p}_{a,t,e,c} and another one
	// exits N_{a,t,e,c}" — the same label on two edges, impossible in W_G.
	authorEdges := 0
	for _, e := range s.Graph.Data {
		if e.P == p("author") {
			authorEdges++
		}
	}
	if authorEdges != 2 {
		t.Errorf("strong summary has %d author edges, want 2", authorEdges)
	}

	for _, cls := range []string{"Book", "Journal", "Spec"} {
		if !hasTypeEdge(s, natec, lookup(t, g, cls)) {
			t.Errorf("strong summary: N_{a,t,e,c} missing τ %s", cls)
		}
	}
	if !hasTypeEdge(s, ntau, lookup(t, g, "Journal")) {
		t.Error("strong summary: Nτ missing τ Journal")
	}
}

// Figure 7: the typed weak summary of the Figure 2 graph -------------------

func TestFig7TypedWeakSummary(t *testing.T) {
	g := samples.Fig2()
	s := summarize(t, g, TypedWeak)

	// Typed resources group by class set; r2 and r6 share {Journal}.
	cBook := repOf(t, s, "r1")
	cJournal := sameRep(t, s, "r2", "r6")
	cSpec := repOf(t, s, "r5")
	distinctRep(t, s, "r1", "r2")
	distinctRep(t, s, "r1", "r5")
	distinctRep(t, s, "r2", "r5")

	// Untyped resources summarize weakly: r4 alone (it has author+title and
	// is reviewed/published); r3 alone (editor+comment); {a1,a2}; {t1..t4};
	// {e1,e2}; {c1}.
	nrp := repOf(t, s, "r4")
	nec := repOf(t, s, "r3")
	distinctRep(t, s, "r3", "r4")
	nra := sameRep(t, s, "a1", "a2")
	nt := sameRep(t, s, "t1", "t2", "t3", "t4")
	npe := sameRep(t, s, "e1", "e2")
	nc := repOf(t, s, "c1")

	// Typed nodes never merge with untyped ones.
	distinctRep(t, s, "r1", "r4")
	distinctRep(t, s, "r2", "r3")

	if got := s.Stats.DataNodes; got != 9 {
		t.Errorf("typed-weak data nodes = %d, want 9 (Figure 7)", got)
	}
	if got := s.Stats.DataEdges; got != 12 {
		t.Errorf("typed-weak data edges = %d, want 12", got)
	}
	if got := s.Stats.TypeEdges; got != 3 {
		t.Errorf("typed-weak type edges = %d, want 3", got)
	}

	p := func(local string) dict.ID { return lookup(t, g, local) }
	edges := []struct {
		src dict.ID
		p   string
		tgt dict.ID
	}{
		{cBook, "author", nra}, {cBook, "title", nt},
		{cJournal, "title", nt}, {cJournal, "editor", npe},
		{cSpec, "title", nt}, {cSpec, "editor", npe},
		{nec, "editor", npe}, {nec, "comment", nc},
		{nrp, "author", nra}, {nrp, "title", nt},
		{nra, "reviewed", nrp}, {npe, "published", nrp},
	}
	for _, e := range edges {
		if !hasDataEdge(s, e.src, p(e.p), e.tgt) {
			t.Errorf("typed-weak summary missing edge of Figure 7: --%s-->", e.p)
		}
	}
	for node, cls := range map[dict.ID]string{cBook: "Book", cJournal: "Journal", cSpec: "Spec"} {
		if !hasTypeEdge(s, node, lookup(t, g, cls)) {
			t.Errorf("typed-weak: class-set node missing τ %s", cls)
		}
	}
}

// Figure 6: the type-based summary of the Figure 2 graph -------------------

func TestFig6TypeBasedSummary(t *testing.T) {
	g := samples.Fig2()
	s := summarize(t, g, TypeBased)

	// Typed resources group by class set (r2,r6 share {Journal}); every
	// untyped resource is copied to its own fresh node.
	sameRep(t, s, "r2", "r6")
	distinctRep(t, s, "r1", "r2")
	distinctRep(t, s, "r3", "r4")
	distinctRep(t, s, "a1", "a2")
	distinctRep(t, s, "t1", "t2")
	distinctRep(t, s, "e1", "e2")

	// Nodes: 3 class-set nodes + 11 untyped copies (r3, r4, a1, a2,
	// t1..t4, e1, e2, c1) = 14 data nodes.
	if got := s.Stats.DataNodes; got != 14 {
		t.Errorf("type-based data nodes = %d, want 14", got)
	}
	// Data edges: all 12 original data triples remain distinct.
	if got := s.Stats.DataEdges; got != 12 {
		t.Errorf("type-based data edges = %d, want 12", got)
	}
	if got := s.Stats.TypeEdges; got != 3 {
		t.Errorf("type-based type edges = %d, want 3", got)
	}
}

// The typed strong summary of the Figure 2 graph ---------------------------
//
// §5.2 remarks that TS_G "coincides" with TW_G here; in fact, under the
// paper's own clique definitions, TS additionally separates a1 (which has
// source clique {reviewed}) from a2 (empty source clique), and e1 from e2
// — the very split its §5.1 example exhibits between S_G and W_G. We assert
// the behaviour that follows from the definitions.
func TestTypedStrongSummaryOfFig2(t *testing.T) {
	g := samples.Fig2()
	s := summarize(t, g, TypedStrong)

	sameRep(t, s, "r2", "r6")
	sameRep(t, s, "t1", "t2", "t3", "t4")
	distinctRep(t, s, "a1", "a2") // strong split
	distinctRep(t, s, "e1", "e2") // strong split
	distinctRep(t, s, "r3", "r4")

	if got := s.Stats.DataNodes; got != 11 {
		t.Errorf("typed-strong data nodes = %d, want 11 (TW's 9 plus the two strong splits)", got)
	}
	if got := s.Stats.DataEdges; got != 12 {
		t.Errorf("typed-strong data edges = %d, want 12", got)
	}
	if got := s.Stats.TypeEdges; got != 3 {
		t.Errorf("typed-strong type edges = %d, want 3", got)
	}
}

// Typed resources behave identically in TW and TS (§5.2): same class-set
// nodes, same type edges.
func TestTypedSummariesAgreeOnTypedResources(t *testing.T) {
	g := samples.Fig2()
	tw := summarize(t, g, TypedWeak)
	ts := summarize(t, g, TypedStrong)
	for _, r := range []string{"r1", "r2", "r5", "r6"} {
		// Each summary names its nodes in its own dictionary: compare URIs.
		if tw.Graph.Dict().Term(repOf(t, tw, r)) != ts.Graph.Dict().Term(repOf(t, ts, r)) {
			t.Errorf("typed resource %s represented differently in TW and TS", r)
		}
	}
	if tw.Stats.TypeEdges != ts.Stats.TypeEdges {
		t.Errorf("TW and TS disagree on type edges: %d vs %d",
			tw.Stats.TypeEdges, ts.Stats.TypeEdges)
	}
}
