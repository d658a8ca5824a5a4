package store

import (
	"bytes"
	"reflect"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

func tr(s, p, o string) rdf.Triple {
	mk := func(v string) rdf.Term {
		if v != "" && v[0] == '"' {
			return rdf.NewLiteral(v[1:])
		}
		return rdf.NewIRI("http://x/" + v)
	}
	return rdf.Triple{S: mk(s), P: mk(p), O: mk(o)}
}

func typeTr(s, class string) rdf.Triple {
	return rdf.Triple{S: rdf.NewIRI("http://x/" + s), P: rdf.Type(), O: rdf.NewIRI("http://x/" + class)}
}

func TestComponentRouting(t *testing.T) {
	g := FromTriples([]rdf.Triple{
		tr("s", "p", "o"),
		typeTr("s", "C"),
		{S: rdf.NewIRI("http://x/C"), P: rdf.SubClassOf(), O: rdf.NewIRI("http://x/D")},
		{S: rdf.NewIRI("http://x/p"), P: rdf.SubPropertyOf(), O: rdf.NewIRI("http://x/q")},
		{S: rdf.NewIRI("http://x/p"), P: rdf.Domain(), O: rdf.NewIRI("http://x/C")},
		{S: rdf.NewIRI("http://x/p"), P: rdf.Range(), O: rdf.NewIRI("http://x/D")},
	})
	if len(g.Data) != 1 || len(g.Types) != 1 || len(g.Schema) != 4 {
		t.Fatalf("partition = %d/%d/%d data/type/schema, want 1/1/4",
			len(g.Data), len(g.Types), len(g.Schema))
	}
	if g.NumEdges() != 6 {
		t.Errorf("NumEdges = %d, want 6", g.NumEdges())
	}
}

func TestSortDedup(t *testing.T) {
	g := FromTriples([]rdf.Triple{
		tr("s", "p", "o"), tr("s", "p", "o"), tr("a", "p", "o"),
	})
	g.SortDedup()
	if len(g.Data) != 2 {
		t.Errorf("SortDedup left %d data triples, want 2", len(g.Data))
	}
	if !g.Data[0].Less(g.Data[1]) {
		t.Error("SortDedup result not sorted")
	}
}

func TestNodeSets(t *testing.T) {
	g := FromTriples([]rdf.Triple{
		tr("r1", "p", "r2"),
		tr("r2", "q", `"lit`),
		typeTr("r3", "C"), // typed-only resource: a data node
		{S: rdf.NewIRI("http://x/q"), P: rdf.SubPropertyOf(), O: rdf.NewIRI("http://x/q2")},
		{S: rdf.NewIRI("http://x/p"), P: rdf.Domain(), O: rdf.NewIRI("http://x/C")},
	})
	dataNodes := g.DataNodes()
	for _, name := range []string{"r1", "r2", "r3"} {
		id, _ := g.Dict().LookupIRI("http://x/" + name)
		if !dataNodes[id] {
			t.Errorf("%s missing from data nodes", name)
		}
	}
	litID, _ := g.Dict().Lookup(rdf.NewLiteral("lit"))
	if !dataNodes[litID] {
		t.Error("literal missing from data nodes")
	}
	if len(dataNodes) != 4 {
		t.Errorf("DataNodes size = %d, want 4", len(dataNodes))
	}
	classNodes := g.ClassNodes()
	cID, _ := g.Dict().LookupIRI("http://x/C")
	if !classNodes[cID] || len(classNodes) != 1 {
		t.Errorf("ClassNodes = %v, want {C}", classNodes)
	}
	propNodes := g.PropertyNodes()
	if len(propNodes) != 3 { // q, q2 (subprop), p (domain)
		t.Errorf("PropertyNodes size = %d, want 3", len(propNodes))
	}
	typed := g.TypedNodes()
	r3, _ := g.Dict().LookupIRI("http://x/r3")
	if !typed[r3] || len(typed) != 1 {
		t.Errorf("TypedNodes = %v, want {r3}", typed)
	}
}

func TestDistinctDataProperties(t *testing.T) {
	g := FromTriples([]rdf.Triple{
		tr("a", "p", "b"), tr("c", "p", "d"), tr("a", "q", "b"), typeTr("a", "C"),
	})
	props := g.DistinctDataProperties()
	if len(props) != 2 {
		t.Errorf("DistinctDataProperties = %d props, want 2", len(props))
	}
}

func TestCanonicalStringsInsensitiveToOrderAndDict(t *testing.T) {
	ts := []rdf.Triple{tr("s", "p", "o"), typeTr("s", "C"), tr("a", "q", `"x`)}
	g1 := FromTriples(ts)
	rev := []rdf.Triple{ts[2], ts[1], ts[0]}
	g2 := FromTriples(rev)
	if !reflect.DeepEqual(g1.CanonicalStrings(), g2.CanonicalStrings()) {
		t.Error("CanonicalStrings differ across insertion orders")
	}
}

func TestCloneStructureIsIndependent(t *testing.T) {
	g := FromTriples([]rdf.Triple{tr("s", "p", "o")})
	h := g.CloneStructure()
	h.Add(tr("s2", "p2", "o2"))
	if len(g.Data) != 1 || len(h.Data) != 2 {
		t.Errorf("clone not independent: g=%d h=%d", len(g.Data), len(h.Data))
	}
	if g.Dict() != h.Dict() {
		t.Error("clone must share the dictionary")
	}
}

func TestIndexPatterns(t *testing.T) {
	g := FromTriples([]rdf.Triple{
		tr("s1", "p", "o1"), tr("s1", "p", "o2"), tr("s2", "p", "o1"),
		tr("s1", "q", "o1"), typeTr("s1", "C"),
	})
	ix := NewIndex(g)
	if ix.Len() != 5 {
		t.Fatalf("Index.Len = %d, want 5", ix.Len())
	}
	id := func(name string) dict.ID {
		v, ok := g.Dict().LookupIRI("http://x/" + name)
		if !ok {
			t.Fatalf("unknown term %s", name)
		}
		return v
	}
	typeID := g.Vocab().Type

	cases := []struct {
		s, p, o dict.ID
		want    int
	}{
		{0, 0, 0, 5},
		{id("s1"), 0, 0, 4},
		{0, id("p"), 0, 3},
		{0, 0, id("o1"), 3},
		{id("s1"), id("p"), 0, 2},
		{0, id("p"), id("o1"), 2},
		{id("s1"), 0, id("o1"), 2},
		{id("s1"), id("p"), id("o1"), 1},
		{id("s2"), id("q"), 0, 0},
		{0, typeID, 0, 1},
	}
	for _, c := range cases {
		if got := ix.Count(c.s, c.p, c.o); got != c.want {
			t.Errorf("Count(%d,%d,%d) = %d, want %d", c.s, c.p, c.o, got, c.want)
		}
		n := 0
		ix.ForEach(c.s, c.p, c.o, func(tp Triple) bool {
			if (c.s != 0 && tp.S != c.s) || (c.p != 0 && tp.P != c.p) || (c.o != 0 && tp.O != c.o) {
				t.Errorf("ForEach(%d,%d,%d) yielded non-matching %v", c.s, c.p, c.o, tp)
			}
			n++
			return true
		})
		if n != c.want {
			t.Errorf("ForEach(%d,%d,%d) yielded %d, want %d", c.s, c.p, c.o, n, c.want)
		}
	}

	// Early termination.
	n := 0
	ix.ForEach(0, 0, 0, func(Triple) bool { n++; return false })
	if n != 1 {
		t.Errorf("ForEach early stop: ran %d times, want 1", n)
	}
	if !ix.Contains(Triple{id("s1"), id("p"), id("o1")}) {
		t.Error("Contains missed an existing triple")
	}
	if ix.Contains(Triple{id("s2"), id("q"), id("o2")}) {
		t.Error("Contains found a non-existing triple")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := FromTriples([]rdf.Triple{
		tr("s1", "p", "o1"),
		tr("s1", "q", `"a literal with "quotes" and \n`),
		typeTr("s1", "C"),
		{S: rdf.NewIRI("http://x/C"), P: rdf.SubClassOf(), O: rdf.NewIRI("http://x/D")},
		{S: rdf.NewBlank("b0"), P: rdf.NewIRI("http://x/p"), O: rdf.NewLangLiteral("é", "fr")},
	})
	var f memFile
	if err := WriteSnapshotV2(&f, g, g.All(), nil); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	h, err := ReadSnapshot(bytes.NewReader(f.b))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !reflect.DeepEqual(g.CanonicalStrings(), h.CanonicalStrings()) {
		t.Error("snapshot round trip changed the triple set")
	}
	if len(h.Data) != len(g.Data) || len(h.Types) != len(g.Types) || len(h.Schema) != len(g.Schema) {
		t.Error("snapshot round trip changed the partition")
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	_, raw := v2Sample(t)
	// Flip a byte inside the first section's payload.
	corrupt := append([]byte(nil), raw...)
	corrupt[v2PageSize+1] ^= 0xFF
	if _, err := ReadSnapshot(bytes.NewReader(corrupt)); err == nil {
		t.Error("ReadSnapshot accepted a corrupted snapshot")
	}
	// Truncated file.
	if _, err := ReadSnapshot(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Error("ReadSnapshot accepted a truncated snapshot")
	}
	// Bad magic.
	bad := append([]byte("NOTRDF"), raw[6:]...)
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Error("ReadSnapshot accepted a bad magic")
	}
}

func TestSnapshotFileHelpers(t *testing.T) {
	g := FromTriples([]rdf.Triple{tr("s", "p", "o")})
	path := t.TempDir() + "/g.rdfsum"
	if err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	h, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if !reflect.DeepEqual(g.CanonicalStrings(), h.CanonicalStrings()) {
		t.Error("file round trip changed the triple set")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("LoadFile on a missing path must fail")
	}
}
