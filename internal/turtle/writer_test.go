package turtle

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rdfsum/internal/rdf"
)

func TestWriteCompactsAndGroups(t *testing.T) {
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://ex.org/" + l) }
	in := []rdf.Triple{
		{S: ex("s"), P: ex("p"), O: ex("o1")},
		{S: ex("s"), P: ex("p"), O: ex("o2")},
		{S: ex("s"), P: rdf.Type(), O: ex("C")},
		{S: ex("s2"), P: ex("q"), O: rdf.NewLiteral("v")},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in, &WriterOptions{Prefixes: map[string]string{"ex": "http://ex.org/"}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "@prefix ex: <http://ex.org/> .") {
		t.Errorf("missing prefix declaration:\n%s", out)
	}
	if !strings.Contains(out, "ex:s a ex:C") {
		t.Errorf("rdf:type should print first as 'a':\n%s", out)
	}
	if !strings.Contains(out, "ex:o1 , ex:o2") {
		t.Errorf("object list not compacted:\n%s", out)
	}
	if strings.Count(out, "ex:s ") != 1 {
		t.Errorf("subject not grouped:\n%s", out)
	}
}

func TestWriteInferredPrefixes(t *testing.T) {
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://ex.org/" + l) }
	in := []rdf.Triple{
		{S: ex("s"), P: rdf.Type(), O: ex("C")},
		{S: ex("s"), P: rdf.NewIRI(rdf.RDFSLabel), O: rdf.NewLiteral("s")},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "@prefix rdfs:") {
		t.Errorf("rdfs prefix not inferred:\n%s", out)
	}
	if !strings.Contains(out, "rdfs:label") {
		t.Errorf("rdfs:label not compacted:\n%s", out)
	}
}

// TestWriteParseRoundTrip: writing then reparsing yields the same triple
// set (order within the set is preserved by our grouping rules).
func TestWriteParseRoundTrip(t *testing.T) {
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://ex.org/" + l) }
	in := []rdf.Triple{
		{S: ex("s"), P: ex("p"), O: ex("o")},
		{S: ex("s"), P: ex("p"), O: rdf.NewLiteral("with \"quotes\" and \\slashes\\")},
		{S: ex("s"), P: ex("q"), O: rdf.NewLangLiteral("été", "fr")},
		{S: ex("s"), P: rdf.Type(), O: ex("C")},
		{S: rdf.NewBlank("b0"), P: ex("p"), O: rdf.NewTypedLiteral("3", rdf.XSDInteger)},
		{S: ex("weird.name"), P: ex("p"), O: ex("o")},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ParseString(buf.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\noutput:\n%s", err, buf.String())
	}
	if !sameTripleSet(in, got) {
		t.Errorf("round trip changed the triple set:\nin:  %v\nout: %v\ndoc:\n%s", in, got, buf.String())
	}
}

// Property: random small triple sets round-trip through the writer.
func TestWriteParseRoundTripProperty(t *testing.T) {
	f := func(subjects, props, objects []uint8, lits []string) bool {
		n := len(subjects)
		if len(props) < n {
			n = len(props)
		}
		if len(objects) < n {
			n = len(objects)
		}
		if n == 0 {
			return true
		}
		var in []rdf.Triple
		for i := 0; i < n; i++ {
			s := rdf.NewIRI("http://x/s" + string(rune('a'+subjects[i]%5)))
			if subjects[i]%3 == 0 { // a blank node whose label holds inner dots
				s = rdf.NewBlank("b" + strings.Repeat(".", int(1+subjects[i]%4)) + string(rune('a'+subjects[i]%5)))
			}
			p := rdf.NewIRI("http://x/p" + string(rune('a'+props[i]%4)))
			var o rdf.Term
			if i < len(lits) && len(lits[i]) > 0 && i%2 == 0 {
				o = rdf.NewLiteral(lits[i])
			} else if objects[i]%4 == 0 {
				o = rdf.NewBlank("b" + strings.Repeat(".", int(1+objects[i]%3)) + "o-" + string(rune('a'+objects[i]%5)))
			} else {
				o = rdf.NewIRI("http://x/o" + string(rune('a'+objects[i]%5)))
			}
			in = append(in, rdf.Triple{S: s, P: p, O: o})
		}
		var buf bytes.Buffer
		if err := Write(&buf, in, nil); err != nil {
			return false
		}
		got, err := ParseString(buf.String())
		if err != nil {
			return false
		}
		return sameTripleSet(in, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func sameTripleSet(a, b []rdf.Triple) bool {
	canon := func(ts []rdf.Triple) []string {
		var out []string
		for _, t := range ts {
			out = append(out, t.String())
		}
		out = rdfSortDedup(out)
		return out
	}
	return reflect.DeepEqual(canon(a), canon(b))
}

func rdfSortDedup(ss []string) []string {
	m := map[string]bool{}
	for _, s := range ss {
		m[s] = true
	}
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
