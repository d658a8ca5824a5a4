package ntriples

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParse hammers the N-Triples line parser with arbitrary documents.
// Beyond "never panic", it checks the round-trip property on accepted
// input: whatever Parse accepts, Write must serialize back into a
// document Parse accepts again, yielding the identical triples — the
// invariant that makes WAL records, HTTP ingest bodies and CLI output
// mutually interchangeable. Every input also goes through the
// fast-path-vs-builder differential check (checkFastPath).
//
// Seeds live in testdata/fuzz/FuzzParse (committed corpus); run the
// fuzzer with `make fuzz` or:
//
//	go test -fuzz=FuzzParse -fuzztime=30s -run='^$' ./internal/ntriples
func FuzzParse(f *testing.F) {
	f.Add("<http://a> <http://p> <http://b> .\n")
	f.Add("# comment\n\n<http://a> <http://p> \"lit\" .\n")
	f.Add("_:b1 <http://p> \"v\"@en .\n")
	f.Add("<http://a> <http://p> \"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n")
	f.Add("<http://a> <http://p> \"esc\\n\\t\\\"q\\\"\\\\\" .\n")
	f.Add("<http://\\u00e9> <http://p> <http://\\U0001F600> .\n")
	f.Add("<http://a> <http://p> <http://b>") // missing dot
	f.Add("<http://a> <http://p> .\n")        // missing object
	f.Add("\"subject-literal\" <http://p> <http://b> .\n")
	f.Add("<http://a> <http://p> \"unterminated\n")
	f.Add(strings.Repeat("<http://a> <http://p> <http://b> .\n", 4))

	f.Fuzz(func(t *testing.T, doc string) {
		// Differential: the substring fast paths and the rune-by-rune
		// builder agree on every line — terms, error text, line, column.
		checkFastPath(t, doc)
		triples, err := ParseString(doc)
		if err != nil {
			return // rejected input is fine; panics are the failure mode
		}
		var buf bytes.Buffer
		if err := Write(&buf, triples); err != nil {
			t.Fatalf("Write failed on parsed triples: %v", err)
		}
		again, err := ParseString(buf.String())
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\nserialized:\n%s", err, buf.String())
		}
		if len(again) != len(triples) {
			t.Fatalf("round-trip changed triple count: %d -> %d", len(triples), len(again))
		}
		for i := range triples {
			if triples[i] != again[i] {
				t.Fatalf("round-trip changed triple %d: %v -> %v", i, triples[i], again[i])
			}
		}
	})
}
