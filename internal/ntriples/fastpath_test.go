package ntriples

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// checkFastPath parses every line of doc twice — with the substring fast
// paths and with the rune-by-rune builder alone — and requires the same
// triple or the same error (text, line and column) from both.
func checkFastPath(t *testing.T, doc string) {
	t.Helper()
	for i, line := range strings.Split(doc, "\n") {
		line = strings.TrimSuffix(line, "\r")
		fast, fastOK, fastErr := parseLineWith(lineParser{in: line, line: i + 1})
		slow, slowOK, slowErr := parseLineWith(lineParser{in: line, line: i + 1, builderOnly: true})
		if fast != slow || fastOK != slowOK || fmt.Sprint(fastErr) != fmt.Sprint(slowErr) {
			t.Fatalf("line %q: fast path gave (%v, %v, %v), builder path (%v, %v, %v)",
				line, fast, fastOK, fastErr, slow, slowOK, slowErr)
		}
	}
}

// TestFastPathMatchesBuilder: the copy-free parser is the old parser.
// Explicit cases cover every way a token can leave the fast path, then
// the committed FuzzParse corpus is replayed.
func TestFastPathMatchesBuilder(t *testing.T) {
	cases := []string{
		`<http://x/s> <http://x/p> <http://x/o> .`,
		`<http://x/\u00e9> <http://x/p> <http://x/\U0001F600> .`, // \u and \U in IRIs
		`<http://x/é> <http://x/p> <http://x/😀> .`,               // the same, unescaped
		`<http://x/\u003E> <http://x/p> "v" .`,                   // an escaped '>'
		`<http://x/\n> <http://x/p> "v" .`,                       // escape not allowed in IRIs
		`<http://x/\uD800> <http://x/p> "v" .`,                   // escape to an invalid rune
		`<http://x/s> <http://x/p> "a\"b\nc\\d" .`,               // \" \n \\ in literals
		`<http://x/s> <http://x/p> "plain" .`,
		`<http://x/s> <http://x/p> "été"@fr-CA .`,              // language tag
		`<http://x/s> <http://x/p> "v"@ .`,                     // empty language tag
		`<http://x/s> <http://x/p> "3"^^<http://x/int> .`,      // datatype on the fast path
		`<http://x/s> <http://x/p> "3"^^<http://x/\u0069nt> .`, // datatype through an escape
		`<http://x/s> <http://x/p> "3"^^<> .`,                  // empty datatype IRI
		`<http://x/s> <http://x/p> "3"^<http://x/int> .`,       // malformed ^^
		`<http://x/s> <http://x/p> "" .`,                       // empty literal
		`<> <http://x/p> <http://x/o> .`,                       // empty IRI
		`<http://x/a b> <http://x/p> <http://x/o> .`,           // space inside <>
		"<http://x/a\tb> <http://x/p> <http://x/o> .",          // tab inside <>
		`<http://x/s <http://x/p> <http://x/o> .`,              // unterminated IRI
		`<http://x/s> <http://x/p> "unterminated .`,            // unterminated literal
		`<http://x/s> <http://x/p> "dangling\`,                 // dangling backslash
		"<http://x/\xff> <http://x/p> \"v\" .",                 // invalid UTF-8 in an IRI
		"<http://x/s> <http://x/p> \"a\xc3(b\" .",              // invalid UTF-8 in a literal
		"<http://x/s> <http://x/p> \"\xed\xa0\x80\" .",         // a UTF-8-encoded surrogate
		"<http://x/s> <http://x/p> \"\xef\xbf\xbd\" .",         // a genuine U+FFFD
		"<http://x/s> <http://x/p> \"v\"^^<http://x/\xfe> .",   // invalid UTF-8 in a datatype
		`_:b.1 <http://x/p> _:b2 .`,                            // blank nodes (always substrings)
		`  <http://x/s>	<http://x/p>   "v"  .  # comment`,      // surrounding whitespace
		`<http://x/s> <http://x/p> "v" . trailing`,             // trailing content, by column
		`"lit" <http://x/p> <http://x/o> .`,                    // literal subject
		`# only a comment`,
		``,
	}
	for _, c := range cases {
		checkFastPath(t, c)
	}
	// The U+FFFD substitution itself, pinned: both paths must keep it.
	ts, err := ParseString("<http://x/\xff> <http://x/p> \"a\xc3(b\" .")
	if err != nil {
		t.Fatal(err)
	}
	if ts[0].S.Value != "http://x/�" || ts[0].O.Value != "a�(b" {
		t.Fatalf("invalid UTF-8 parsed to %q / %q, want U+FFFD substitution", ts[0].S.Value, ts[0].O.Value)
	}

	corpus, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("FuzzParse corpus missing (%v)", err)
	}
	for _, path := range corpus {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Corpus files are `go test fuzz v1` + one string(...) literal;
		// the raw text is as good an input as the decoded one here.
		checkFastPath(t, string(raw))
	}
}

// aliasingBody renders ≈1 MiB of N-Triples whose few hundred distinct
// terms are first seen all along the text, so a dictionary that kept
// substrings instead of copies would pin every part of it.
func aliasingBody() []byte {
	var b bytes.Buffer
	for i := 0; b.Len() < 1<<20; i++ {
		fmt.Fprintf(&b, "<http://example.org/resource/subject-%04d> <http://example.org/vocabulary/property-%d> \"a literal value shared by many lines, number %02d\"@en .\n",
			i/64, i%4, i%32)
	}
	return b.Bytes()
}

// heapAfterGC is the live heap once garbage is gone.
func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestInternedTermsDoNotPinTheInput: terms are substrings of the parsed
// body, but a dictionary clones what it interns, so once the body is
// dropped the heap holds the dictionary alone — not the megabyte its
// terms were cut from.
func TestInternedTermsDoNotPinTheInput(t *testing.T) {
	before := heapAfterGC()
	body := aliasingBody()
	d := dict.New()
	err := ParseSlab(Slab{StartLine: 1, Data: body}, func(tr rdf.Triple) error {
		d.Encode(tr.S)
		d.Encode(tr.P)
		d.Encode(tr.O)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	size := len(body)
	body = nil
	retained := heapAfterGC() - before
	runtime.KeepAlive(d)
	// A few hundred ~60-byte terms plus map overhead is tens of KiB.
	if retained > int64(size)/4 {
		t.Errorf("%d KiB still live after dropping the %d KiB body: interned terms pin their input",
			retained>>10, size>>10)
	}
}

// TestParseAllocationsPerTriple: parsing escape-free lines whose terms a
// dictionary already holds allocates (amortised) at most once per triple
// — it was about thirteen when every IRI was rebuilt rune by rune.
func TestParseAllocationsPerTriple(t *testing.T) {
	body := aliasingBody()[:64<<10]
	body = body[:bytes.LastIndexByte(body, '\n')+1]
	triples := bytes.Count(body, []byte{'\n'})
	d := dict.New()
	parse := func() {
		err := ParseSlab(Slab{StartLine: 1, Data: body}, func(tr rdf.Triple) error {
			d.Encode(tr.S)
			d.Encode(tr.P)
			d.Encode(tr.O)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	parse() // intern everything once
	if perTriple := testing.AllocsPerRun(5, parse) / float64(triples); perTriple > 1 {
		t.Errorf("%.2f allocations per triple on a repeated-term input, want <= 1", perTriple)
	}
}
