package load

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/compress"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
	"rdfsum/internal/turtle"
)

// turtleDoc renders the bsbm benchmark graph as prefix-compacted Turtle —
// directives, 'a', ';'/',' lists.
func turtleDoc(t *testing.T) []byte {
	t.Helper()
	g := bsbm.GenerateGraph(bsbm.DefaultConfig(60))
	var buf bytes.Buffer
	if err := turtle.Write(&buf, g.Decode(), nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func ntDoc(t *testing.T) []byte {
	t.Helper()
	g := bsbm.GenerateGraph(bsbm.DefaultConfig(60))
	var buf bytes.Buffer
	if err := ntriples.Write(&buf, g.Decode()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func compressed(t *testing.T, data []byte, codec compress.Codec) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := compress.NewWriter(&buf, codec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// turtleReference is the graph a load of the Turtle document doc must
// equal: its parsed triples, encoded by store.FromTriples.
func turtleReference(t *testing.T, doc []byte) *store.Graph {
	t.Helper()
	ts, err := turtle.ParseString(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	return store.FromTriples(ts)
}

// TestFileCompressedBitIdentical is the acceptance check: a dump loaded
// from a file, plain or compressed, must be bit-identical — dictionary
// and all components — to the reference construction over its text.
func TestFileCompressedBitIdentical(t *testing.T) {
	dir := t.TempDir()
	for name, plain := range map[string][]byte{"data.ttl": turtleDoc(t), "data.nt": ntDoc(t)} {
		ref := reference
		if FormatByExtension(name) == FormatTurtle {
			ref = turtleReference
		}
		want := ref(t, plain)
		variants := map[string][]byte{
			name:           plain,
			name + ".gz":   compressed(t, plain, compress.Gzip),
			name + ".zst":  compressed(t, plain, compress.Zstd),
			name + ".zstd": compressed(t, plain, compress.Zstd),
		}
		for file, data := range variants {
			path := filepath.Join(dir, file)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := File(path, Options{})
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			assertIdentical(t, want, got)
		}
	}
}

// TestReaderAllAuto feeds compressed bytes with no name and no hints:
// both the codec and the format must come from the content.
func TestReaderAllAuto(t *testing.T) {
	plain := turtleDoc(t)
	want := turtleReference(t, plain)
	for _, codec := range []compress.Codec{compress.None, compress.Gzip, compress.Zstd} {
		got, err := Reader(bytes.NewReader(compressed(t, plain, codec)), Options{})
		if err != nil {
			t.Fatalf("%v: %v", codec, err)
		}
		assertIdentical(t, want, got)
	}
}

// TestDetectFormatPastLongHeader: format detection reads past a leading
// run of comment lines however long it is — across the detector's
// buffer, and far past it — and loses none of its bytes, so an
// N-Triples error keeps its line. Every entry point that detects is
// checked: Reader, Stream, and a file named only for its compression.
func TestDetectFormatPastLongHeader(t *testing.T) {
	header := func(n int) string { // n bytes of comment and blank lines
		return strings.Repeat("# licence text, one line of a long header .....................\n", n/64) +
			strings.Repeat("\n", n%64)
	}
	const ttl = "@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o , ex:q .\n"
	const nt = "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n"
	for _, n := range []int{0, 4095, 4096, 21000} {
		for name, body := range map[string]string{"turtle": ttl, "n-triples": nt} {
			doc := header(n) + body
			if len(doc) != n+len(body) {
				t.Fatalf("header(%d) is %d bytes", n, len(doc)-len(body))
			}
			ref := reference
			if name == "turtle" {
				ref = turtleReference
			}
			want := ref(t, []byte(body))
			got, err := Reader(strings.NewReader(doc), Options{})
			if err != nil {
				t.Fatalf("%s, %d-byte header: Reader: %v", name, n, err)
			}
			assertIdentical(t, want, got)

			streamed := 0
			if err := Stream(strings.NewReader(doc), Options{}, func(rdf.Triple) error { streamed++; return nil }); err != nil {
				t.Fatalf("%s, %d-byte header: Stream: %v", name, n, err)
			}
			if streamed != want.NumEdges() {
				t.Fatalf("%s, %d-byte header: streamed %d triples, want %d", name, n, streamed, want.NumEdges())
			}

			path := filepath.Join(t.TempDir(), "dump.gz")
			if err := os.WriteFile(path, compressed(t, []byte(doc), compress.Gzip), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err = File(path, Options{}); err != nil {
				t.Fatalf("%s, %d-byte header: File(dump.gz): %v", name, n, err)
			}
			assertIdentical(t, want, got)
		}
		// The header's lines count: an error after it is reported at its
		// line in the document.
		lines := strings.Count(header(n), "\n")
		_, err := Reader(strings.NewReader(header(n)+nt+"not a triple\n"), Options{})
		var pe *ntriples.ParseError
		if !errors.As(err, &pe) || pe.Line != lines+2 {
			t.Fatalf("%d-byte header: error %v, want an N-Triples error at line %d", n, err, lines+2)
		}
	}
}

func TestDetect(t *testing.T) {
	cases := []struct {
		path   string
		format Format
		codec  compress.Codec
	}{
		{"dump.nt", FormatNTriples, compress.None},
		{"dump.ttl.gz", FormatTurtle, compress.Gzip},
		{"dump.nt.zst", FormatNTriples, compress.Zstd},
		{"dump.rdf", FormatAuto, compress.None},
		{"dump.gz", FormatAuto, compress.Gzip},
	}
	for _, c := range cases {
		f, cc := Detect(c.path)
		if f != c.format || cc != c.codec {
			t.Errorf("Detect(%q) = (%v, %v), want (%v, %v)", c.path, f, cc, c.format, c.codec)
		}
	}
}

// TestTruncatedCompressedFails cuts compressed dumps mid-stream: the load
// must fail with a wrapped compress sentinel and publish nothing.
func TestTruncatedCompressedFails(t *testing.T) {
	for _, doc := range [][]byte{turtleDoc(t), ntDoc(t)} {
		for _, codec := range []compress.Codec{compress.Gzip, compress.Zstd} {
			full := compressed(t, doc, codec)
			for _, cut := range []int{len(full) / 3, len(full) - 2} {
				g, err := Reader(bytes.NewReader(full[:cut]), Options{})
				if err == nil {
					t.Fatalf("%v cut at %d: load succeeded", codec, cut)
				}
				if !errors.Is(err, compress.ErrTruncated) && !errors.Is(err, compress.ErrCorrupt) {
					t.Fatalf("%v cut at %d: error %v wraps no compress sentinel", codec, cut, err)
				}
				if g != nil {
					t.Fatalf("%v cut at %d: partial graph returned alongside error", codec, cut)
				}
			}
		}
	}
}

// TestCorruptCompressedFails flips a byte in the middle of the compressed
// body; decode must report corruption, not hand wrong text to the parser.
func TestCorruptCompressedFails(t *testing.T) {
	doc := ntDoc(t)
	for _, codec := range []compress.Codec{compress.Gzip, compress.Zstd} {
		full := compressed(t, doc, codec)
		full[len(full)/2] ^= 0x20
		_, err := Reader(bytes.NewReader(full), Options{})
		// A bit flip in a zstd Raw block changes payload bytes that only
		// the trailing checksum can catch; either way the load errors
		// with a classified sentinel or a parse error — never silence.
		if err == nil {
			t.Fatalf("%v: corrupted dump loaded without error", codec)
		}
	}
}

func TestStreamFileCompressedTurtle(t *testing.T) {
	plain := turtleDoc(t)
	want := 0
	if err := Stream(bytes.NewReader(plain), Options{Format: FormatTurtle}, func(_ rdf.Triple) error {
		want++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("no triples in the fixture")
	}
	path := filepath.Join(t.TempDir(), "data.ttl.gz")
	if err := os.WriteFile(path, compressed(t, plain, compress.Gzip), 0o644); err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := StreamFile(path, Options{}, func(_ rdf.Triple) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("streamed %d triples, want %d", got, want)
	}
}
