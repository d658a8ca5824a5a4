package load

// Format- and compression-aware entry points. File and Reader are the one
// front door for bulk loading: they detect the stream compression (magic
// bytes, or file extension as a hint), decode it as a streaming stage —
// the compressed input never materializes — detect the RDF serialization,
// and hand the plain text to the matching loader (N-Triples streams
// through in slabs; Turtle text is buffered whole, see turtleGraph).
// Stream and StreamFile are the triple-at-a-time variants the live-ingest
// paths use.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"

	"rdfsum/internal/compress"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
	"rdfsum/internal/turtle"
)

// Format identifies the RDF serialization of an input.
type Format int

const (
	// FormatAuto detects the serialization from the file extension
	// (".nt" / ".ttl", looking through ".gz" / ".zst") or, failing that,
	// from the content: a document whose first token, past any
	// whitespace and comment lines, is a @prefix/@base or PREFIX/BASE
	// directive is Turtle, anything else is read as
	// N-Triples (the detector cannot see a directive-free Turtle
	// document; pass FormatTurtle explicitly for those).
	FormatAuto Format = iota
	// FormatNTriples is line-oriented N-Triples.
	FormatNTriples
	// FormatTurtle is the supported Turtle subset (see internal/turtle).
	FormatTurtle
)

// String names the format for error messages and logs.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatNTriples:
		return "n-triples"
	case FormatTurtle:
		return "turtle"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// FormatByExtension maps a file name (after any compression extension is
// stripped) to its declared format; unknown extensions are FormatAuto.
func FormatByExtension(path string) Format {
	lower := strings.ToLower(path)
	switch {
	case strings.HasSuffix(lower, ".nt"), strings.HasSuffix(lower, ".ntriples"):
		return FormatNTriples
	case strings.HasSuffix(lower, ".ttl"), strings.HasSuffix(lower, ".turtle"):
		return FormatTurtle
	}
	return FormatAuto
}

// Detect reports what a path's name declares: the compression codec and
// the format of the data inside it ("dump.ttl.gz" -> Gzip, Turtle).
// Either may come back Auto/None when the name says nothing.
func Detect(path string) (Format, compress.Codec) {
	codec, inner := compress.ByExtension(path)
	return FormatByExtension(inner), codec
}

// File loads and encodes an RDF dump of any supported format and
// compression with opts, resolving Auto fields from the file name first
// and the content second.
func File(path string, opts Options) (*store.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	applyPathHints(path, &opts)
	return Reader(f, opts)
}

// applyPathHints fills Auto options from the file name. The compression
// hint stays Auto when the name says nothing — the magic-byte sniff in
// Reader is authoritative — but a named format wins over content
// sniffing, since a ".ttl" without directives is still Turtle.
func applyPathHints(path string, opts *Options) {
	codec, inner := compress.ByExtension(path)
	if opts.Compression == compress.Auto && codec != compress.None {
		opts.Compression = codec
	}
	if opts.Format == FormatAuto {
		opts.Format = FormatByExtension(inner)
	}
}

// Reader loads and encodes an RDF document from r with opts: a streaming
// decompression stage (nothing is spilled or materialized compressed),
// format detection on the decoded text, then the loader for the detected
// format.
func Reader(r io.Reader, opts Options) (*store.Graph, error) {
	var g *store.Graph
	err := decode(r, opts, func(plain io.Reader, format Format) (err error) {
		if format == FormatTurtle {
			g, err = turtleGraph(plain)
		} else {
			g, err = ntriplesGraph(plain)
		}
		return err
	})
	return g, err
}

// Stream parses a document triple by triple without building a graph —
// the live-ingest entry point — stopping at the first syntax error or the
// first error fn returns. Decompression and format detection work as in
// Reader; Turtle text is necessarily buffered in memory first (its
// grammar is not line-delimited) and fn is called as its statements
// parse, N-Triples streams through. Either way a term without escapes is
// a substring of the buffered input: a caller that retains terms retains
// it (ntriples.ParseFunc's contract).
func Stream(r io.Reader, opts Options, fn func(rdf.Triple) error) error {
	return decode(r, opts, func(plain io.Reader, format Format) error {
		if format != FormatTurtle {
			return ntriples.ParseFunc(plain, fn)
		}
		doc, err := turtle.ReadDocument(plain)
		if err != nil {
			return err
		}
		return turtle.Triples(doc, fn)
	})
}

// StreamFile is Stream over a file, with name-based Auto resolution.
func StreamFile(path string, opts Options, fn func(rdf.Triple) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	applyPathHints(path, &opts)
	return Stream(f, opts, fn)
}

// decode is what Reader and Stream do before parsing: it decodes r's
// compression as a streaming stage, resolves an Auto format on the
// decoded text, and hands fn that text and its format.
func decode(r io.Reader, opts Options, fn func(plain io.Reader, format Format) error) error {
	dec, err := compress.NewReader(r, opts.Compression)
	if err != nil {
		return err
	}
	defer dec.Close()
	if opts.Format != FormatAuto {
		return fn(dec, opts.Format)
	}
	format, plain, err := sniffFormat(dec)
	if err != nil {
		return err
	}
	return fn(plain, format)
}

// sniffFormat classifies decoded text by its first token (see FormatAuto
// for the deliberately conservative rule). It reads past the leading run
// of whitespace and '#' comment lines however long it is — a licence
// header can run to many kilobytes — and returns a reader that yields
// every byte of r, that run included, so line numbers stay the
// document's.
func sniffFormat(r io.Reader) (Format, io.Reader, error) {
	br := bufio.NewReader(r)
	var head []byte // the leading run, read to reach the first token
	for {
		c, err := br.ReadByte()
		switch {
		case err != nil:
		case isSpace(c):
			head = append(head, c)
		case c == '#':
			var comment []byte
			comment, err = br.ReadBytes('\n')
			head = append(append(head, c), comment...)
		default:
			br.UnreadByte() //nolint:errcheck // cannot fail straight after ReadByte
			var token []byte
			if token, err = br.Peek(len("PREFIX") + 1); err == nil || err == io.EOF {
				return classify(token), io.MultiReader(bytes.NewReader(head), br), nil
			}
		}
		if err == io.EOF { // nothing but whitespace and comments
			return FormatNTriples, bytes.NewReader(head), nil
		}
		if err != nil {
			return 0, nil, fmt.Errorf("load: detect format: %w", err)
		}
	}
}

// classify names the format of a document whose first token starts s: a
// @prefix/@base or PREFIX/BASE directive is Turtle, anything else is read
// as N-Triples.
func classify(s []byte) Format {
	if len(s) > 0 && s[0] == '@' {
		return FormatTurtle
	}
	for _, kw := range []string{"PREFIX", "BASE", "prefix", "base"} {
		if len(s) > len(kw) && string(s[:len(kw)]) == kw && isSpace(s[len(kw)]) {
			return FormatTurtle
		}
	}
	return FormatNTriples
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
