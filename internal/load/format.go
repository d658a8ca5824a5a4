package load

// Format- and compression-aware entry points. File and Reader are the one
// front door for bulk loading: they detect the stream compression (magic
// bytes, or file extension as a hint), decode it as a streaming stage —
// the compressed input never materializes — detect the RDF serialization,
// and hand the plain text to the matching pipeline (N-Triples streams
// through in slabs; Turtle text is buffered whole, see turtleReader). Stream and
// StreamFile are the triple-at-a-time variants the live-ingest paths use.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"rdfsum/internal/compress"
	"rdfsum/internal/dict"
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
	// from the leading bytes: a document opening with a @prefix/@base or
	// PREFIX/BASE directive is Turtle, anything else is read as
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
// format detection on the decoded text, then the parallel pipeline for
// the detected format. The result is bit-identical to a sequential load
// of the equivalent uncompressed input.
func Reader(r io.Reader, opts Options) (*store.Graph, error) {
	dec, err := compress.NewReader(r, opts.Compression)
	if err != nil {
		return nil, err
	}
	defer dec.Close()
	var plain io.Reader = dec
	format := opts.Format
	if format == FormatAuto {
		br := bufio.NewReader(dec)
		format = sniffFormat(br)
		plain = br
	}
	if format == FormatTurtle {
		return turtleReader(plain, opts)
	}
	return NTriples(plain, opts)
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
	dec, err := compress.NewReader(r, opts.Compression)
	if err != nil {
		return err
	}
	defer dec.Close()
	var plain io.Reader = dec
	format := opts.Format
	if format == FormatAuto {
		br := bufio.NewReader(dec)
		format = sniffFormat(br)
		plain = br
	}
	if format == FormatTurtle {
		doc, err := turtle.ReadDocument(plain)
		if err != nil {
			return err
		}
		return turtle.Triples(turtle.Slab{Data: doc}, fn)
	}
	return ntriples.ParseFunc(plain, fn)
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

// sniffFormat peeks at the decoded text and classifies it; see
// FormatAuto for the (deliberately conservative) rule.
func sniffFormat(br *bufio.Reader) Format {
	prefix, _ := br.Peek(4096)
	s := string(prefix)
	for {
		s = strings.TrimLeft(s, " \t\r\n")
		if strings.HasPrefix(s, "#") {
			nl := strings.IndexByte(s, '\n')
			if nl < 0 {
				return FormatNTriples
			}
			s = s[nl+1:]
			continue
		}
		break
	}
	if strings.HasPrefix(s, "@") {
		return FormatTurtle
	}
	for _, kw := range []string{"PREFIX", "BASE", "prefix", "base"} {
		if strings.HasPrefix(s, kw) && len(s) > len(kw) && (s[len(kw)] == ' ' || s[len(kw)] == '\t' || s[len(kw)] == '\r' || s[len(kw)] == '\n') {
			return FormatTurtle
		}
	}
	return FormatNTriples
}

// turtleReader is the Turtle loading pipeline. The decoded document is
// buffered whole (turtle.ReadDocument) and every path runs the one
// statement loop, turtle.Stream, which hands over terms once and triples
// as handles: the sequential path interns straight into the graph's
// dictionary and appends IDs — no rdf.Triple is built — and the parallel
// path splits the document at statement boundaries
// (turtle.SplitStatements) into slabs that parse concurrently under
// per-slab directive-environment snapshots, feeding the same sharded
// dictionary and assembly phases as the N-Triples pipeline. Either way
// the graph is the one turtle.Parse + store.FromTriples would build, bit
// for bit.
func turtleReader(r io.Reader, opts Options) (*store.Graph, error) {
	doc, err := turtle.ReadDocument(r)
	if err != nil {
		return nil, err
	}
	if opts.workers() > 1 {
		return turtleParallel(doc, opts.workers(), opts.SlabBytes)
	}
	g := store.NewGraph()
	d := g.Dict()
	err = turtle.Stream(turtle.Slab{Data: doc},
		func(t rdf.Term) uint32 { return uint32(d.Encode(t)) },
		func(s, p, o uint32) error {
			g.AddEncoded(dict.ID(s), dict.ID(p), dict.ID(o))
			return nil
		})
	if err != nil {
		return nil, err
	}
	return g, nil
}

func turtleParallel(doc string, workers, slabBytes int) (*store.Graph, error) {
	slabs, splitErr := turtle.SplitStatements(doc, slabBytes)
	st := newLoadState()
	parallelFor(len(slabs), workers, func(i int) {
		if st.skip(i) {
			return
		}
		if res, err := parseTurtleSlab(st.sd, slabs[i]); err != nil {
			st.fail(i, err)
		} else {
			st.put(res)
		}
	})
	if splitErr != nil {
		st.fail(noSlab, splitErr) // a malformed directive; an earlier slab's error wins
	}
	if st.err != nil {
		return nil, st.err
	}
	g := store.NewGraph()
	remap := st.sd.Finalize(g.Dict())
	return assemble(g, remap, st.results, workers), nil
}

// parseTurtleSlab parses one slab under its environment snapshot and
// observes its terms; the slab-local cache mirrors parseSlab's. An
// occurrence key is the slab index over a count of the slab's intern
// calls: Stream interns in document order, and keys need only be
// monotone in that order within a slab (40 bits of count and 24 of slab
// index exceed any input the splitter can produce).
func parseTurtleSlab(sd *dict.Sharded, sl turtle.Slab) (slabTriples, error) {
	cache := make(map[rdf.Term]dict.ProvID, 64)
	key := uint64(sl.Index) << 40
	var triples []provTriple
	err := turtle.Stream(sl,
		func(t rdf.Term) uint32 {
			key++
			if p, ok := cache[t]; ok {
				return uint32(p)
			}
			p := sd.Observe(t, key)
			cache[t] = p
			return uint32(p)
		},
		func(s, p, o uint32) error {
			triples = append(triples, provTriple{s: dict.ProvID(s), p: dict.ProvID(p), o: dict.ProvID(o)})
			return nil
		})
	if err != nil {
		return slabTriples{}, err
	}
	return slabTriples{index: sl.Index, triples: triples}, nil
}
