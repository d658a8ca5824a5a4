// Package rdfsum implements query-oriented summarization of RDF graphs,
// after "Query-Oriented Summarization of RDF Graphs" (Čebirić, Goasdoué,
// Manolescu).
//
// Given an RDF graph G, the library builds an RDF graph H_G that
// summarizes G — typically orders of magnitude smaller — as the quotient
// of G under a node-equivalence relation. Four summary kinds are provided:
//
//   - Weak: nodes sharing source/target property cliques, transitively.
//     The most compact; one data edge per distinct property.
//   - Strong: nodes with identical (source clique, target clique) pairs.
//   - TypedWeak / TypedStrong: rdf:type takes precedence — typed nodes
//     group by their exact class set, untyped ones summarize weakly /
//     strongly.
//
// Summaries are RBGP-representative (a relational BGP query with answers
// on G∞ has answers on H_G∞), accurate, and idempotent (the summary of a
// summary is itself). Weak and strong summaries additionally support a
// saturation shortcut: the summary of the saturated graph equals the
// summary of the saturated summary, so reasoning can run on the small
// graph.
//
// Quickstart:
//
//	g, err := rdfsum.LoadFile("data.nt", nil)
//	s, err := rdfsum.Summarize(g, rdfsum.Weak)
//	fmt.Println(s.Stats.DataNodes, s.Stats.CompressionRatio())
//	rdfsum.ExportDOT(os.Stdout, s.Graph, "weak summary")
package rdfsum

import (
	"io"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/compress"
	"rdfsum/internal/core"
	"rdfsum/internal/dot"
	"rdfsum/internal/live"
	"rdfsum/internal/load"
	"rdfsum/internal/lubm"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/query"
	"rdfsum/internal/rdf"
	"rdfsum/internal/saturate"
	"rdfsum/internal/store"
	"rdfsum/internal/turtle"
)

// Model types, re-exported from the implementation packages. The aliases
// carry their full method sets.
type (
	// Term is an RDF term: IRI, blank node, or literal.
	Term = rdf.Term
	// Triple is a string-level RDF triple.
	Triple = rdf.Triple
	// Graph is a dictionary-encoded RDF graph, partitioned into data,
	// type and schema components.
	Graph = store.Graph
	// Index provides triple-pattern access paths over a Graph.
	Index = store.Index
	// Summary is the result of summarizing a Graph. Its Graph is an
	// ordinary graph over a dictionary of its own (the vocabulary, the
	// input terms it keeps, its node URIs); the input's dictionary is
	// never written. Render summary IDs through s.Graph.Dict() and input
	// IDs through s.Input.Dict().
	Summary = core.Summary
	// Stats carries the size measures of a summary and its input.
	Stats = core.Stats
	// Kind selects a summary construction.
	Kind = core.Kind
	// Query is a SPARQL basic-graph-pattern query.
	Query = query.Query
	// QueryResult is the answer table of a SELECT evaluation.
	QueryResult = query.Result
	// QueryPlan is a query compiled against one graph: an integer-slot
	// program whose join steps are picked by live index counts, reusable
	// across evaluations and safe for concurrent use.
	QueryPlan = query.Plan
	// QueryExplain reports the whole-query cardinality estimate and, per
	// pattern in source order, estimated vs. actual cardinalities.
	QueryExplain = query.Explain
	// QueryPruner gates evaluation behind a saturated summary used as an
	// emptiness oracle (Prop. 1).
	QueryPruner = query.Pruner
	// PlanStats feeds summary statistics to the query planner: a
	// summary's *Weights (see (*Summary).ComputeWeights), whose per-edge
	// multiplicities let the planner estimate whole conjunctive queries
	// against the summary graph and order joins by estimated joined
	// cardinality.
	PlanStats = query.PlanStats
	// BuilderSet maintains one or several summary kinds incrementally over
	// one shared graph, with one pass per inserted triple (the unified
	// quotient engine; see NewBuilderSet).
	BuilderSet = core.BuilderSet
	// Weights are the cardinality statistics of a summary's quotient map,
	// for query-optimizer use.
	Weights = core.Weights
)

// Summary kinds.
const (
	Weak        = core.Weak
	Strong      = core.Strong
	TypeBased   = core.TypeBased
	TypedWeak   = core.TypedWeak
	TypedStrong = core.TypedStrong
)

// NumKinds is the number of summary kinds; Kind values are dense in
// [0, NumKinds).
const NumKinds = core.NumKinds

// Kinds lists all summary kinds in presentation order. Tools enumerate
// it instead of hand-rolling kind lists.
var Kinds = core.Kinds

// PaperKinds lists the kinds the paper's evaluation reports (§7): every
// kind except the helper TypeBased.
var PaperKinds = core.PaperKinds

// Term constructors.
var (
	NewIRI          = rdf.NewIRI
	NewBlank        = rdf.NewBlank
	NewLiteral      = rdf.NewLiteral
	NewLangLiteral  = rdf.NewLangLiteral
	NewTypedLiteral = rdf.NewTypedLiteral
	NewTriple       = rdf.NewTriple
)

// ParseKind resolves a summary kind name ("weak", "strong", "typed-weak",
// "typed-strong", "type-based", or their abbreviations).
func ParseKind(name string) (Kind, error) { return core.ParseKind(name) }

// Parse reads an N-Triples document.
func Parse(r io.Reader) ([]Triple, error) { return ntriples.Parse(r) }

// ParseString reads an N-Triples document from a string.
func ParseString(s string) ([]Triple, error) { return ntriples.ParseString(s) }

// WriteNTriples serializes triples in N-Triples format.
func WriteNTriples(w io.Writer, triples []Triple) error { return ntriples.Write(w, triples) }

// NewGraph builds an encoded graph from triples.
func NewGraph(triples []Triple) *Graph { return store.FromTriples(triples) }

// EmptyGraph returns an empty graph with a fresh dictionary; add triples
// with (*Graph).Add.
func EmptyGraph() *Graph { return store.NewGraph() }

// Format identifies the RDF serialization of an input; FormatAuto
// detects it from the file extension or the content (a document whose
// first token past any comment lines is a directive is Turtle; pass
// FormatTurtle explicitly for directive-free Turtle).
type Format = load.Format

// Input formats accepted by Load and LoadFile.
const (
	FormatAuto     = load.FormatAuto
	FormatNTriples = load.FormatNTriples
	FormatTurtle   = load.FormatTurtle
)

// Compression identifies a stream compression scheme; CompressionAuto
// sniffs the magic bytes (and LoadFile additionally honors the .gz
// extension).
type Compression = compress.Codec

// Stream compressions accepted by Load and LoadFile. gzip is the one
// codec: a zstd stream is refused by its magic bytes with
// ErrUnsupportedStream.
const (
	CompressionAuto = compress.Auto
	CompressionNone = compress.None
	CompressionGzip = compress.Gzip
)

// Sentinel errors classifying compressed-input failures; match with
// errors.Is. A load that fails with any of these has published nothing.
var (
	// ErrTruncatedStream: the compressed input ended mid-frame.
	ErrTruncatedStream = compress.ErrTruncated
	// ErrCorruptStream: framing or checksum damage in the compressed input.
	ErrCorruptStream = compress.ErrCorrupt
	// ErrUnsupportedStream: the input is in a compression format this
	// build does not decode (a zstd frame; recompress it with gzip).
	ErrUnsupportedStream = compress.ErrUnsupported
)

// LoadOptions says what a loaded input is; zero fields are detected.
type LoadOptions struct {
	// Format is the input's RDF serialization (default: detect).
	Format Format
	// Compression is the input's stream compression (default: detect).
	Compression Compression
}

func (o *LoadOptions) internal() load.Options {
	if o == nil {
		return load.Options{}
	}
	return load.Options{Format: o.Format, Compression: o.Compression}
}

// Load reads and encodes an RDF document of any supported format and
// compression from r: the compression (gzip) is sniffed from the
// magic bytes and decoded as a streaming stage — a compressed dump never
// materializes — the serialization is detected on the decoded text, and
// the graph is built in one pass, each term interned as the parser meets
// it, so dictionary IDs follow first occurrence in the document. A nil
// opts detects everything.
func Load(r io.Reader, opts *LoadOptions) (*Graph, error) {
	return load.Reader(r, opts.internal())
}

// LoadFile is Load over a file; the name's extensions
// (.nt/.ttl, optionally .gz) pre-seed the format and compression
// detection.
func LoadFile(path string, opts *LoadOptions) (*Graph, error) {
	return load.File(path, opts.internal())
}

// Stream parses an RDF document triple by triple without building a
// graph — the bulk entry point for live ingest — stopping at the first
// syntax error or the first error fn returns. Compression and format
// detection work as in Load; N-Triples streams through without
// materializing, Turtle text (not line-delimited) is buffered whole and
// fn is called as its statements parse. The terms fn receives may alias
// the buffered input: keeping them keeps it.
func Stream(r io.Reader, opts *LoadOptions, fn func(Triple) error) error {
	return load.Stream(r, opts.internal(), fn)
}

// StreamFile is Stream over a file, with name-based detection as in
// LoadFile.
func StreamFile(path string, opts *LoadOptions, fn func(Triple) error) error {
	return load.StreamFile(path, opts.internal(), fn)
}

// DetectFile reports what a file name declares about its content: the
// serialization and compression ("dump.ttl.gz" -> FormatTurtle,
// CompressionGzip). Either may come back Auto/None when the name says
// nothing; Load's content detection is the authority.
func DetectFile(path string) (Format, Compression) { return load.Detect(path) }

// NewCompressionWriter wraps w in a streaming encoder for the given
// codec (CompressionNone passes through); Close finalizes the frame
// without closing w. This is how callers — including the HTTP client's
// compressed uploads — produce dumps Load accepts.
func NewCompressionWriter(w io.Writer, c Compression) (io.WriteCloser, error) {
	return compress.NewWriter(w, c)
}

// NewCompressionReader wraps r in a streaming decoder for the given
// codec; CompressionAuto sniffs the magic bytes, CompressionNone passes
// through. Failures mid-stream surface ErrTruncatedStream or
// ErrCorruptStream (via errors.Is), never silently short data; a zstd
// stream is refused up front with ErrUnsupportedStream.
func NewCompressionReader(r io.Reader, c Compression) (io.ReadCloser, error) {
	return compress.NewReader(r, c)
}

// ParseTurtle reads a document in the supported Turtle subset (prefixes,
// 'a', predicate/object lists, typed and numeric literals).
func ParseTurtle(r io.Reader) ([]Triple, error) { return turtle.Parse(r) }

// WriteTurtle serializes triples as prefix-compacted Turtle (prefixes are
// inferred from the data; rdf:type prints as 'a', subjects group with
// ';' / ',' lists).
func WriteTurtle(w io.Writer, triples []Triple) error {
	return turtle.Write(w, triples, nil)
}

// SaveSnapshot writes a graph (dictionary included) to the library's
// checksummed binary format.
func SaveSnapshot(path string, g *Graph) error { return store.SaveFile(path, g) }

// LoadSnapshot reads a graph saved with SaveSnapshot. A zstd stream is
// refused with ErrUnsupportedStream, whatever its name.
func LoadSnapshot(path string) (*Graph, error) { return load.Snapshot(path) }

// SnapshotInfo is the parsed layout of a snapshot file: header counts
// plus the table of contents with each section's offset, length and CRC,
// and the dictionary's symbol table size and count of packed terms.
type SnapshotInfo = store.SnapshotInfo

// SnapshotSectionInfo is one section in a SnapshotInfo.
type SnapshotSectionInfo = store.SectionInfo

// InspectSnapshot reports a snapshot file's layout from its header, its
// TOC and one walk of its dictionary's pages, without loading its
// triples or decoding a term.
func InspectSnapshot(path string) (*SnapshotInfo, error) { return store.InspectSnapshot(path) }

// Saturate returns G∞, the closure of g under the RDFS entailment rules
// for subclass, subproperty, domain and range constraints. The semantics
// of an RDF graph is its saturation; evaluate queries against Saturate(g)
// for complete answers.
func Saturate(g *Graph) *Graph { return saturate.Graph(g) }

// Summarize builds the summary of g of the given kind: a builder seeded
// with g, snapshotted once.
func Summarize(g *Graph, kind Kind) (*Summary, error) { return core.Summarize(g, kind) }

// SummarizeAll builds the summaries of every requested kind (all five
// when kinds is nil) in one shared pass over g: the class-set and clique
// state feeding the per-kind drivers is computed once, not re-derived per
// kind.
func SummarizeAll(g *Graph, kinds []Kind) (map[Kind]*Summary, error) {
	return core.SummarizeAll(g, kinds)
}

// CheckWellBehaved verifies the well-behavedness assumptions the
// summarizers rely on (no class in property position; classes carry only
// type/schema properties). It returns nil when the triples are
// well-behaved, and a non-empty slice of violations (each an error)
// otherwise.
func CheckWellBehaved(triples []Triple) []rdf.WellBehavedViolation {
	return rdf.CheckWellBehaved(triples)
}

// NewIndex builds the SPO/POS/OSP access paths used by query evaluation.
// The index is tiered (live updates append delta runs, folded eight at a
// time); a batch build yields a single run.
func NewIndex(g *Graph) *Index { return store.NewIndex(g) }

// ParseQuery parses a SPARQL-subset BGP query (PREFIX, SELECT, ASK).
func ParseQuery(text string) (*Query, error) { return query.Parse(text) }

// QueryOptions tune EvalQueryWithOptions: Limit caps the rows (0 =
// unlimited; Result.Truncated reports whether more distinct answers
// existed), Stats feeds a summary's Weights to the planner's cardinality
// estimator (with nil every estimate is unknown; the join order is the
// same either way), Pruner short-circuits provably-empty RBGP queries
// against a saturated summary (see NewQueryPruner), Explain requests an
// execution report in Result.Explain.
type QueryOptions = query.EvalOptions

// EvalQueryWithOptions evaluates q against g through an index over it
// (NewIndex; build it once for repeated evaluation) with planner
// statistics, the summary-pruning gate and row limits under the caller's
// control; a nil opts sets none. Evaluation reads explicit triples only —
// pass Saturate(g) and its index for complete answers.
func EvalQueryWithOptions(g *Graph, ix *Index, q *Query, opts *QueryOptions) (*QueryResult, error) {
	return query.Eval(g, ix, q, opts)
}

// CompileQuery compiles q against g into a reusable plan. stats is a
// summary's Weights (cardinality estimates for Explain) or nil (every
// estimate unknown); it does not change how the plan executes.
// Execute with (*QueryPlan).Eval against an index over g.
func CompileQuery(g *Graph, q *Query, stats PlanStats) (*QueryPlan, error) {
	return query.Compile(g, q, stats)
}

// NewQueryPruner builds the summary-pruning gate from a summary: it
// saturates the (small) summary graph and indexes it as an emptiness
// oracle. RBGP queries with no answers on it are provably empty on G∞
// (Prop. 1) — and on G — so evaluation can skip the data entirely.
func NewQueryPruner(s *Summary) *QueryPruner {
	return query.NewPruner(s)
}

// ExportDOT renders a graph (or a summary's Graph) as a Graphviz DOT
// document in the paper's visual style.
func ExportDOT(w io.Writer, g *Graph, title string) error {
	return dot.Write(w, g, &dot.Options{Title: title})
}

// GenerateBSBM builds a deterministic Berlin-SPARQL-Benchmark-shaped
// dataset with the given number of products (≈58 triples per product),
// the workload of the paper's evaluation.
func GenerateBSBM(products int) *Graph {
	return bsbm.GenerateGraph(bsbm.DefaultConfig(products))
}

// GenerateLUBM builds a deterministic LUBM-shaped university dataset with
// the given number of universities (≈3.3k triples per university): deep
// class hierarchy and subproperty families, the saturation-heavy
// complement to BSBM.
func GenerateLUBM(universities int) *Graph {
	return lubm.GenerateGraph(lubm.DefaultConfig(universities))
}

// NewBuilderSet returns an incremental builder maintaining the given
// kinds over g, whose triples seed it (the graph is adopted, not copied;
// EmptyGraph starts from nothing). Feed it triples with Add/AddEncoded
// and snapshot any kind anytime with Summary: snapshots are bit-identical
// to Summarize of the same triple set (which is this builder seeded with
// it) and do not freeze the builder. The shared clique/class-set state is
// computed once per inserted triple, however many kinds are maintained.
func NewBuilderSet(g *Graph, kinds []Kind) (*BuilderSet, error) {
	return core.NewBuilderSet(g, kinds)
}

// Live-update subsystem: a concurrent, durable, mutable graph. Writers
// append and delete batches (WAL-logged and fsynced before acknowledgment
// on durable stores); readers hold immutable epoch snapshots, so queries
// run at full speed during ingest; the index is tiered, so publishing an
// epoch costs O(batch); the weak summary is maintained incrementally and
// other kinds rebuild lazily per epoch. See internal/live and
// docs/live-updates.md.
type (
	// Live is a mutable graph service (single writer, many readers).
	Live = live.Live
	// LiveSnapshot is one published epoch: an immutable graph view plus
	// its triple index.
	LiveSnapshot = live.Snapshot
	// LiveStats reports a live store's serving counters.
	LiveStats = live.Stats
	// LiveKindStatus reports one summary kind's maintenance mode and
	// rebuild counters on a live store.
	LiveKindStatus = live.KindStatus
	// IngestQueue is a batch-count and byte-budget admission bound in front
	// of a Live store's single writer: each admitted batch is applied on
	// its caller's goroutine, one at a time, and a saturated queue fails
	// fast with ErrIngestQueueFull instead of letting writers pile up
	// without limit.
	IngestQueue = live.IngestQueue
	// IngestQueueStats is a point-in-time view of queue occupancy.
	IngestQueueStats = live.QueueStats
)

// ErrIngestQueueFull reports that admitting a batch would exceed an
// IngestQueue's depth or byte budget; retry after a backoff.
var ErrIngestQueueFull = live.ErrQueueFull

// NewIngestQueue returns an ingest queue of at most depth batches and
// maxBytes of admitted payload applying into lv. Non-positive bounds
// select defaults (256 batches, 256 MiB). Close the queue before the
// store.
func NewIngestQueue(lv *Live, depth int, maxBytes int64) *IngestQueue {
	return live.NewIngestQueue(lv, depth, maxBytes)
}

// LiveOptions tunes OpenLive and NewLive: NoSync drops the per-batch fsync
// (faster ingest; a crash may lose recently acknowledged batches), Seed is
// written as the first snapshot of a directory holding no prior state
// (the store then serves that file; the seed is only read), Maintain
// lists the summary kinds kept incrementally current (nil = Weak
// only, empty = none; the others rebuild lazily per epoch). Every open
// checks the snapshot it serves in full.
type LiveOptions = live.Options

// OpenLive opens (or initializes) a durable live store in dir: the
// current snapshot is loaded, the write-ahead log replayed over it (a
// torn tail from a crash is truncated, so exactly the acknowledged
// batches recover), and the first epoch published. A nil opts selects the
// defaults.
func OpenLive(dir string, opts *LiveOptions) (*Live, error) { return live.Open(dir, opts) }

// NewLive wraps a graph (nil for empty) as a memory-only live store: the
// same concurrency model — epoch snapshots, incremental summaries —
// without durability. The graph is adopted, not copied. Of opts (nil =
// defaults) only Maintain applies; the rest needs a directory.
func NewLive(g *Graph, opts *LiveOptions) *Live { return live.New(g, nil, opts) }

// LiveHasState reports whether dir already holds an initialized live
// store, i.e. whether OpenLive would ignore a Seed.
func LiveHasState(dir string) bool { return live.HasState(dir) }
