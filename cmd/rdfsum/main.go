// Command rdfsum summarizes, saturates, inspects and queries RDF graphs.
//
// Usage:
//
//	rdfsum summarize -in data.nt -kind weak [-out summary.nt] [-dot summary.dot]
//	rdfsum summarize -in data.nt -all [-out summary.nt]   # every kind, one shared pass
//	rdfsum saturate  -in data.nt [-out saturated.nt]
//	rdfsum stats     -in data.nt [-kinds weak,strong,typed-weak,typed-strong]
//	rdfsum query     -in data.nt -q 'SELECT ?x WHERE { ... }' [-saturate] [-explain] [-limit N] [-prune kind|off]
//	rdfsum convert   -in data.nt -out data.snapshot
//	rdfsum inspect   data.snapshot
//	rdfsum ingest    -wal ./store -in data.nt [-batch N] [-delete] [-compact] [-nosync]
//
// The query, stats and ingest subcommands also run against a live
// rdfsumd with -server URL (through the typed /v1 client) instead of a
// local graph:
//
//	rdfsum query  -server http://localhost:8176 -q 'SELECT ?x WHERE { ... }'
//	rdfsum stats  -server http://localhost:8176 -kinds weak
//	rdfsum ingest -server http://localhost:8176 -in data.nt [-delete]
//
// Inputs and outputs ending in .nt are N-Triples; anything else is the
// library's binary snapshot format.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"rdfsum"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "summarize":
		err = cmdSummarize(os.Args[2:])
	case "saturate":
		err = cmdSaturate(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "cliques":
		err = cmdCliques(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "rdfsum: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfsum:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `rdfsum — query-oriented RDF graph summarization

commands:
  summarize   build a summary (-kind %s, or -all for every kind at once)
  saturate    compute the RDFS saturation G∞
  stats       print graph and summary size statistics
  query       evaluate a SPARQL BGP query
  convert     convert between N-Triples and snapshot formats
  inspect     print a snapshot file's header, sections and CRCs
  ingest      append (or -delete) triples in a WAL-durable live store (-wal dir)
  cliques     print the source/target property cliques (Table 1 style)
  check       verify well-behavedness assumptions
  profile     print the dataset's entity kinds from its typed-weak summary
`, kindList())
}

// kindList renders the summary kinds for flag help, enumerated from the
// library's kind table instead of a hand-rolled list.
func kindList() string {
	names := make([]string, len(rdfsum.Kinds))
	for i, k := range rdfsum.Kinds {
		names[i] = k.String()
	}
	return strings.Join(names, "|")
}

// load reads a graph from an N-Triples or Turtle file — optionally
// gzip-compressed, detected from the name (data.nt, dump.ttl.gz,
// …) — or a snapshot (anything else).
func load(path string) (*rdfsum.Graph, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -in file")
	}
	if format, codec := rdfsum.DetectFile(path); format != rdfsum.FormatAuto || codec != rdfsum.CompressionNone {
		return rdfsum.LoadFile(path, nil)
	}
	return rdfsum.LoadSnapshot(path)
}

// save writes a graph as N-Triples (.nt), Turtle (.ttl) or a snapshot.
func save(path string, g *rdfsum.Graph) error {
	var write func(*os.File) error
	switch {
	case strings.HasSuffix(path, ".nt"):
		write = func(f *os.File) error { return rdfsum.WriteNTriples(f, g.Decode()) }
	case strings.HasSuffix(path, ".ttl"):
		write = func(f *os.File) error { return rdfsum.WriteTurtle(f, g.Decode()) }
	default:
		return rdfsum.SaveSnapshot(path, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdSummarize(args []string) error {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	in := fs.String("in", "", "input graph (.nt or snapshot)")
	kindName := fs.String("kind", "weak", "summary kind ("+kindList()+")")
	all := fs.Bool("all", false, "emit every summary kind in one pass (outputs get a per-kind suffix)")
	out := fs.String("out", "", "write the summary graph (.nt or snapshot)")
	dotOut := fs.String("dot", "", "write a Graphviz rendering of the summary")
	saturateFirst := fs.Bool("saturate", false, "summarize the saturation G∞ instead of G")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	kinds := rdfsum.Kinds
	if !*all {
		kind, err := rdfsum.ParseKind(*kindName)
		if err != nil {
			return err
		}
		kinds = []rdfsum.Kind{kind}
	}
	g, err := load(*in)
	if err != nil {
		return err
	}
	if *saturateFirst {
		g = rdfsum.Saturate(g)
	}
	summaries, err := rdfsum.SummarizeAll(g, kinds)
	if err != nil {
		return err
	}
	for _, kind := range kinds {
		s := summaries[kind]
		printStats(os.Stdout, kind.String(), s.Stats)
		if *out != "" {
			if err := save(kindPath(*out, kind, *all), s.Graph); err != nil {
				return err
			}
		}
		if *dotOut != "" {
			f, err := os.Create(kindPath(*dotOut, kind, *all))
			if err != nil {
				return err
			}
			if err := rdfsum.ExportDOT(f, s.Graph, kind.String()+" summary"); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// kindPath inserts the kind before the path's extension when emitting
// several kinds at once (summary.nt -> summary.weak.nt), and returns the
// path unchanged for a single kind.
func kindPath(path string, kind rdfsum.Kind, all bool) string {
	if !all {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + kind.String() + ext
}

func cmdSaturate(args []string) error {
	fs := flag.NewFlagSet("saturate", flag.ExitOnError)
	in := fs.String("in", "", "input graph")
	out := fs.String("out", "", "output file (default: stdout as N-Triples)")
	fs.Parse(args) //nolint:errcheck
	g, err := load(*in)
	if err != nil {
		return err
	}
	inf := rdfsum.Saturate(g)
	fmt.Printf("saturation: %d -> %d triples\n", g.NumEdges(), inf.NumEdges())
	if *out == "" {
		return rdfsum.WriteNTriples(os.Stdout, inf.Decode())
	}
	return save(*out, inf)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input graph")
	server := fs.String("server", "", "rdfsumd base URL; inspect a running server instead of -in")
	kindsFlag := fs.String("kinds", strings.ReplaceAll(kindList(), "|", ","), "summaries to measure")
	fs.Parse(args) //nolint:errcheck
	if *server != "" {
		return remoteStats(*server, *kindsFlag)
	}
	g, err := load(*in)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d triples (%d data, %d type, %d schema)\n",
		g.NumEdges(), len(g.Data), len(g.Types), len(g.Schema))
	fmt.Printf("       %d data nodes, %d class nodes, %d distinct data properties\n",
		len(g.DataNodes()), len(g.ClassNodes()), len(g.DistinctDataProperties()))
	var kinds []rdfsum.Kind
	for _, name := range strings.Split(*kindsFlag, ",") {
		kind, err := rdfsum.ParseKind(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		kinds = append(kinds, kind)
	}
	summaries, err := rdfsum.SummarizeAll(g, kinds)
	if err != nil {
		return err
	}
	for _, kind := range kinds {
		printStats(os.Stdout, kind.String(), summaries[kind].Stats)
	}
	return nil
}

func printStats(w *os.File, name string, st rdfsum.Stats) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s summary:\tdata nodes %d\tall nodes %d\tdata edges %d\tall edges %d\tcompression %.2e\n",
		name, st.DataNodes, st.AllNodes, st.DataEdges, st.AllEdges, st.CompressionRatio())
	tw.Flush() //nolint:errcheck
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	in := fs.String("in", "", "input graph")
	server := fs.String("server", "", "rdfsumd base URL; query a running server instead of -in")
	qtext := fs.String("q", "", "SPARQL BGP query text")
	qfile := fs.String("qfile", "", "file holding the query")
	saturateFirst := fs.Bool("saturate", false, "evaluate against G∞ (complete answers)")
	limit := fs.Int("limit", 0, "maximum rows (0 = all)")
	explain := fs.Bool("explain", false,
		"print each pattern's estimated vs. actual cardinality and wall-clock time")
	// Off by default: a one-shot CLI invocation would pay a full
	// summarize+saturate before every query; the long-lived rdfsumd
	// amortizes that cost and defaults to weak instead.
	pruneKind := fs.String("prune", "off",
		"summary kind gating provably-empty queries and feeding planner stats (off = disable)")
	fs.Parse(args) //nolint:errcheck
	if *qtext == "" && *qfile != "" {
		b, err := os.ReadFile(*qfile)
		if err != nil {
			return err
		}
		*qtext = string(b)
	}
	if *qtext == "" {
		return fmt.Errorf("missing -q query")
	}
	if *server != "" {
		return remoteQuery(*server, *qtext, *limit, *explain, *saturateFirst, *pruneKind)
	}
	g, err := load(*in)
	if err != nil {
		return err
	}
	q, err := rdfsum.ParseQuery(*qtext)
	if err != nil {
		return err
	}

	// Summarize *before* saturating: the pruning gate and the planner
	// statistics both come from a summary of the loaded graph.
	opts := &rdfsum.QueryOptions{Limit: *limit, Explain: *explain}
	if *pruneKind != "off" {
		kind, err := rdfsum.ParseKind(*pruneKind)
		if err != nil {
			return err
		}
		s, err := rdfsum.Summarize(g, kind)
		if err != nil {
			return err
		}
		opts.Pruner = rdfsum.NewQueryPruner(s)
		opts.Stats = s.ComputeWeights()
	}
	if *explain && opts.Stats == nil {
		// -explain without pruning: still build planner statistics so the
		// report carries real estimates, not "?".
		s, err := rdfsum.Summarize(g, rdfsum.Weak)
		if err != nil {
			return err
		}
		opts.Stats = s.ComputeWeights()
	}
	if *saturateFirst {
		g = rdfsum.Saturate(g)
	}
	res, err := rdfsum.EvalQueryWithOptions(g, rdfsum.NewIndex(g), q, opts)
	if err != nil {
		return err
	}
	if *explain && res.Explain != nil {
		fmt.Println("plan:")
		fmt.Print(res.Explain.String())
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	for _, v := range res.Vars {
		fmt.Fprintf(tw, "?%s\t", v)
	}
	fmt.Fprintln(tw)
	for _, row := range res.Rows {
		for _, term := range row {
			fmt.Fprintf(tw, "%s\t", term)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush() //nolint:errcheck
	if res.Truncated {
		fmt.Printf("%d row(s) (truncated at -limit %d)\n", len(res.Rows), *limit)
	} else {
		fmt.Printf("%d row(s)\n", len(res.Rows))
	}
	return nil
}

// cmdIngest streams an N-Triples file into a WAL-durable live store in
// batches (one WAL record + one fsync per batch — the group-commit
// unit); with -delete the file's triples are removed instead of added
// (every stored copy, journaled as opDelete records). The store is
// single-writer: if an rdfsumd -live is serving the same directory, the
// store's lock makes this command fail fast instead of corrupting the
// log — stop the server (or POST/DELETE /triples to it) instead.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	walDir := fs.String("wal", "", "live store directory (created if absent)")
	server := fs.String("server", "", "rdfsumd base URL; ingest through a running server instead of -wal")
	in := fs.String("in", "", "triples file to append (or remove, with -delete): .nt or .ttl, optionally .gz")
	batch := fs.Int("batch", 8192, "triples per WAL record / fsync")
	del := fs.Bool("delete", false, "remove the file's triples instead of adding them")
	compact := fs.Bool("compact", false, "fold the WAL into a snapshot after ingest")
	nosync := fs.Bool("nosync", false, "skip per-batch fsync (faster, weaker durability)")
	fs.Parse(args) //nolint:errcheck
	if *in == "" {
		return fmt.Errorf("missing -in file")
	}
	if *batch <= 0 {
		return fmt.Errorf("-batch must be positive")
	}
	if *server != "" {
		return remoteIngest(*server, *in, *batch, *del)
	}
	if *walDir == "" {
		return fmt.Errorf("missing -wal directory")
	}
	lv, err := rdfsum.OpenLive(*walDir, &rdfsum.LiveOptions{NoSync: *nosync})
	if err != nil {
		return err
	}
	defer lv.Close()
	before := lv.Stats()
	buf := make([]rdfsum.Triple, 0, *batch)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		var err error
		if *del {
			_, err = lv.DeleteBatch(buf)
		} else {
			err = lv.AddBatch(buf)
		}
		if err != nil {
			return err
		}
		buf = buf[:0]
		return nil
	}
	if err := rdfsum.StreamFile(*in, nil, func(t rdfsum.Triple) error {
		buf = append(buf, t)
		if len(buf) == *batch {
			return flush()
		}
		return nil
	}); err != nil {
		return describeStreamErr(*in, err)
	}
	if err := flush(); err != nil {
		return err
	}
	st := lv.Stats()
	if *del {
		fmt.Printf("deleted %d triples (%d -> %d), epoch %d, wal %d bytes\n",
			st.Deleted-before.Deleted, before.Triples, st.Triples, st.Epoch, st.WALBytes)
	} else {
		fmt.Printf("ingested %d triples (%d -> %d), epoch %d, wal %d bytes\n",
			st.Triples-before.Triples, before.Triples, st.Triples, st.Epoch, st.WALBytes)
	}
	if *compact {
		if err := lv.Compact(); err != nil {
			return err
		}
		st = lv.Stats()
		fmt.Printf("compacted to generation %d, wal %d bytes\n", st.Gen, st.WALBytes)
	}
	return nil
}

// describeStreamErr annotates a streaming-load failure with what the
// file name declared about its encoding, so a truncated dump fails as
// "reading dump.ttl.gz as gzip-compressed turtle: ..." instead of a
// bare parse position.
func describeStreamErr(path string, err error) error {
	format, codec := rdfsum.DetectFile(path)
	var as []string
	if codec != rdfsum.CompressionNone {
		as = append(as, codec.String()+"-compressed")
	}
	if format != rdfsum.FormatAuto {
		as = append(as, format.String())
	}
	if len(as) == 0 {
		return err
	}
	return fmt.Errorf("reading %s as %s: %w", path, strings.Join(as, " "), err)
}

// cmdInspect prints a snapshot file's physical layout: format version,
// header counts, every section's offset, size, bytes per triple and
// CRC-32 (IEEE), the dictionary's symbol table and how many terms it packs, and the on-disk compression
// ratio — answered from the header, the TOC and one walk of the
// dictionary's pages (no term or triple decode).
func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: rdfsum inspect <snapshot>")
	}
	path := fs.Arg(0)
	info, err := rdfsum.InspectSnapshot(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: snapshot format v%d, %d bytes\n", path, info.Version, info.FileSize)
	nTriples := info.NData + info.NTypes + info.NSchema
	fmt.Printf("  triples: %d (%d data, %d type, %d schema), dict terms: %d\n",
		nTriples, info.NData, info.NTypes, info.NSchema, info.NTerms)
	serve := "eager read"
	if info.Mmap {
		serve = "mmap"
	}
	fmt.Printf("  page size: %d, serving mode in this build: %s\n", info.PageSize, serve)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  section\toffset\tbytes\tB/triple\tcrc32-ieee\n")
	var payload, tableBytes uint64
	for _, s := range info.Sections {
		perTriple := "-"
		if nTriples > 0 {
			perTriple = fmt.Sprintf("%.3f", float64(s.Len)/float64(nTriples))
		}
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%s\t%08x\n", s.Name, s.Off, s.Len, perTriple, s.CRC)
		payload += s.Len
		if s.Name == "dict-symbols" {
			tableBytes = s.Len
		}
	}
	tw.Flush() //nolint:errcheck
	fmt.Printf("  dict symbols: %d (%d bytes), packed terms: %d of %d\n", info.DictSymbols, tableBytes, info.DictPacked, info.NTerms)
	if nTriples > 0 {
		raw := nTriples * 3 * 8 // three u64 ids per triple, uncompressed baseline
		fmt.Printf("  payload: %d bytes (%.1f%% padding); columns+dict vs raw 24 B/triple: %.2fx\n",
			payload, 100*float64(uint64(info.FileSize)-min(payload, uint64(info.FileSize)))/float64(info.FileSize),
			float64(raw)/float64(payload))
	}
	return nil
}

// cmdConvert writes -in to -out, each in the format its name says. A
// snapshot's graph lists its data and schema triples in SPO order (the
// open derives them from the SPO column) and its type triples in the
// order they were added, so N-Triples converted from a snapshot come in
// that order.
func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "", "input graph")
	out := fs.String("out", "", "output file")
	fs.Parse(args) //nolint:errcheck
	if *out == "" {
		return fmt.Errorf("missing -out file")
	}
	g, err := load(*in)
	if err != nil {
		return err
	}
	return save(*out, g)
}
