// Benchmarks regenerating the paper's evaluation artifacts (§7). Each
// figure and table of the paper maps to one Benchmark* function below;
// docs/summarization.md describes the constructions they time. Load,
// query, live-store and snapshot timings are not here: benchmark/ reports
// them per layer from a real store (BENCHMARK.json).
//
// Sizes are BSBM product counts: 200 ≈ 12k triples, 1000 ≈ 58k, 5000 ≈
// 290k. The paper sweeps 10M–100M on a Postgres-backed Java prototype;
// shapes (who wins, growth trends), not absolute numbers, are the target.
package rdfsum_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"rdfsum"
	"rdfsum/internal/bsbm"
	"rdfsum/internal/cliques"
	"rdfsum/internal/dict"
	"rdfsum/internal/lubm"
	"rdfsum/internal/ntriples"
	"rdfsum/internal/query"
	"rdfsum/internal/rdf"
	"rdfsum/internal/samples"
	"rdfsum/internal/store"
)

var benchSizes = []int{200, 1000, 5000}

// benchKinds are the paper-evaluated kinds, enumerated from the
// library's kind table.
var benchKinds = rdfsum.PaperKinds

var (
	bsbmMu    sync.Mutex
	bsbmCache = map[int]*rdfsum.Graph{}
)

func bsbmGraph(b *testing.B, products int) *rdfsum.Graph {
	b.Helper()
	bsbmMu.Lock()
	defer bsbmMu.Unlock()
	if g, ok := bsbmCache[products]; ok {
		return g
	}
	g := rdfsum.GenerateBSBM(products)
	bsbmCache[products] = g
	return g
}

// BenchmarkFig11Nodes regenerates Figure 11: the number of data nodes
// (top panel) and all nodes (bottom panel) of each summary across the
// BSBM sweep, reported as custom metrics alongside the build time.
func BenchmarkFig11Nodes(b *testing.B) {
	for _, products := range benchSizes {
		g := bsbmGraph(b, products)
		for _, kind := range benchKinds {
			b.Run(fmt.Sprintf("%s/products=%d", kind, products), func(b *testing.B) {
				var stats rdfsum.Stats
				for i := 0; i < b.N; i++ {
					s, err := rdfsum.Summarize(g, kind)
					if err != nil {
						b.Fatal(err)
					}
					stats = s.Stats
				}
				b.ReportMetric(float64(stats.DataNodes), "datanodes")
				b.ReportMetric(float64(stats.AllNodes), "allnodes")
			})
		}
	}
}

// BenchmarkFig12Edges regenerates Figure 12: the number of data edges
// (top panel) and all edges (bottom panel) of each summary.
func BenchmarkFig12Edges(b *testing.B) {
	for _, products := range benchSizes {
		g := bsbmGraph(b, products)
		for _, kind := range benchKinds {
			b.Run(fmt.Sprintf("%s/products=%d", kind, products), func(b *testing.B) {
				var stats rdfsum.Stats
				for i := 0; i < b.N; i++ {
					s, err := rdfsum.Summarize(g, kind)
					if err != nil {
						b.Fatal(err)
					}
					stats = s.Stats
				}
				b.ReportMetric(float64(stats.DataEdges), "dataedges")
				b.ReportMetric(float64(stats.AllEdges), "alledges")
				b.ReportMetric(stats.CompressionRatio(), "compression")
			})
		}
	}
}

// BenchmarkFig13SummarizationTime regenerates Figure 13: summarization
// wall-clock time per kind and size (ns/op is the figure's series; the
// paper reports seconds at 10–100M triples on Postgres). The "all" arm is
// SummarizeAll: the five kinds from one seeded set.
func BenchmarkFig13SummarizationTime(b *testing.B) {
	for _, products := range benchSizes {
		g := bsbmGraph(b, products)
		for _, kind := range benchKinds {
			b.Run(fmt.Sprintf("%s/products=%d", kind, products), func(b *testing.B) {
				b.ReportMetric(float64(g.NumEdges()), "triples")
				for i := 0; i < b.N; i++ {
					if _, err := rdfsum.Summarize(g, kind); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("all/products=%d", products), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rdfsum.SummarizeAll(g, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Cliques regenerates Table 1's computation: the source and
// target property cliques, on the paper's sample graph and on BSBM data.
func BenchmarkTable1Cliques(b *testing.B) {
	b.Run("fig2", func(b *testing.B) {
		g := samples.Fig2()
		for i := 0; i < b.N; i++ {
			cliques.Compute(g.Data)
		}
	})
	for _, products := range benchSizes {
		g := bsbmGraph(b, products)
		b.Run(fmt.Sprintf("bsbm/products=%d", products), func(b *testing.B) {
			var asg *cliques.Assignment
			for i := 0; i < b.N; i++ {
				asg = cliques.Compute(g.Data)
			}
			b.ReportMetric(float64(len(asg.SrcMembers)), "srccliques")
			b.ReportMetric(float64(len(asg.TgtMembers)), "tgtcliques")
		})
	}
}

// BenchmarkAblationSaturationShortcut compares computing W_{G∞} the
// expensive way (saturate G, summarize) against the Prop. 5 shortcut
// (summarize, saturate the small summary, resummarize).
func BenchmarkAblationSaturationShortcut(b *testing.B) {
	g := bsbmGraph(b, 1000)
	b.Run("saturate-then-summarize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inf := rdfsum.Saturate(g)
			if _, err := rdfsum.Summarize(inf, rdfsum.Weak); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shortcut", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := rdfsum.Summarize(g, rdfsum.Weak)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rdfsum.Summarize(rdfsum.Saturate(s.Graph), rdfsum.Weak); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLUBMSummaries runs the four summaries on the LUBM workload
// (deep hierarchy, subproperty families) — the cross-dataset check of the
// extended report.
func BenchmarkLUBMSummaries(b *testing.B) {
	g := rdfsum.GenerateLUBM(8) // ≈26k triples
	for _, kind := range benchKinds {
		b.Run(kind.String(), func(b *testing.B) {
			var stats rdfsum.Stats
			for i := 0; i < b.N; i++ {
				s, err := rdfsum.Summarize(g, kind)
				if err != nil {
					b.Fatal(err)
				}
				stats = s.Stats
			}
			b.ReportMetric(float64(stats.DataNodes), "datanodes")
			b.ReportMetric(float64(stats.AllEdges), "alledges")
		})
	}
}

// --- substrate micro-benchmarks -------------------------------------------

// BenchmarkParseNTriples streams BSBM N-Triples text (products=1000,
// ≈ 58k triples) through the parser with every term interned, the way a
// load does: MB/s, and allocations per triple — the copy-free fast path
// leaves only the dictionary's clone of each distinct term.
func BenchmarkParseNTriples(b *testing.B) {
	data := ntData(b, 1000)
	triples := bytes.Count(data, []byte{'\n'})
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var allocs uint64
	for i := 0; i < b.N; i++ {
		d := dict.New()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := ntriples.ParseFunc(bytes.NewReader(data), func(t rdf.Triple) error {
			d.Encode(t.S)
			d.Encode(t.P)
			d.Encode(t.O)
			return nil
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			b.Fatal(err)
		}
		allocs += m1.Mallocs - m0.Mallocs
	}
	b.ReportMetric(float64(allocs)/float64(b.N)/float64(triples), "allocs/triple")
}

// ntData renders a cached BSBM graph as N-Triples bytes for the load
// benchmarks.
var (
	ntMu    sync.Mutex
	ntCache = map[int][]byte{}
)

func ntData(b *testing.B, products int) []byte {
	b.Helper()
	g := bsbmGraph(b, products)
	ntMu.Lock()
	defer ntMu.Unlock()
	if data, ok := ntCache[products]; ok {
		return data
	}
	var buf bytes.Buffer
	if err := ntriples.Write(&buf, g.Decode()); err != nil {
		b.Fatal(err)
	}
	ntCache[products] = buf.Bytes()
	return ntCache[products]
}

// BenchmarkStreamingIngest is the streaming-ingest acceptance number: a
// cold compressed dump on disk to a serving summary. Each iteration is
// what rdfsumd does between boot and its first answered query — open
// the file, decode gzip as a streaming stage feeding the parallel
// loader, and build the weak summary. Measured for gzipped N-Triples
// and gzipped Turtle (~58k triples, BSBM products=1000); MB/s is decoded
// text, triples/s the figure the two formats compare by.
func BenchmarkStreamingIngest(b *testing.B) {
	g := bsbmGraph(b, 1000)
	write := map[string]func(*bytes.Buffer) error{
		"ntriples-gzip": func(buf *bytes.Buffer) error { return ntriples.Write(buf, g.Decode()) },
		"turtle-gzip":   func(buf *bytes.Buffer) error { return rdfsum.WriteTurtle(buf, g.Decode()) },
	}
	for _, name := range []string{"ntriples-gzip", "turtle-gzip"} {
		b.Run(name, func(b *testing.B) {
			var plain bytes.Buffer
			if err := write[name](&plain); err != nil {
				b.Fatal(err)
			}
			ext := ".nt.gz"
			if name == "turtle-gzip" {
				ext = ".ttl.gz"
			}
			path := filepath.Join(b.TempDir(), "dump"+ext)
			writeCompressed(b, path, plain.Bytes(), rdfsum.CompressionGzip)
			b.SetBytes(int64(plain.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loaded, err := rdfsum.LoadFile(path, nil)
				if err != nil {
					b.Fatal(err)
				}
				if loaded.NumEdges() != g.NumEdges() {
					b.Fatalf("loaded %d triples, want %d", loaded.NumEdges(), g.NumEdges())
				}
				if _, err := rdfsum.Summarize(loaded, rdfsum.Weak); err != nil {
					b.Fatal(err)
				}
			}
			// MB/s flatters N-Triples by the 4× it is longer than the
			// same triples as Turtle: triples/s compares the formats.
			b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "triples/s")
		})
	}
}

// BenchmarkSeedBoot is rdfsumd's cold boot as benchmark/ times it, in
// process: load a dump, open a fresh durable store seeded with it — write
// snapshot-1 and an empty wal-1, then open that generation as a reopen
// does: builders, the file's runs, epoch 1 — then warm what the first
// query of each template builds: the weak summary and its pruner (an
// unexplained query computes no planner weights). Two dumps, the two
// the harness boots from: bsbm-nt is BSBM 3000 products as N-Triples
// (≈ 170k triples; 1000 ≈ 58k under -short), lubm-ttl-gz is LUBM 52
// universities as rdfsum.WriteTurtle writes it, behind gzip (≈ 177k
// triples; 15 ≈ 51k under -short). lubm-reopen is the restart scan-lubm
// pays after that cold boot: reopen the store lubm-ttl-gz seeded, under
// -maintain weak, and warm the same two. `make boot-profile` runs any
// of them under the CPU profiler (BOOT=bsbm-nt|lubm-ttl-gz|lubm-reopen).
func BenchmarkSeedBoot(b *testing.B) {
	b.Run("bsbm-nt", func(b *testing.B) {
		products := 3000
		if testing.Short() {
			products = 1000
		}
		seedBoot(b, "dump.nt", ntData(b, products), rdfsum.CompressionNone)
	})
	b.Run("lubm-ttl-gz", func(b *testing.B) {
		seedBoot(b, "dump.ttl.gz", lubmTurtle(b), rdfsum.CompressionGzip)
	})
	b.Run("lubm-reopen", func(b *testing.B) {
		dump := filepath.Join(b.TempDir(), "dump.ttl")
		writeCompressed(b, dump, lubmTurtle(b), rdfsum.CompressionNone)
		g, err := rdfsum.LoadFile(dump, nil)
		if err != nil {
			b.Fatal(err)
		}
		dir := filepath.Join(b.TempDir(), "store")
		lv, err := rdfsum.OpenLive(dir, &rdfsum.LiveOptions{Seed: g})
		if err != nil {
			b.Fatal(err)
		}
		if err := lv.Close(); err != nil {
			b.Fatal(err)
		}
		reopenBoot(b, dir)
	})
}

// reopenBoot times restarts of the store in dir under -maintain weak, each
// warmed like a cold boot.
func reopenBoot(b *testing.B, dir string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lv, err := rdfsum.OpenLive(dir, &rdfsum.LiveOptions{Maintain: []rdfsum.Kind{rdfsum.Weak}})
		if err != nil {
			b.Fatal(err)
		}
		warmBoot(b, lv)
	}
}

// lubmUniversities is the LUBM size the harness boots scan-lubm from: 52
// universities, 15 under -short.
func lubmUniversities() int {
	if testing.Short() {
		return 15
	}
	return 52
}

// lubmTurtle is scan-lubm's dump as rdfsum.WriteTurtle writes it.
func lubmTurtle(b *testing.B) []byte {
	var plain bytes.Buffer
	if err := rdfsum.WriteTurtle(&plain, rdfsum.GenerateLUBM(lubmUniversities()).Decode()); err != nil {
		b.Fatal(err)
	}
	return plain.Bytes()
}

// seedBoot writes plain to a dump file of the given name behind codec and
// times the boot from it; bytes/op is the decoded text.
func seedBoot(b *testing.B, name string, plain []byte, codec rdfsum.Compression) {
	dump := filepath.Join(b.TempDir(), name)
	writeCompressed(b, dump, plain, codec)
	b.SetBytes(int64(len(plain)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := rdfsum.LoadFile(dump, nil)
		if err != nil {
			b.Fatal(err)
		}
		lv, err := rdfsum.OpenLive(filepath.Join(b.TempDir(), fmt.Sprintf("store-%d", i)), &rdfsum.LiveOptions{Seed: g})
		if err != nil {
			b.Fatal(err)
		}
		warmBoot(b, lv)
	}
}

// warmBoot builds what rdfsumd's first unexplained query of each template
// does — the weak summary and its pruner — then closes the store.
func warmBoot(b *testing.B, lv *rdfsum.Live) {
	sum, _, err := lv.Summary(rdfsum.Weak, 0)
	if err != nil {
		b.Fatal(err)
	}
	rdfsum.NewQueryPruner(sum)
	if err := lv.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkComputeWeights is the planner's statistics pass: the weak
// summary's ComputeWeights over the two graphs the harness boots from,
// BSBM 3000 products (≈ 170k triples) and LUBM 52 universities (≈ 177k;
// 1000 and 15 under -short) — what rdfsumd's first explained query after
// a boot pays, and an explained query again whenever the weights trail
// the store by more than internal/live's planStatsMaxStale epochs.
// Unexplained queries never pay it.
func BenchmarkComputeWeights(b *testing.B) {
	products := 3000
	if testing.Short() {
		products = 1000
	}
	for _, arm := range []struct {
		name string
		g    func() *rdfsum.Graph
	}{
		{"bsbm", func() *rdfsum.Graph { return bsbmGraph(b, products) }},
		{"lubm", func() *rdfsum.Graph { return rdfsum.GenerateLUBM(lubmUniversities()) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			sum, err := rdfsum.Summarize(arm.g(), rdfsum.Weak)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				weightsSink = sum.ComputeWeights()
			}
		})
	}
}

// weightsSink keeps BenchmarkComputeWeights' result live.
var weightsSink *rdfsum.Weights

// writeCompressed writes plain to path behind codec.
func writeCompressed(b *testing.B, path string, plain []byte, codec rdfsum.Compression) {
	b.Helper()
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	zw, err := rdfsum.NewCompressionWriter(f, codec)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := zw.Write(plain); err != nil {
		b.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLiveCompact is one compaction of a ≈ 58k-triple BSBM store
// that has taken a 512-triple batch since the last one: gather the
// graph's triples, sort and stream the snapshot one column at a time, map
// it, swap generations. B/op (-benchmem) is the figure: the two 12 B a
// triple sort buffers, and little else — the published index is the
// mapped file.
func BenchmarkLiveCompact(b *testing.B) {
	lv, err := rdfsum.OpenLive(filepath.Join(b.TempDir(), "store"), &rdfsum.LiveOptions{Seed: bsbmGraph(b, 1000)})
	if err != nil {
		b.Fatal(err)
	}
	defer lv.Close() //nolint:errcheck
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := lv.AddBatch(incBatch(i, 512)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := lv.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// liveCycleStore keeps BenchmarkLiveCycle's store reachable once the
// benchmark has returned: a -memprofile is written as the test binary
// exits, and its inuse_space is to show what a serving store holds.
var liveCycleStore *rdfsum.Live

// BenchmarkLiveCycle is one write-and-summarize cycle of benchmark/'s
// scenario, in process: a store seeded with BSBM 3000 products ≈ 170k
// triples (1000 under -short) takes 50 batches of ≈ 125 triples, deletes
// every other one of them again as its own batch (the delete stream,
// where the delta tail and DeleteBatch's component copies peak), compacts
// and serves a summary of every kind. A seeded store serves its mapped
// snapshot-1 as a reopened one does, so this is also what scan-lubm's
// restarted server holds. `make heap-profile` runs it under the heap
// profiler.
func BenchmarkLiveCycle(b *testing.B) {
	products := 3000
	if testing.Short() {
		products = 1000
	}
	if liveCycleStore != nil {
		liveCycleStore.Close() //nolint:errcheck
	}
	// Not bsbmGraph: a cached copy of the seed would sit in the profile.
	lv, err := rdfsum.OpenLive(filepath.Join(b.TempDir(), "store"), &rdfsum.LiveOptions{Seed: rdfsum.GenerateBSBM(products)})
	if err != nil {
		b.Fatal(err)
	}
	liveCycleStore = lv
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 50; j++ {
			if err := lv.AddBatch(incBatch(i*50+j, 100)); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < 50; j += 2 {
			if _, err := lv.DeleteBatch(incBatch(i*50+j, 100)); err != nil {
				b.Fatal(err)
			}
		}
		if err := lv.Compact(); err != nil {
			b.Fatal(err)
		}
		for _, kind := range rdfsum.Kinds {
			if _, _, err := lv.Summary(kind, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMappedDict is the dictionary of a reopened store, on the two
// graphs the harness boots from: LUBM 52 universities and BSBM 3000
// products, whose long and typed literals make longer chains (15 and 1000
// under -short), each saved as a snapshot and opened onto its mapped
// pages. term decodes a base term, lookup-hit finds one — each in one
// fixed random order of the IDs, as a query's rows ask for them — and
// lookup-miss probes for a term the snapshot does not hold, what every
// name a summary mints costs. The open, which indexes the base, runs
// before the timer. write is the writer: the heap dictionary's pages,
// directory and symbol table, trained anew each time, streamed to
// io.Discard.
func BenchmarkMappedDict(b *testing.B) {
	products := 3000
	if testing.Short() {
		products = 1000
	}
	for _, g := range []struct {
		name  string
		graph func() *store.Graph
	}{
		{"lubm", func() *store.Graph { return lubm.GenerateGraph(lubm.DefaultConfig(lubmUniversities())) }},
		{"bsbm", func() *store.Graph { return bsbm.GenerateGraph(bsbm.DefaultConfig(products)) }},
	} {
		b.Run(g.name, func(b *testing.B) { benchMappedDict(b, g.graph()) })
	}
}

func benchMappedDict(b *testing.B, heap *store.Graph) {
	path := filepath.Join(b.TempDir(), "g.rdfsum")
	if err := store.SaveFile(path, heap); err != nil {
		b.Fatal(err)
	}
	g, sf, err := store.OpenGraphFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer sf.Close() //nolint:errcheck
	d := g.Dict()
	n := d.Len()
	ids := make([]dict.ID, n)
	for i := range ids {
		ids[i] = dict.ID(i + 1)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := heap.Dict().WriteFrontCoded(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	terms := make([]rdf.Term, n)
	misses := make([]rdf.Term, n)
	for i, id := range ids {
		terms[i] = d.Term(id)
		misses[i] = rdf.NewIRI(fmt.Sprintf("http://summary.example.org/node/%d", i))
	}
	b.Run("term", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			termSink = d.Term(ids[i%n])
		}
	})
	for _, arm := range []struct {
		name  string
		terms []rdf.Term
	}{{"lookup-hit", terms}, {"lookup-miss", misses}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idSink, _ = d.Lookup(arm.terms[i%n])
			}
		})
	}
}

// termSink and idSink keep BenchmarkMappedDict's results live.
var (
	termSink rdf.Term
	idSink   dict.ID
)

// scanLUBMPool is benchmark/'s scan-lubm query pool: the three LUBM joins
// and the two property scans of internal/query's join-order tests.
var scanLUBMPool = []string{
	"PREFIX ub: <" + lubm.NS + "> SELECT ?x ?u WHERE { ?x ub:headOf ?d . ?d ub:subOrganizationOf ?u }",
	"PREFIX ub: <" + lubm.NS + "> SELECT ?s WHERE { ?s ub:memberOf ?d . ?s ub:advisor ?p . ?p ub:worksFor ?d }",
	"PREFIX ub: <" + lubm.NS + "> SELECT ?s ?c WHERE { ?x ub:worksFor ?d . ?x ub:teacherOf ?c . ?s ub:advisor ?x . ?s ub:takesCourse ?c }",
	"PREFIX ub: <" + lubm.NS + "> SELECT ?s ?c WHERE { ?s ub:takesCourse ?c }",
	"PREFIX ub: <" + lubm.NS + "> SELECT ?s ?n WHERE { ?s ub:name ?n }",
}

// BenchmarkIndexJoins evaluates scan-lubm's query pool, under its
// 10 000-row limit, on LUBM 52 universities (15 under -short) over three
// indexes of one graph: the heap base a memory-only store serves
// (store.NewIndex), the mapped base of the graph's snapshot that a
// durable store serves, and a heap base of half the graph under a delta
// tail of the other half in 100-triple batches (its folds past the
// encoding cutoff encoded). What a store pays to serve from the file
// instead of a heap copy is the mapped arm's time over the heap arm's,
// and what it pays for an uncompacted tail the tail arm's; the encoded
// columns' fences are built before the timer.
func BenchmarkIndexJoins(b *testing.B) {
	g := lubm.GenerateGraph(lubm.DefaultConfig(lubmUniversities()))
	path := filepath.Join(b.TempDir(), "lubm.rdfsum")
	if err := store.SaveFile(path, g); err != nil {
		b.Fatal(err)
	}
	sf, err := store.OpenSnapshotFile(path, true)
	if err != nil {
		b.Fatal(err)
	}
	defer sf.Close() //nolint:errcheck
	bases := []struct {
		name string
		ix   *store.Index
	}{
		{"heap", store.NewIndex(g)},
		{"mapped", store.NewIndexFromBase(sf.Runs())},
		{"tail", tailIndex(g.All(), 100)},
	}
	for _, base := range bases {
		for qi, text := range scanLUBMPool {
			pl, err := query.Compile(g, query.MustParse(text), nil)
			if err != nil {
				b.Fatal(err)
			}
			opts := &query.EvalOptions{Limit: 10000}
			if _, err := pl.Eval(base.ix, opts); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/q%d", base.name, qi), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := pl.Eval(base.ix, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// tailIndex is an index over all as a heap base of its first half and a
// delta tail of the rest, applied batch triples at a time.
func tailIndex(all []store.Triple, batch int) *store.Index {
	half := len(all) / 2
	ix := store.NewIndexFromBase(store.NewRunCols(append([]store.Triple(nil), all[:half]...)))
	for j := half; j < len(all); j += batch {
		ix = ix.Applied(all[j:min(j+batch, len(all))], nil)
	}
	return ix
}

// BenchmarkIndexDeltaTail is the index side of a write window, in
// process: a heap base of the first half of an LUBM graph's triples (52
// universities, 15 under -short), then the other half as 100-triple
// delta batches through store.Index.Applied, each followed by a point
// lookup and a (·, p, o) count of one triple it added, and every 15th
// by a 10-triple delete batch. It reports the time a batch takes with
// its folds and lookups, and what the delta tail holds on the heap at
// the end per delta triple: the two sides of the index's encoding
// cutoff.
func BenchmarkIndexDeltaTail(b *testing.B) {
	all := lubm.GenerateGraph(lubm.DefaultConfig(lubmUniversities())).All()
	half := len(all) / 2
	batches, tail := 0, int64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := store.NewIndexFromBase(store.NewRunCols(append([]store.Triple(nil), all[:half]...)))
		base := ix.HeapBytes()
		b.StartTimer()
		batches = 0
		for j := half; j < len(all); j += 100 {
			batch := all[j:min(j+100, len(all))]
			ix = ix.Applied(batch, nil)
			t := batch[len(batch)/2]
			if !ix.Contains(t) || ix.Count(dict.None, t.P, t.O) == 0 {
				b.Fatalf("batch %d: %v not found", batches, t)
			}
			if batches++; batches%15 == 0 {
				ix = ix.Applied(nil, all[j-1000:j-990])
			}
		}
		tail = ix.HeapBytes() - base
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches), "ns/batch")
	b.ReportMetric(float64(tail)/float64(len(all)-half), "heapB/triple")
}

// --- quotient engine benchmarks --------------------------------------------

// incBatch builds one deterministic ingest batch of ~n triples over a
// small property/class pool, typing each node before its data edge (the
// live store's recommended shape — no maintenance rebuilds).
func incBatch(i, n int) []rdfsum.Triple {
	out := make([]rdfsum.Triple, 0, n+n/4)
	for j := 0; j < n; j++ {
		s := rdfsum.NewIRI(fmt.Sprintf("http://inc/s%d-%d", i, j))
		if j%4 == 0 {
			out = append(out, rdfsum.NewTriple(s, rdfsum.NewIRI(rdf.RDFType),
				rdfsum.NewIRI(fmt.Sprintf("http://inc/C%d", j%3))))
		}
		out = append(out, rdfsum.NewTriple(s,
			rdfsum.NewIRI(fmt.Sprintf("http://inc/p%d", j%7)),
			rdfsum.NewIRI(fmt.Sprintf("http://inc/o%d", j%13))))
	}
	return out
}

// BenchmarkIncrementalSummaries measures the quotient engine per kind:
// "seed" builds a builder over a ~58k-triple BSBM graph and "seed+add"
// also gives it its first write — the one that derives the adjacency
// index and the per-triple edge keys seeding skipped, so the difference
// is what that write costs, O(|G|) for every kind but weak; "add-batch"
// is the maintenance cost of absorbing one 512-triple batch after that
// (O(Δ) — the base does not get re-scanned), and "snapshot" is
// the cost of materializing the maintained summary from engine state
// (O(state), no re-summarization). Contrast with
// BenchmarkFig13SummarizationTime, the O(|G|) seed-and-snapshot these
// paths replace in the live store.
func BenchmarkIncrementalSummaries(b *testing.B) {
	const batchSize = 512
	base := bsbmGraph(b, 1000).Decode()
	for _, kind := range rdfsum.Kinds {
		// seed and seed+add differ by the first write alone.
		for _, writes := range []int{0, 1} {
			b.Run(kind.String()+[]string{"/seed", "/seed+add"}[writes], func(b *testing.B) {
				g := rdfsum.NewGraph(base)
				for i := 0; i < b.N; i++ {
					builder, err := rdfsum.NewBuilderSet(g.CloneStructure(), []rdfsum.Kind{kind})
					if err != nil {
						b.Fatal(err)
					}
					for _, t := range incBatch(0, writes) {
						builder.Add(t)
					}
				}
			})
		}
		b.Run(kind.String()+"/add-batch", func(b *testing.B) {
			builder, err := rdfsum.NewBuilderSet(rdfsum.NewGraph(base), []rdfsum.Kind{kind})
			if err != nil {
				b.Fatal(err)
			}
			builder.Add(incBatch(0, 1)[0]) // the first write, timed above
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range incBatch(i, batchSize) {
					builder.Add(t)
				}
			}
			b.ReportMetric(batchSize, "triples/batch")
		})
		b.Run(kind.String()+"/snapshot", func(b *testing.B) {
			builder, err := rdfsum.NewBuilderSet(rdfsum.NewGraph(base), []rdfsum.Kind{kind})
			if err != nil {
				b.Fatal(err)
			}
			for _, t := range incBatch(0, batchSize) {
				builder.Add(t)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := builder.Summary(kind); err != nil {
					b.Fatal(err)
				}
			}
			if builder.Rebuilds(kind) != 0 {
				b.Fatalf("%v: unexpected maintenance rebuilds", kind)
			}
		})
	}
}
