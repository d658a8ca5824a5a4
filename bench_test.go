// Benchmarks regenerating the paper's evaluation artifacts (§7). Each
// figure and table of the paper maps to one Benchmark* function below;
// docs/summarization.md describes the constructions they time.
//
// Sizes are BSBM product counts: 200 ≈ 12k triples, 1000 ≈ 58k, 5000 ≈
// 290k. The paper sweeps 10M–100M on a Postgres-backed Java prototype;
// shapes (who wins, growth trends), not absolute numbers, are the target.
package rdfsum_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"rdfsum"
	"rdfsum/internal/cliques"
	"rdfsum/internal/dict"
	"rdfsum/internal/ntriples"
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

// BenchmarkStreamingBuilder measures the amortized per-triple cost of
// feeding a graph to an empty weak builder one triple at a time, snapshot
// included (BenchmarkFig13SummarizationTime times the same builder
// seeded with the whole graph).
func BenchmarkStreamingBuilder(b *testing.B) {
	decoded := bsbmGraph(b, 1000).Decode()
	b.Run("stream-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			builder, err := rdfsum.NewBuilder(rdfsum.Weak)
			if err != nil {
				b.Fatal(err)
			}
			for _, t := range decoded {
				builder.Add(t)
			}
			builder.Summary()
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

// ntOptions loads plain N-Triples with the given worker count, nothing
// detected.
func ntOptions(workers int) *rdfsum.LoadOptions {
	return &rdfsum.LoadOptions{Workers: workers, Format: rdfsum.FormatNTriples, Compression: rdfsum.CompressionNone}
}

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

// BenchmarkLoadNTriples compares the sequential load-and-encode path with
// the parallel ingestion pipeline at growing worker counts, on ~290k
// BSBM triples (products=5000).
func BenchmarkLoadNTriples(b *testing.B) {
	data := ntData(b, 5000)
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			g := rdfsum.EmptyGraph()
			if err := rdfsum.ParseStream(bytes.NewReader(data), func(t rdfsum.Triple) error {
				g.Add(t)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel/workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := rdfsum.Load(bytes.NewReader(data), ntOptions(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadNTriples1M is the acceptance benchmark for the parallel
// ingestion pipeline: a ≥1M-triple BSBM input (products=17500 ≈ 1.01M
// triples), sequential vs 4 and 8 workers. Skipped under -short — the
// dataset generation alone takes tens of seconds.
func BenchmarkLoadNTriples1M(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-triple load benchmark skipped in -short mode")
	}
	data := ntData(b, 17500)
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := rdfsum.Load(bytes.NewReader(data), ntOptions(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{4, 8} {
		b.Run(fmt.Sprintf("parallel/workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := rdfsum.Load(bytes.NewReader(data), ntOptions(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadNTriplesLUBM is the cross-dataset load check (≈33k triples,
// 10 universities).
func BenchmarkLoadNTriplesLUBM(b *testing.B) {
	g := rdfsum.GenerateLUBM(10)
	var buf bytes.Buffer
	if err := ntriples.Write(&buf, g.Decode()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := rdfsum.Load(bytes.NewReader(data), ntOptions(workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamingIngest is the streaming-ingest acceptance number: a
// cold compressed dump on disk to a serving summary. Each iteration is
// what rdfsumd does between boot and its first answered query — open
// the file, decode gzip as a streaming stage feeding the parallel
// loader, and build the weak summary. Measured for gzipped N-Triples
// and gzipped Turtle (~58k triples, BSBM products=1000); bytes/op
// reports decoded throughput.
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
			f, err := os.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			zw, err := rdfsum.NewCompressionWriter(f, rdfsum.CompressionGzip)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := zw.Write(plain.Bytes()); err != nil {
				b.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
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
		})
	}
}

// BenchmarkSeedBoot is rdfsumd's cold boot as benchmark/ times it, in
// process: load an N-Triples dump (sequentially, as the pinned harness
// does), open a fresh durable store seeded with it — builders, base
// run, snapshot-1, epoch 1 — then warm what the first query of each
// template builds: the weak summary, its pruner and the planner weights.
// BSBM 3000 products ≈ 170k triples (1000 ≈ 58k under -short).
// `make boot-profile` runs it under the CPU profiler.
func BenchmarkSeedBoot(b *testing.B) {
	products := 3000
	if testing.Short() {
		products = 1000
	}
	data := ntData(b, products)
	dump := filepath.Join(b.TempDir(), "dump.nt")
	if err := os.WriteFile(dump, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := rdfsum.LoadFile(dump, &rdfsum.LoadOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		lv, err := rdfsum.OpenLive(filepath.Join(b.TempDir(), fmt.Sprintf("store-%d", i)), &rdfsum.LiveOptions{Seed: g})
		if err != nil {
			b.Fatal(err)
		}
		sum, _, err := lv.Summary(rdfsum.Weak, 0)
		if err != nil {
			b.Fatal(err)
		}
		rdfsum.NewQueryPruner(sum)
		sum.ComputeWeights()
		if err := lv.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSaturate(b *testing.B) {
	for _, products := range benchSizes {
		g := bsbmGraph(b, products)
		b.Run(fmt.Sprintf("products=%d", products), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rdfsum.Saturate(g)
			}
		})
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	g := bsbmGraph(b, 1000)
	for i := 0; i < b.N; i++ {
		store.NewIndex(g)
	}
}

// --- query engine benchmarks -----------------------------------------------
//
// The compile/execute engine: BSBM and LUBM query mixes, planned (summary
// Weights drive the static join order) vs. greedy (runtime index counts
// only), and pruned (saturated-summary emptiness gate) vs. unpruned.

// bsbmQueryMix is a BSBM-shaped BGP workload: star joins over offers,
// chain joins through reviews, and a type-constrained lookup.
var bsbmQueryMix = []string{
	`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
	 SELECT ?p ?v WHERE {
		?o bsbm:product ?p .
		?o bsbm:vendor ?v .
		?r bsbm:reviewFor ?p .
		?r bsbm:rating1 ?score
	 }`,
	`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
	 SELECT ?p ?c WHERE {
		?p bsbm:producer ?pr .
		?o bsbm:product ?p .
		?o bsbm:price ?c
	 }`,
	`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
	 SELECT ?r ?d WHERE { ?r bsbm:reviewFor ?p . ?r bsbm:reviewDate ?d }`,
	`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
	 PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
	 SELECT ?p WHERE { ?p rdf:type bsbm:Product . ?p bsbm:producer ?x }`,
}

// lubmQueryMix exercises the university workload: hierarchical joins and
// a triangle (student — advisor — department).
var lubmQueryMix = []string{
	`PREFIX ub: <http://lubm.example.org/univ-bench.owl#>
	 SELECT ?x ?u WHERE { ?x ub:headOf ?d . ?d ub:subOrganizationOf ?u }`,
	`PREFIX ub: <http://lubm.example.org/univ-bench.owl#>
	 SELECT ?s WHERE { ?s ub:memberOf ?d . ?s ub:advisor ?p . ?p ub:worksFor ?d }`,
	`PREFIX ub: <http://lubm.example.org/univ-bench.owl#>
	 SELECT ?s ?c WHERE {
		?x ub:worksFor ?d .
		?x ub:teacherOf ?c .
		?s ub:advisor ?x .
		?s ub:takesCourse ?c
	 }`,
}

// bsbmEmptyMix is provably-empty on G∞: the pattern combinations cross
// disjoint entity kinds (offers never carry review properties), which the
// weak summary's saturated form detects.
var bsbmEmptyMix = []string{
	`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
	 SELECT ?o WHERE { ?o bsbm:price ?x . ?o bsbm:reviewDate ?d }`,
	`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
	 SELECT ?p WHERE { ?p bsbm:producer ?x . ?p bsbm:reviewFor ?r }`,
	`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
	 SELECT ?o WHERE { ?o bsbm:vendor ?v . ?o bsbm:rating1 ?s }`,
}

func parseMix(b *testing.B, texts []string) []*rdfsum.Query {
	b.Helper()
	qs := make([]*rdfsum.Query, len(texts))
	for i, text := range texts {
		q, err := rdfsum.ParseQuery(text)
		if err != nil {
			b.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// runEngineMix evaluates the whole mix once per iteration under the given
// options, so planned-vs-greedy compares on identical work.
func runEngineMix(b *testing.B, g *rdfsum.Graph, ix *rdfsum.Index, qs []*rdfsum.Query, opts *rdfsum.QueryOptions) {
	b.Helper()
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = 0
		for _, q := range qs {
			res, err := rdfsum.EvalQueryWithOptions(g, ix, q, opts)
			if err != nil {
				b.Fatal(err)
			}
			rows += len(res.Rows)
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkQueryEngineBSBM: the BSBM mix, greedy (runtime index counts
// only) vs. planned (weak-summary Weights choose the static join order).
func BenchmarkQueryEngineBSBM(b *testing.B) {
	g := bsbmGraph(b, 1000)
	ix := rdfsum.NewIndex(g)
	qs := parseMix(b, bsbmQueryMix)
	s, err := rdfsum.Summarize(g, rdfsum.Weak)
	if err != nil {
		b.Fatal(err)
	}
	w := s.ComputeWeights()
	b.Run("greedy", func(b *testing.B) {
		runEngineMix(b, g, ix, qs, &rdfsum.QueryOptions{})
	})
	b.Run("planned", func(b *testing.B) {
		runEngineMix(b, g, ix, qs, &rdfsum.QueryOptions{Stats: w})
	})
}

// BenchmarkQueryEngineLUBM: the university mix on the saturation-heavy
// dataset (evaluated on G, the explicit triples).
func BenchmarkQueryEngineLUBM(b *testing.B) {
	g := rdfsum.GenerateLUBM(4)
	ix := rdfsum.NewIndex(g)
	qs := parseMix(b, lubmQueryMix)
	s, err := rdfsum.Summarize(g, rdfsum.TypedWeak)
	if err != nil {
		b.Fatal(err)
	}
	w := s.ComputeWeights()
	b.Run("greedy", func(b *testing.B) {
		runEngineMix(b, g, ix, qs, &rdfsum.QueryOptions{})
	})
	b.Run("planned", func(b *testing.B) {
		runEngineMix(b, g, ix, qs, &rdfsum.QueryOptions{Stats: w})
	})
}

// BenchmarkQueryPruningBSBM: provably-empty queries, evaluated against the
// full graph vs. short-circuited by the weak-summary pruning gate (gate
// construction is outside the timed loop, as in a serving process).
func BenchmarkQueryPruningBSBM(b *testing.B) {
	g := bsbmGraph(b, 1000)
	ix := rdfsum.NewIndex(g)
	qs := parseMix(b, bsbmEmptyMix)
	s, err := rdfsum.Summarize(g, rdfsum.Weak)
	if err != nil {
		b.Fatal(err)
	}
	pruner := rdfsum.NewQueryPruner(s)
	for _, q := range qs {
		if !pruner.ProvablyEmpty(q) {
			b.Fatalf("benchmark query not pruned by the weak summary: %s", q)
		}
	}
	b.Run("unpruned", func(b *testing.B) {
		runEngineMix(b, g, ix, qs, &rdfsum.QueryOptions{})
	})
	b.Run("pruned", func(b *testing.B) {
		runEngineMix(b, g, ix, qs, &rdfsum.QueryOptions{Pruner: pruner})
	})
}

// BenchmarkQueryCompile: the per-query planning cost a serving process
// pays before execution (or amortizes via CompileQuery).
func BenchmarkQueryCompile(b *testing.B) {
	g := bsbmGraph(b, 1000)
	qs := parseMix(b, bsbmQueryMix)
	s, err := rdfsum.Summarize(g, rdfsum.Weak)
	if err != nil {
		b.Fatal(err)
	}
	w := s.ComputeWeights()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			if _, err := rdfsum.CompileQuery(g, q, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCardinalityEstimation: the summary-based whole-query estimator
// over the committed mixes — ns/op is the planning-time cost of estimating
// the mix, and the custom metrics report its accuracy as q-error
// (max(est/actual, actual/est), floored at one row) against the true
// number of embeddings, measured once per mix outside the timed loop.
func BenchmarkCardinalityEstimation(b *testing.B) {
	mixes := []struct {
		name  string
		graph *rdfsum.Graph
		kind  rdfsum.Kind
		mix   []string
	}{
		{"bsbm", bsbmGraph(b, 1000), rdfsum.Weak, bsbmQueryMix},
		{"lubm", rdfsum.GenerateLUBM(4), rdfsum.TypedWeak, lubmQueryMix},
	}
	for _, m := range mixes {
		b.Run(m.name, func(b *testing.B) {
			s, err := rdfsum.Summarize(m.graph, m.kind)
			if err != nil {
				b.Fatal(err)
			}
			w := s.ComputeWeights()
			ix := rdfsum.NewIndex(m.graph)
			qs := parseMix(b, m.mix)

			// Accuracy: q-error of the whole-query estimate vs. the exact
			// embedding count (all body variables projected).
			qerrs := make([]float64, 0, len(qs))
			for _, q := range qs {
				full := &rdfsum.Query{Patterns: q.Patterns}
				res, err := rdfsum.EvalQueryWithOptions(m.graph, ix, full,
					&rdfsum.QueryOptions{Stats: w, Explain: true})
				if err != nil {
					b.Fatal(err)
				}
				est, act := float64(res.Explain.QueryEst), float64(len(res.Rows))
				if est < 1 {
					est = 1
				}
				if act < 1 {
					act = 1
				}
				qe := est / act
				if qe < 1 {
					qe = 1 / qe
				}
				qerrs = append(qerrs, qe)
			}
			sort.Float64s(qerrs)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					if _, err := rdfsum.CompileQuery(m.graph, q, w); err != nil {
						b.Fatal(err)
					}
				}
			}
			// After the timed loop: ResetTimer clears custom metrics.
			b.ReportMetric(qerrs[len(qerrs)/2], "qerr-median")
			b.ReportMetric(qerrs[len(qerrs)-1], "qerr-max")
		})
	}
}

func BenchmarkQueryEval(b *testing.B) {
	g := bsbmGraph(b, 1000)
	ix := rdfsum.NewIndex(g)
	q, err := rdfsum.ParseQuery(`
		PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
		SELECT ?p ?v WHERE {
			?o bsbm:product ?p .
			?o bsbm:vendor ?v .
			?r bsbm:reviewFor ?p .
			?r bsbm:rating1 ?score
		}`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rdfsum.EvalQueryIndexed(g, ix, q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("expected answers")
		}
	}
}

// --- live-update subsystem benchmarks --------------------------------------
//
// The write path (WAL append + fsync + apply + epoch publication) and the
// recovery path (replay on open). Batches are the group-commit unit, so
// triples/s scales with batch size; the fsync variants bound the
// durability tax on this machine's storage.

// liveBatches slices a BSBM graph's triples into ingest batches.
func liveBatches(b *testing.B, products, batchSize int) [][]rdfsum.Triple {
	b.Helper()
	decoded := bsbmGraph(b, products).Decode()
	var out [][]rdfsum.Triple
	for i := 0; i < len(decoded); i += batchSize {
		out = append(out, decoded[i:min(i+batchSize, len(decoded))])
	}
	return out
}

// BenchmarkLiveIngest measures ingesting ~12k BSBM triples in 1k-triple
// batches: memory-only (pure apply+publish cost), WAL without fsync
// (logging cost), and WAL with fsync per batch (full durability).
func BenchmarkLiveIngest(b *testing.B) {
	batches := liveBatches(b, 200, 1024)
	total := 0
	for _, bt := range batches {
		total += len(bt)
	}
	run := func(b *testing.B, open func() (*rdfsum.Live, error)) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			lv, err := open()
			if err != nil {
				b.Fatal(err)
			}
			for _, bt := range batches {
				if err := lv.AddBatch(bt); err != nil {
					b.Fatal(err)
				}
			}
			if lv.Snapshot().Graph.NumEdges() != total {
				b.Fatal("ingest lost triples")
			}
			lv.Close()
		}
		b.ReportMetric(float64(total), "triples")
	}
	b.Run("memory", func(b *testing.B) {
		run(b, func() (*rdfsum.Live, error) { return rdfsum.NewLive(nil), nil })
	})
	b.Run("wal-nosync", func(b *testing.B) {
		run(b, func() (*rdfsum.Live, error) {
			return rdfsum.OpenLive(b.TempDir(), &rdfsum.LiveOptions{NoSync: true})
		})
	})
	b.Run("wal-fsync", func(b *testing.B) {
		run(b, func() (*rdfsum.Live, error) {
			return rdfsum.OpenLive(b.TempDir(), nil)
		})
	})
}

// BenchmarkLiveIngestTiered isolates the publish cost the tiered index
// bounds: a memory-only live store is pre-loaded to 1x/10x/100x the base
// size, then the benchmark measures AddBatch of a fixed 1k-triple batch.
// Under the PR-3 linear index merge this grew with the total graph
// (O(n + k log k) per batch); with tiered delta runs it is ~flat across
// the three sizes — per-batch work depends on the batch, not the store.
func BenchmarkLiveIngestTiered(b *testing.B) {
	const (
		batchSize = 1024
		baseSize  = 10_000
	)
	for _, mult := range []int{1, 10, 100} {
		preload := baseSize * mult
		b.Run(fmt.Sprintf("preloaded=%d", preload), func(b *testing.B) {
			lv := rdfsum.NewLive(nil)
			defer lv.Close()
			fed := 0
			for batchNo := 0; fed < preload; batchNo++ {
				batch := incBatch(batchNo, batchSize)
				if err := lv.AddBatch(batch); err != nil {
					b.Fatal(err)
				}
				fed += len(batch)
			}
			// Measure with one fixed batch whose terms are interned up
			// front, so the loop times the apply+publish path (graph
			// append, summary maintenance, delta-run publish) rather
			// than dictionary growth.
			batch := incBatch(1_000_000, batchSize)
			if err := lv.AddBatch(batch); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lv.AddBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batchSize), "triples/batch")
			b.ReportMetric(float64(lv.Stats().IndexRuns), "index-runs")
		})
	}
}

// BenchmarkLiveDelete measures a 64-triple delete batch against a ~58k
// store: the WAL record, the copy-on-write component compaction, the
// exact summary decrements and the tombstone-run publish.
func BenchmarkLiveDelete(b *testing.B) {
	decoded := bsbmGraph(b, 1000).Decode()
	lv := rdfsum.NewLive(rdfsum.NewGraph(decoded))
	defer lv.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := (i * 64) % (len(decoded) - 64)
		if _, err := lv.DeleteBatch(decoded[start : start+64]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(64, "triples/batch")
}

// BenchmarkWALReplay measures crash-recovery speed: reopening a store
// whose state lives entirely in the WAL (~12k triples), which replays
// every record into the graph, the incremental weak summary, and the
// first epoch's index.
func BenchmarkWALReplay(b *testing.B) {
	dir := b.TempDir()
	lv, err := rdfsum.OpenLive(dir, &rdfsum.LiveOptions{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, bt := range liveBatches(b, 200, 1024) {
		if err := lv.AddBatch(bt); err != nil {
			b.Fatal(err)
		}
		total += len(bt)
	}
	if err := lv.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := rdfsum.OpenLive(dir, &rdfsum.LiveOptions{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		if re.Snapshot().Graph.NumEdges() != total {
			b.Fatal("replay lost triples")
		}
		re.Close()
	}
	b.ReportMetric(float64(total), "triples")
}

func BenchmarkSnapshotRoundTrip(b *testing.B) {
	g := bsbmGraph(b, 200)
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := store.WriteSnapshot(&buf, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := store.ReadSnapshot(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

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
					builder, err := rdfsum.NewBuilderWithGraph(kind, g.CloneStructure())
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
			builder, err := rdfsum.NewBuilderWithGraph(kind, rdfsum.NewGraph(base))
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
			builder, err := rdfsum.NewBuilderWithGraph(kind, rdfsum.NewGraph(base))
			if err != nil {
				b.Fatal(err)
			}
			for _, t := range incBatch(0, batchSize) {
				builder.Add(t)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				builder.Summary()
			}
			if builder.Rebuilds() != 0 {
				b.Fatalf("%v: unexpected maintenance rebuilds", kind)
			}
		})
	}
}

// BenchmarkWALReplayMaintained is BenchmarkWALReplay with every summary
// kind maintained: recovery replays each record into the graph, all five
// incremental builders, and the first epoch's index.
func BenchmarkWALReplayMaintained(b *testing.B) {
	dir := b.TempDir()
	opts := &rdfsum.LiveOptions{NoSync: true, Maintain: rdfsum.Kinds}
	lv, err := rdfsum.OpenLive(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	total := 0
	for _, bt := range liveBatches(b, 200, 1024) {
		if err := lv.AddBatch(bt); err != nil {
			b.Fatal(err)
		}
		total += len(bt)
	}
	if err := lv.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := rdfsum.OpenLive(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if re.Snapshot().Graph.NumEdges() != total {
			b.Fatal("replay lost triples")
		}
		re.Close()
	}
	b.ReportMetric(float64(total), "triples")
}
