// Command experiments regenerates the paper's evaluation (§7): for a sweep
// of BSBM dataset sizes it builds the four summaries and prints the series
// behind Figure 11 (data nodes / all nodes), Figure 12 (data edges / all
// edges) and Figure 13 (summarization time), plus the in-text compactness
// and ratio metrics.
//
// Usage:
//
//	experiments                      # full sweep, all figures
//	experiments -fig 13 -sizes 50000,100000,500000
//	experiments -csv results.csv
//
// The paper sweeps 10M–100M triples on a Postgres-backed Java prototype;
// the default sweep here is 50k–2M triples in-process. Raise -sizes for
// larger runs; everything scales linearly.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"rdfsum"
	"rdfsum/internal/bsbm"
	"rdfsum/internal/lubm"
)

// kinds are the summaries the paper evaluates (§7), enumerated from the
// library's kind table.
var kinds = rdfsum.PaperKinds

// datasetName labels the printed tables with the active workload.
var datasetName = "BSBM"

type row struct {
	triples int
	stats   map[rdfsum.Kind]rdfsum.Stats
	times   map[rdfsum.Kind]time.Duration
}

func main() {
	fig := flag.String("fig", "all", "figure to print: 11 | 12 | 13 | compact | ratios | pruning | all")
	sizes := flag.String("sizes", "50000,100000,250000,500000,1000000,2000000",
		"comma-separated target triple counts")
	seed := flag.Uint64("seed", 42, "dataset seed")
	dataset := flag.String("dataset", "bsbm", "workload: bsbm (the paper's) or lubm")
	csvPath := flag.String("csv", "", "also write every measurement to a CSV file")
	flag.Parse()

	var targets []int
	for _, s := range strings.Split(*sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad size %q", s))
		}
		targets = append(targets, n)
	}

	datasetName = strings.ToUpper(*dataset)

	if *fig == "pruning" {
		printPruning(targets, *dataset, *seed)
		return
	}

	rows := make([]row, 0, len(targets))
	for _, target := range targets {
		genStart := time.Now()
		g, scale, unit := generate(*dataset, target, *seed)
		fmt.Fprintf(os.Stderr, "generated %d triples (%d %s) in %v\n",
			g.NumEdges(), scale, unit, time.Since(genStart).Round(time.Millisecond))

		r := row{triples: g.NumEdges(),
			stats: map[rdfsum.Kind]rdfsum.Stats{},
			times: map[rdfsum.Kind]time.Duration{}}
		for _, kind := range kinds {
			start := time.Now()
			s, err := rdfsum.Summarize(g, kind)
			if err != nil {
				fatal(err)
			}
			r.times[kind] = time.Since(start)
			r.stats[kind] = s.Stats
		}
		rows = append(rows, r)
	}

	switch *fig {
	case "11":
		printFig11(rows)
	case "12":
		printFig12(rows)
	case "13":
		printFig13(rows)
	case "compact":
		printCompact(rows)
	case "ratios":
		printRatios(rows)
	case "all":
		printFig11(rows)
		printFig12(rows)
		printFig13(rows)
		printCompact(rows)
		printRatios(rows)
	default:
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}

	if *csvPath != "" {
		if err := writeCSV(*csvPath, rows); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}

// generate builds the requested workload at roughly target triples,
// returning the graph, the scale factor used and its unit name.
func generate(dataset string, target int, seed uint64) (*rdfsum.Graph, int, string) {
	switch dataset {
	case "bsbm":
		products := bsbm.EstimateProducts(target)
		cfg := bsbm.DefaultConfig(products)
		cfg.Seed = seed
		return bsbm.GenerateGraph(cfg), products, "products"
	case "lubm":
		unis := lubm.EstimateUniversities(target)
		cfg := lubm.DefaultConfig(unis)
		cfg.Seed = seed
		return lubm.GenerateGraph(cfg), unis, "universities"
	default:
		fatal(fmt.Errorf("unknown dataset %q (want bsbm or lubm)", dataset))
		return nil, 0, ""
	}
}

func header(title string) *tabwriter.Writer {
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(os.Stdout, 4, 4, 3, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "triples\t")
	for _, k := range kinds {
		fmt.Fprintf(tw, "%s\t", k)
	}
	fmt.Fprintln(tw)
	return tw
}

func series(title string, rows []row, value func(rdfsum.Stats, time.Duration) string) {
	tw := header(title)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t", r.triples)
		for _, k := range kinds {
			fmt.Fprintf(tw, "%s\t", value(r.stats[k], r.times[k]))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush() //nolint:errcheck
}

func printFig11(rows []row) {
	series(fmt.Sprintf("Figure 11 (top): number of data nodes in %s summaries", datasetName), rows,
		func(s rdfsum.Stats, _ time.Duration) string { return strconv.Itoa(s.DataNodes) })
	series(fmt.Sprintf("Figure 11 (bottom): number of all nodes (data + class) in %s summaries", datasetName), rows,
		func(s rdfsum.Stats, _ time.Duration) string { return strconv.Itoa(s.AllNodes) })
}

func printFig12(rows []row) {
	series(fmt.Sprintf("Figure 12 (top): number of data edges in %s summaries", datasetName), rows,
		func(s rdfsum.Stats, _ time.Duration) string { return strconv.Itoa(s.DataEdges) })
	series(fmt.Sprintf("Figure 12 (bottom): number of all edges in %s summaries", datasetName), rows,
		func(s rdfsum.Stats, _ time.Duration) string { return strconv.Itoa(s.AllEdges) })
}

func printFig13(rows []row) {
	series(fmt.Sprintf("Figure 13: summarization time (%s)", datasetName), rows,
		func(_ rdfsum.Stats, d time.Duration) string { return d.Round(time.Millisecond).String() })
}

func printCompact(rows []row) {
	series("Compactness (§7): |H|e / |G|e (paper: at most 0.028, best 2.8e-4)", rows,
		func(s rdfsum.Stats, _ time.Duration) string {
			return fmt.Sprintf("%.2e", s.CompressionRatio())
		})
}

func printRatios(rows []row) {
	title := "Ratios (§7): typed/weak data-node factor (paper: 5-50x), class nodes, data-node reduction"
	fmt.Printf("\n%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(os.Stdout, 4, 4, 3, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "triples\tTW/W nodes\tTS/S nodes\tclass nodes\tW reduction\tS reduction\t")
	for _, r := range rows {
		w, s := r.stats[rdfsum.Weak], r.stats[rdfsum.Strong]
		tw2, ts := r.stats[rdfsum.TypedWeak], r.stats[rdfsum.TypedStrong]
		fmt.Fprintf(tw, "%d\t%.1fx\t%.1fx\t%d\t%.0fx\t%.0fx\t\n",
			r.triples,
			ratio(tw2.DataNodes, w.DataNodes), ratio(ts.DataNodes, s.DataNodes),
			w.ClassNodes, w.DataNodeReduction(), s.DataNodeReduction())
	}
	tw.Flush() //nolint:errcheck
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func writeCSV(path string, rows []row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.Write([]string{"triples", "kind", "data_nodes", "all_nodes", "class_nodes",
		"data_edges", "all_edges", "compression", "build_ms"}); err != nil {
		return err
	}
	for _, r := range rows {
		for _, k := range kinds {
			s := r.stats[k]
			rec := []string{
				strconv.Itoa(r.triples), k.String(),
				strconv.Itoa(s.DataNodes), strconv.Itoa(s.AllNodes), strconv.Itoa(s.ClassNodes),
				strconv.Itoa(s.DataEdges), strconv.Itoa(s.AllEdges),
				fmt.Sprintf("%.3e", s.CompressionRatio()),
				fmt.Sprintf("%.1f", float64(r.times[k].Microseconds())/1000),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
