package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
)

// startBound is where a metric's regression bound starts before A/A
// runs widen it: 0.10 for timings and rates, 0.15 for set-up and tail
// latencies, 0.05 for resident memory, 0.01 for bytes on disk.
func startBound(name string) float64 {
	switch name {
	case "setup_s", "rdfsumd.query_p90_ms", "rdfsumd.ingest_ack_p90_ms":
		return 0.15
	case "peak_rss_mb":
		return 0.05
	case "disk_bytes_per_triple":
		return 0.01
	}
	return 0.10
}

// maxBound is the widest regression bound this benchmark commits to. A
// timing for which the rule asks more is not clipped to it: it is a
// per-layer metric.
const maxBound = 0.15

// aaCell is one workload × metric of the A/A table.
type aaCell struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Sets     [2]aaStats `json:"sets"`
	Disagree float64    `json:"disagreement"` // set B's median minus set A's, as a share of A's; positive = B worse
	Rule     float64    `json:"rule_bound"`   // max(start, 3 × the wider spread)
}

type aaStats struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
}

func newAACell(workload string, m metricSpec, a, b []float64) aaCell {
	cell := aaCell{Workload: workload, Metric: m.Name}
	for set, vs := range [][]float64{a, b} {
		q1, q2, q3 := quartiles(vs)
		cell.Sets[set] = aaStats{vs, q1, q2, q3, (q3 - q1) / math.Abs(q2)}
	}
	cell.Disagree = (cell.Sets[1].Median - cell.Sets[0].Median) / math.Abs(cell.Sets[0].Median)
	if m.Better == "higher" {
		cell.Disagree = -cell.Disagree
	}
	cell.Rule = max(startBound(m.Name), 3*max(cell.Sets[0].Spread, cell.Sets[1].Spread))
	return cell
}

// runAA is the self-check the driver's acceptance mirrors: two sets of
// N runs of every workload on the same N seeds, so that what differs
// between the sets is the host and not the inputs. Per end-to-end
// metric it prints the quartile spread of each set and whether the two
// medians agree — in either direction: the same code reading 20 %
// faster is as much noise as 20 % slower — within the bound
// BENCHMARK.json commits to; a spread above the bound marks the metric
// unresolved there. The rule's bound, max(start, 3 × the wider spread),
// is printed beside the committed one, and for the rdfsumd.* timings
// too: they are per-layer metrics because the rule asks more than
// maxBound for them, and this table is where that shows. Everything
// goes to out/aa.json. The exit code is non-zero when a pair of medians
// of an end-to-end metric disagrees by more than its bound or an
// operation failed.
func runAA(ctx context.Context, o options, stdout, stderr io.Writer) int {
	sp := o.spec
	var cells []aaCell
	rule := map[string]float64{}
	code := 0
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		if o.smoke {
			w = w.smoke()
		}
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < o.aa; i++ {
				seed := o.seed + uint64(i)
				rep, err := runScenario(ctx, runConfig{
					w: w, seed: seed, seconds: o.seconds, bin: o.bin, outDir: o.out, log: io.Discard,
				})
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				if rep.failed() > 0 {
					fmt.Fprintf(stderr, "benchmark: %s seed %d: %d failed operations: %v\n", w.name, seed, rep.failed(), rep.failures)
					code = 1
				}
				for _, values := range []map[string]float64{rep.e2e, rep.layers} {
					for name, v := range values {
						sets[set][name] = append(sets[set][name], v)
					}
				}
				fmt.Fprintf(stdout, "  ran %s set %c seed %d\n", w.name, 'A'+set, seed)
			}
		}
		fmt.Fprintf(stdout, "== %s: %d+%d runs\n", w.name, o.aa, o.aa)
		fmt.Fprintf(stdout, "  %-30s %12s %8s %12s %8s %9s %6s %6s\n", "metric", "median A", "spread", "median B", "spread", "B vs A", "rule", "bound")
		row := func(cell aaCell, bound, verdict string) {
			fmt.Fprintf(stdout, "  %-30s %12.4f %7.2f%% %12.4f %7.2f%% %+8.2f%% %6.2f %6s%s\n", cell.Metric,
				cell.Sets[0].Median, 100*cell.Sets[0].Spread, cell.Sets[1].Median, 100*cell.Sets[1].Spread, 100*cell.Disagree, cell.Rule, bound, verdict)
			rule[cell.Metric] = max(rule[cell.Metric], cell.Rule)
			cells = append(cells, cell)
		}
		for _, m := range sp.EndToEnd {
			cell := newAACell(w.name, m, sets[0][m.Name], sets[1][m.Name])
			verdict := ""
			switch wider := max(cell.Sets[0].Spread, cell.Sets[1].Spread); {
			case math.Abs(cell.Disagree) > m.Bound:
				verdict = "  DISAGREE"
				code = 1
			case wider > m.Bound && m.Name != "setup_s": // the driver exempts setup_s's spread, not its drift
				verdict = "  UNRESOLVED: spread above the bound"
			case wider > m.Bound/3:
				verdict = "  spread above a third of the bound"
			}
			row(cell, fmt.Sprintf("%.2f", m.Bound), verdict)
		}
		for _, m := range sp.PerLayer { // the ones an untraced run measures: the rdfsumd.* timings
			if len(sets[0][m.Name]) > 0 {
				row(newAACell(w.name, m, sets[0][m.Name], sets[1][m.Name]), "-", "")
			}
		}
	}
	fmt.Fprintf(stdout, "== the rule's bound, max(start, 3 × widest spread) over the workloads run; above %.2f a metric is per-layer\n", maxBound)
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(stdout, "  %-30s %.3f (committed %.2f)\n", m.Name, rule[m.Name], m.Bound)
	}
	for _, m := range sp.PerLayer {
		if r, ok := rule[m.Name]; ok {
			fmt.Fprintf(stdout, "  %-30s %.3f (per-layer)\n", m.Name, r)
		}
	}
	path := filepath.Join(o.out, "aa.json")
	if err := writeJSONFile(path, map[string]any{"rule_bounds": rule, "cells": cells, "env": environment(o)}); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "  wrote %s\n", path)
	return code
}
