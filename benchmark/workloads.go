package main

import "time"

// workload is one parameter set of the single scenario every run
// follows (see README.md): generate → boot → read window → write
// window → compact/summary cycles → final checks.
type workload struct {
	name string
	why  string // one line; BENCHMARK.json carries the same text

	dataset  string // "bsbm" or "lubm" (internal/bsbm, internal/lubm, seeded by --seed)
	scale    int    // products or universities
	dumpName string // "dump.nt" or "dump.ttl.gz": what the server cold-loads
	maintain string // rdfsumd -maintain
	// mapped restarts the server after the cold load, so the read window
	// is served from the mmap'd v2 snapshot (mapped base run) and not
	// from the heap graph the loader built.
	mapped bool

	mix       string  // "probe" (bound lookups) or "scan" (whole joins and property scans)
	limit     int     // ?limit= on every query
	readShare float64 // read window = --seconds × readShare

	adds    int // add batches in the write window (mixed: derived from rate × window)
	addSize int // triples per batch
	deletes int // delete batches after the adds, each deleting one earlier add batch
	// writeRate > 0 makes the workload "mixed": the adds run open loop at
	// this many batches/s on one connection *during* the read window.
	writeRate float64
}

// Sizes come from probing this tree on a 2-vCPU sandbox and from the
// driver's cap (4+22×3 runs in 3420 s ⇒ ≈45 s per run, set-up and two
// builds included): datasets are ~170 k triples where ISSUE 12 sketched
// ~1 M, so that a cold boot (three per run, for setup_s) costs ≈1 s and
// not ≈5.5 s. Read windows are 15–20 s; every write stream is ≥3 s of
// fixed work, so the end state is identical run to run; every latency
// metric rests on ≥100 samples.
var workloads = []workload{
	{
		name:    "probe-bsbm",
		why:     "bound 3-pattern stars on heap-served BSBM: HTTP, parse, plan, prune and JSON dominate; per-epoch caches always hit",
		dataset: "bsbm", scale: 3000, dumpName: "dump.nt", maintain: "weak",
		mix: "probe", limit: 1000, readShare: 0.5,
		adds: 2500, addSize: 100, deletes: 100,
	},
	{
		name:    "scan-lubm",
		why:     "10k-row LUBM joins and property scans off the mmap'd snapshot after a ttl.gz cold load: executor, run iteration, row encoding dominate",
		dataset: "lubm", scale: 52, dumpName: "dump.ttl.gz", maintain: "weak", mapped: true,
		mix: "scan", limit: 10000, readShare: 0.5,
		adds: 1500, addSize: 150, deletes: 100,
	},
	{
		name:    "mixed-bsbm",
		why:     "one closed-loop reader while an open-loop writer publishes epochs faster than the per-epoch caches rebuild: every query pays pruner and weights",
		dataset: "bsbm", scale: 3000, dumpName: "dump.nt", maintain: "weak",
		mix: "probe", limit: 1000, readShare: 2.0 / 3,
		addSize: 50, deletes: 100, writeRate: 40,
	},
}

// connections is how many requests the workload keeps in flight — the
// reader's, plus the writer's when it runs alongside — and with that
// rdfsumd's GOMAXPROCS. With one P, a second request waits out the
// first's 10 ms Go time slice at each of its blocking points, and an
// acknowledgement measures the scheduler's quantum (11–18 ms here), not
// the write path (2 ms); with a spare P on a single connection the
// idle P's spinning costs the probe 10 % and steadiness.
func (w *workload) connections() int {
	if w.writeRate > 0 {
		return 2
	}
	return 1
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Fixed parts of the scenario, the same on every workload.
const (
	windowSlices  = 5  // a window's operations are cut into this many slices; its metrics are the median slice's
	cycleRepeats  = 3  // compact + five summaries, repeated; rdfsumd.compact_s and rdfsumd.summary_all_s are the median cycle's
	cycleAdds     = 10 // add batches before each cycle, so every compaction folds a non-empty WAL
	probePool     = 2000
	traceSamples  = 300 // requests replayed in-process per traced window
	phaseTimeout  = 120 * time.Second
	healthzPeriod = time.Millisecond
)

// smoke shrinks a workload to ~10 k triples and a handful of batches:
// the shape of a run in about a second, for the unit test.
func (w workload) smoke() workload {
	if w.dataset == "bsbm" {
		w.scale = 150
	} else {
		w.scale = 3
	}
	if w.adds > 0 {
		w.adds = 60
	}
	w.addSize = min(w.addSize, 50)
	w.deletes = min(w.deletes, 10)
	return w
}
