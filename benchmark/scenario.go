package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"rdfsum"
	"rdfsum/client"
)

// Harness and rdfsumd are pinned to one CPU (see pinToOneCPU): client
// and server take turns on it instead of competing for a second one
// that is not reliably there. The harness runs with GOMAXPROCS=1;
// rdfsumd gets one P per connection the workload keeps in flight (see
// workload.connections).
const harnessProcs = 1

// runConfig is one invocation: a workload, a seed, a time budget.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64 // --seconds: scales the fixed-duration windows
	trace   bool
	bin     string    // built rdfsumd
	outDir  string    // scratch and trace files, inside the checkout
	log     io.Writer // progress, for people
}

type opCount struct{ attempted, failed int }

// report is what a run found.
type report struct {
	hash string
	e2e  map[string]float64
	// layers holds the per-layer metrics. The rdfsumd.* timings of the
	// windows, boots and cycles are in it after every run; the rest needs
	// a traced run.
	layers   map[string]float64
	samples  map[string]int // how many samples each metric family rests on
	ops      map[string]*opCount
	failures []string // first few, for the log
	notes    []string
	spans    []span
}

func (r *report) attempted() (n int) {
	for _, c := range r.ops {
		n += c.attempted
	}
	return n
}

func (r *report) failed() (n int) {
	for _, c := range r.ops {
		n += c.failed
	}
	return n
}

// scenario is the state of one run in flight.
type scenario struct {
	runConfig
	rep    *report
	mu     sync.Mutex // guards rep.ops and rep.failures
	runDir string
	in     *inputs
	or     *oracle
	nAdds  int    // add batches in the write window
	delOf  []bool // delOf[i]: the scenario deletes add batch i again
	tr     *tracer
	rssMB  float64 // max VmHWM over every child of the run

	readDiff, writeDiff, runDiff scrapeDiff // traced runs
	sampled                      []sampledRequest
}

// sampledRequest is a read-window request the traced run replays
// in-process afterwards.
type sampledRequest struct {
	req       int
	poolIndex int
	roundtrip time.Duration
}

// count records one attempted operation; a non-nil err makes it failed.
func (s *scenario) count(op string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.rep.ops[op]
	if c == nil {
		c = &opCount{}
		s.rep.ops[op] = c
	}
	c.attempted++
	if err != nil {
		c.failed++
		if len(s.rep.failures) < 10 {
			s.rep.failures = append(s.rep.failures, op+": "+err.Error())
		}
	}
}

func (s *scenario) logf(format string, a ...any) {
	fmt.Fprintf(s.log, format+"\n", a...)
}

// phase runs fn under the per-phase timeout and logs how long it took.
func (s *scenario) phase(ctx context.Context, name string, fn func(ctx context.Context) error) error {
	ctx, cancel := context.WithTimeout(ctx, phaseTimeout)
	defer cancel()
	t0 := time.Now()
	if err := fn(ctx); err != nil {
		return fmt.Errorf("phase %s: %w", name, err)
	}
	s.logf("  phase %-12s %7.2f s", name, time.Since(t0).Seconds())
	return nil
}

// runScenario executes every phase of one workload and returns the
// report. An error means the run could not complete; wrong answers are
// not errors but failed operations in the report.
func runScenario(ctx context.Context, rc runConfig) (rep *report, err error) {
	s := &scenario{runConfig: rc, rep: &report{
		e2e: map[string]float64{}, layers: map[string]float64{}, samples: map[string]int{}, ops: map[string]*opCount{},
	}}
	if rc.trace {
		s.tr = newTracer()
	}
	s.runDir = filepath.Join(rc.outDir, fmt.Sprintf("run-%s-%d-%d", rc.w.name, rc.seed, os.Getpid()))
	if err := os.MkdirAll(s.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.runDir)

	readWindow := time.Duration(rc.seconds * rc.w.readShare * float64(time.Second))
	s.nAdds = rc.w.adds
	if rc.w.writeRate > 0 {
		s.nAdds = int(rc.w.writeRate * readWindow.Seconds())
	}

	// Phase 0: inputs, then the oracle. Neither is part of setup_s: they
	// are the harness's own work, the same at every commit (a change that
	// claims a gain may not edit the benchmark), so counting them would
	// only dilute a change in rdfsumd's set-up and add a one-shot timing's
	// noise to it. The phase lines of the output show what they took.
	if err := s.phase(ctx, "generate", func(context.Context) error {
		s.in, err = generateInputs(&s.w, s.seed, s.nAdds+cycleRepeats*cycleAdds, s.runDir)
		return err
	}); err != nil {
		return nil, err
	}
	s.rep.hash = s.in.hash
	s.delOf = make([]bool, len(s.in.batches))
	for i := 0; i < min(s.w.deletes, s.nAdds); i++ {
		s.delOf[i] = true
	}
	if err := s.phase(ctx, "oracle", func(context.Context) error {
		s.or, err = computeOracle(&s.w, s.in, s.nAdds, s.delOf)
		return err
	}); err != nil {
		return nil, err
	}
	baseTriples := len(s.in.base)
	s.in.base = nil // the dump on disk is what the server loads
	runtime.GC()
	debug.FreeOSMemory()

	// Phase 1: a cold boot. setup_s and rdfsumd.ready_s are the median of
	// three boots, each the whole dump-to-warm path in a fresh store
	// directory; only this first one serves the run. The other two are
	// spread over the rest of the run — one after the windows, one at the
	// very end — so that one burst of interference cannot slow two of them.
	var srv *child
	defer func() {
		if err != nil && srv != nil {
			// The server's stderr is kept only when the run failed.
			err = fmt.Errorf("%w\nrdfsumd log ends:\n%s", err, srv.logTail())
		}
		srv.stop()
	}()
	var bootS, readyS []float64
	boot := func(ctx context.Context) (c *child, dir string, err error) {
		dir = filepath.Join(s.runDir, fmt.Sprintf("store-%d", len(bootS)))
		c, ready, warm, err := s.boot(ctx, dir, len(bootS))
		if err != nil {
			return nil, "", err
		}
		readyS = append(readyS, ready.Seconds())
		bootS = append(bootS, warm.Seconds())
		return c, dir, nil
	}
	// spareBoot is one more cold boot for setup_s, thrown away at once. A
	// traced run's result line carries no setup_s, so it boots once.
	spareBoot := func() error {
		if rc.trace {
			return nil
		}
		return s.phase(ctx, "spare boot", func(ctx context.Context) error {
			c, dir, err := boot(ctx)
			if err != nil {
				return err
			}
			s.stopChild(c)
			return os.RemoveAll(dir)
		})
	}
	var storeDir string
	if err := s.phase(ctx, "boot", func(ctx context.Context) error {
		srv, storeDir, err = boot(ctx)
		return err
	}); err != nil {
		return nil, err
	}

	var runStart scrape
	if rc.trace {
		if runStart, err = srv.scrapeMetrics(ctx); err != nil {
			return nil, err
		}
	}

	// Phases 2 and 3: read window, write window (overlapping on a mixed
	// workload).
	if err := s.phase(ctx, "read+write", func(ctx context.Context) error {
		return s.readAndWrite(ctx, srv, readWindow)
	}); err != nil {
		return nil, err
	}

	if err := spareBoot(); err != nil {
		return nil, err
	}

	// Phases 4 and 5: compaction and the five summaries, in cycles.
	if err := s.phase(ctx, "cycles", func(ctx context.Context) error { return s.cycles(ctx, srv) }); err != nil {
		return nil, err
	}

	// Final state: the triple count must equal the oracle's; size on
	// disk and resident high-water mark are read off the process.
	if err := s.phase(ctx, "final", func(ctx context.Context) error {
		st, err := srv.cl.Stats(ctx)
		if err == nil && st.Triples != s.or.finalTriples {
			err = fmt.Errorf("server holds %d triples, oracle says %d (base %d)", st.Triples, s.or.finalTriples, baseTriples)
		}
		s.count("stats", err)
		disk, err := dirBytes(storeDir)
		if err != nil {
			return err
		}
		s.rep.e2e["disk_bytes_per_triple"] = float64(disk) / float64(s.or.finalTriples)
		if rc.trace {
			end, err := srv.scrapeMetrics(ctx)
			if err != nil {
				return err
			}
			s.runDiff = scrapeDiff{runStart, end}
		}
		s.stopChild(srv)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := spareBoot(); err != nil {
		return nil, err
	}
	s.rep.e2e["setup_s"] = median(bootS)
	s.rep.layers["rdfsumd.ready_s"] = median(readyS)
	s.rep.e2e["peak_rss_mb"] = s.rssMB
	s.rep.samples["boots"] = len(bootS)
	s.logf("  boots: exec→warm %.3f s, exec→first answer %.3f s", bootS, readyS)

	if rc.trace {
		if err := s.phase(ctx, "layers", s.collectLayers); err != nil {
			return nil, err
		}
		s.rep.spans = s.tr.finish()
	}
	return s.rep, nil
}

// stopChild notes the child's memory high-water mark, then kills it.
func (s *scenario) stopChild(c *child) {
	if mb, err := c.peakRSSMB(); err == nil {
		s.logf("  rdfsumd pid %d: VmHWM %.1f MB", c.cmd.Process.Pid, mb)
		s.rssMB = max(s.rssMB, mb)
	}
	c.stop()
}

// boot is one cold start: exec rdfsumd on a fresh store seeded from the
// dump, wait for health, answer one query (ready), restart onto the
// mapped snapshot if the workload says so, then answer one query of
// each template so the lazy pruner and plan statistics exist (warm).
func (s *scenario) boot(ctx context.Context, storeDir string, n int) (c *child, ready, warm time.Duration, err error) {
	logPath := filepath.Join(s.runDir, fmt.Sprintf("rdfsumd-%d.log", n))
	c, err = startServer(ctx, s.bin, logPath, s.w.connections(), "-live", storeDir, "-in", s.in.dumpPath, "-maintain", s.w.maintain)
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := c.started
	s.query(ctx, c, s.in.order[0], nil)
	ready = time.Since(t0)
	if s.w.mapped {
		// The seed was compacted into snapshot generation 1 at first open;
		// a restart serves it as the index's mapped base run.
		s.stopChild(c)
		if c, err = startServer(ctx, s.bin, logPath+".2", s.w.connections(), "-live", storeDir, "-maintain", s.w.maintain); err != nil {
			return nil, 0, 0, err
		}
	}
	seen := map[string]bool{}
	for i, pq := range s.in.pool {
		if !seen[pq.template] {
			seen[pq.template] = true
			s.query(ctx, c, i, nil)
		}
	}
	return c, ready, time.Since(t0), nil
}

// query sends pool query i and checks the answer against the oracle:
// exact row count, or — while the writer adds — between the base-state
// count and the count with every add applied (BGP answers are monotone
// under adds) with a non-decreasing epoch; floor, when given, is the
// highest epoch this connection has seen. It returns the round-trip time.
func (s *scenario) query(ctx context.Context, c *child, i int, floor *uint64) time.Duration {
	t0 := time.Now()
	res, err := c.cl.Query(ctx, s.in.pool[i].text, &client.QueryOptions{Limit: s.w.limit})
	d := time.Since(t0)
	if err == nil {
		lo, hi := s.or.baseRows[i], s.or.baseRows[i]
		if floor != nil && s.or.peakRows != nil {
			hi = s.or.peakRows[i]
		}
		switch {
		case res.Count != len(res.Rows):
			err = fmt.Errorf("count %d but %d rows", res.Count, len(res.Rows))
		case res.Count < lo || res.Count > hi:
			err = fmt.Errorf("%s query returned %d rows, oracle says [%d, %d]: %s", s.in.pool[i].template, res.Count, lo, hi, s.in.pool[i].text)
		case floor != nil && res.Epoch < *floor:
			err = fmt.Errorf("epoch went backwards: %d after %d", res.Epoch, *floor)
		}
		if floor != nil {
			*floor = max(*floor, res.Epoch)
		}
	}
	s.count("query", err)
	return d
}

type querySample struct {
	timed
	span bool // recorded as a client.roundtrip span
}

// closedLoop queries the server over one connection until the deadline,
// sending the next query of the fixed sequence only when the previous
// one was answered. Requests that start at or after spansFrom are each
// a client.roundtrip span and are kept for in-process replay.
func (s *scenario) closedLoop(ctx context.Context, c *child, start time.Time, dur, spansFrom time.Duration) []querySample {
	var out []querySample
	var floor uint64
	for n := 0; ctx.Err() == nil && time.Since(start) < dur; n++ {
		i := s.in.order[n%len(s.in.order)]
		spans := time.Since(start) >= spansFrom
		var id int
		if spans {
			id = s.tr.begin("client.roundtrip", 0, n+1)
		}
		lat := s.query(ctx, c, i, &floor)
		if spans {
			s.tr.end(id)
			s.sampled = append(s.sampled, sampledRequest{req: n + 1, poolIndex: i, roundtrip: lat})
		}
		out = append(out, querySample{timed{time.Since(start), lat}, spans})
	}
	return out
}

// ingest sends add batch i over the one writer connection and checks
// the acknowledgement.
func (s *scenario) ingest(ctx context.Context, c *child, i int) {
	res, err := c.cl.IngestNTriples(ctx, bytes.NewReader(s.in.bodies[i]))
	if err == nil && res.Added != len(s.in.batches[i]) {
		err = fmt.Errorf("batch %d: %d triples acknowledged, %d sent", i, res.Added, len(s.in.batches[i]))
	}
	s.count("ingest", err)
}

// remove deletes add batch i again and returns the ack latency.
func (s *scenario) remove(ctx context.Context, c *child, i int) time.Duration {
	t0 := time.Now()
	res, err := c.cl.DeleteNTriples(ctx, bytes.NewReader(s.in.bodies[i]))
	d := time.Since(t0)
	if err == nil && res.Removed != len(s.in.batches[i]) {
		err = fmt.Errorf("batch %d: %d copies removed, %d triples sent", i, res.Removed, len(s.in.batches[i]))
	}
	s.count("delete", err)
	return d
}

// readAndWrite is phases 2 and 3.
func (s *scenario) readAndWrite(ctx context.Context, c *child, readWindow time.Duration) error {
	var before scrape
	var err error
	scrapeIf := func() (scrape, error) {
		if !s.trace {
			return nil, nil
		}
		return c.scrapeMetrics(ctx)
	}
	if before, err = scrapeIf(); err != nil {
		return err
	}

	// Traced runs record spans in the second half of the window only: the
	// difference between the halves' medians is what tracing costs.
	spansFrom := time.Duration(math.MaxInt64)
	if s.trace {
		spansFrom = readWindow / 2
	}
	var reads []querySample
	// The adds, cut by count into windowSlices equal slices.
	adds := make([]slice, windowSlices)
	sliceOf := func(i int) *slice { return &adds[i*windowSlices/s.nAdds] }

	if s.w.writeRate > 0 {
		// Mixed: one closed-loop reader; one open-loop writer connection
		// whose batches fall due whatever the server does. Batch i is due at
		// i/writeRate plus a seeded jitter of up to a quarter interval either
		// way: evenly spaced batches beat against the reader's own rebuild
		// cycle, and the median acknowledgement then depends on how the two
		// periods happen to align. (Poisson arrivals would leave gaps longer
		// than a rebuild, and the reader would no longer meet a fresh epoch
		// on every query.)
		interval := time.Duration(float64(time.Second) / s.w.writeRate)
		rng := rand.New(rand.NewPCG(s.seed, 0x09e7))
		dueAt := make([]time.Duration, s.nAdds)
		for i := 1; i < len(dueAt); i++ {
			dueAt[i] = time.Duration((float64(i) + rng.Float64()/2 - 0.25) * float64(interval))
		}
		start := time.Now()
		var writes []openLoopSample
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = runOpenLoop(ctx, wallClock, dueAt, func(i int) { s.ingest(ctx, c, i) })
		}()
		reads = s.closedLoop(ctx, c, start, readWindow, spansFrom)
		wg.Wait()
		if len(writes) < s.nAdds {
			return fmt.Errorf("open-loop writer stopped after %d of %d batches: %w", len(writes), s.nAdds, ctx.Err())
		}
		var late []time.Duration
		var sliceEnd time.Duration // a slice spans from its predecessor's last acknowledgement to its own
		for i, w := range writes {
			sl := sliceOf(i)
			sl.lat = append(sl.lat, w.latency)
			sl.work += float64(len(s.in.batches[i]))
			if i+1 == len(writes) || sliceOf(i+1) != sl {
				sl.span, sliceEnd = w.doneAt-sliceEnd, w.doneAt
			}
			late = append(late, w.lateness)
		}
		lateP90 := percentile(sortedCopy(millis(late)), 90)
		s.logf("  open loop: %d batches at %.0f/s, generator lateness p90 %.3f ms (%.1f %% of the %.0f ms interval)",
			len(writes), s.w.writeRate, lateP90, 100*lateP90/float64(interval.Milliseconds()), float64(interval.Milliseconds()))
		if lateP90 > 0.1*float64(interval.Milliseconds()) {
			s.rep.notes = append(s.rep.notes, fmt.Sprintf("open-loop lateness p90 %.3f ms exceeds 10 %% of the interval", lateP90))
		}
	} else {
		reads = s.closedLoop(ctx, c, time.Now(), readWindow, spansFrom)
	}
	if s.trace {
		var bare, traced []float64
		for _, r := range reads {
			if r.span {
				traced = append(traced, float64(r.lat)/float64(time.Millisecond))
			} else {
				bare = append(bare, float64(r.lat)/float64(time.Millisecond))
			}
		}
		s.rep.layers["trace.bare_query_p50_ms"] = median(bare)
		s.rep.layers["trace.traced_query_p50_ms"] = median(traced)
	}
	mid, err := scrapeIf()
	if err != nil {
		return err
	}
	s.readDiff = scrapeDiff{before, mid}

	// The write stream is fixed work over one connection: every add batch
	// back to back (on a mixed workload they already went out, open loop,
	// during the read window), then every delete batch.
	writeStart := time.Now()
	if s.w.writeRate == 0 {
		for i := 0; i < s.nAdds && ctx.Err() == nil; i++ {
			sl := sliceOf(i)
			t0 := time.Now()
			s.ingest(ctx, c, i)
			d := time.Since(t0)
			sl.lat = append(sl.lat, d)
			sl.work += float64(len(s.in.batches[i]))
			sl.span += d
		}
	}
	var deletes []time.Duration
	for i := 0; i < s.w.deletes && ctx.Err() == nil; i++ {
		deletes = append(deletes, s.remove(ctx, c, i))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	writeSpan := time.Since(writeStart)
	if s.trace {
		after, err := c.scrapeMetrics(ctx)
		if err != nil {
			return err
		}
		s.writeDiff = scrapeDiff{mid, after}
		st, err := c.cl.Stats(ctx)
		if err != nil {
			return err
		}
		s.rep.layers["store.index_runs_end"] = float64(st.IndexRuns)
		s.rep.layers["store.tombstones_end"] = float64(st.IndexTombstones)
	}

	ops := make([]timed, len(reads))
	for i, r := range reads {
		ops[i] = r.timed
	}
	queries := cutByTime(ops, readWindow, windowSlices)
	p50 := func(sl slice) float64 { return sl.percentile(50) }
	p90 := func(sl slice) float64 { return sl.percentile(90) }
	L := s.rep.layers
	L["rdfsumd.query_p50_ms"], L["rdfsumd.query_p90_ms"], L["rdfsumd.query_qps"] = sliceMedian(queries, p50), sliceMedian(queries, p90), sliceMedian(queries, slice.rate)
	L["rdfsumd.ingest_ack_p50_ms"], L["rdfsumd.ingest_ack_p90_ms"], L["rdfsumd.ingest_triples_per_s"] = sliceMedian(adds, p50), sliceMedian(adds, p90), sliceMedian(adds, slice.rate)
	// Deletes are too few to slice: the median of them all.
	L["rdfsumd.delete_ack_p50_ms"] = median(millis(deletes))
	s.rep.samples["queries"] = len(reads)
	s.rep.samples["ingest_batches"] = s.nAdds
	s.rep.samples["delete_batches"] = len(deletes)
	s.rep.samples["slices_per_window"] = windowSlices
	perSlice := func(sl []slice, f func(slice) float64) (out []float64) {
		for _, x := range sl {
			out = append(out, f(x))
		}
		return out
	}
	s.logf("  windows: read %.1f s (%d queries), write %.1f s (%d add + %d delete batches)",
		readWindow.Seconds(), len(reads), writeSpan.Seconds(), s.nAdds, len(deletes))
	s.logf("  slices: query p50 %.4f ms, qps %.1f; ingest p50 %.4f ms, triples/s %.0f",
		perSlice(queries, p50), perSlice(queries, slice.rate), perSlice(adds, p50), perSlice(adds, slice.rate))
	return nil
}

// cycles is phases 4 and 5, cycleRepeats times: a few more add batches
// (so the compaction has a WAL and delta runs to fold), POST
// /v1/compact, then GET /v1/summary for every kind. The last cycle's
// summaries are on the final state and must match the oracle's.
func (s *scenario) cycles(ctx context.Context, c *child) error {
	var compactS, summaryS []float64
	for j := 0; j < cycleRepeats; j++ {
		for k := 0; k < cycleAdds; k++ {
			s.ingest(ctx, c, s.nAdds+j*cycleAdds+k)
		}
		t0 := time.Now()
		_, err := c.cl.Compact(ctx)
		compactS = append(compactS, time.Since(t0).Seconds())
		s.count("compact", err)

		t0 = time.Now()
		for _, kind := range rdfsum.Kinds {
			info, err := c.cl.Summary(ctx, kind.String())
			if err == nil && j == cycleRepeats-1 {
				want := s.or.finalSummary[kind.String()]
				if got := (summaryCounts{info.DataNodes, info.AllNodes, info.DataEdges, info.AllEdges}); got != want {
					err = fmt.Errorf("%s summary is %+v, oracle says %+v", kind, got, want)
				}
			}
			s.count("summary", err)
		}
		summaryS = append(summaryS, time.Since(t0).Seconds())
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	s.rep.layers["rdfsumd.compact_s"] = median(compactS)
	s.rep.layers["rdfsumd.summary_all_s"] = median(summaryS)
	s.rep.samples["cycles"] = cycleRepeats
	s.logf("  cycles: compact %.3f s, five summaries %.3f s", compactS, summaryS)
	return nil
}
