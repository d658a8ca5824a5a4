package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rdfsum"
	"rdfsum/internal/query"
	"rdfsum/internal/store"
)

// collectLayers produces the per-layer metrics of a traced run. It runs
// after the server has been stopped, so nothing competes for the CPUs:
// the harness loads the same dump into its own Live store and drives
// each layer's public functions with the very inputs the server got,
// recording a span around each call; the stage series the server
// exports itself come from the /v1/metrics scrapes taken around each
// window. Layer names are this repository's packages.
func (s *scenario) collectLayers(ctx context.Context) error {
	L, tr := s.rep.layers, s.tr
	dir := filepath.Join(s.runDir, "replica")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	maintain := []rdfsum.Kind{rdfsum.Weak}
	if s.w.maintain == "all" {
		maintain = rdfsum.Kinds
	}
	var err error

	// load, compress, dict, store (index build).
	root := tr.begin("layers.load", 0, 0)
	var g *rdfsum.Graph
	d := tr.timed("load.File", root, 0, func() { g, err = rdfsum.LoadFile(s.in.dumpPath, nil) })
	if err != nil {
		return err
	}
	L["load.dump_to_graph_s"] = d.Seconds()
	L["load.mb_per_s"] = float64(s.in.dumpBytes) / 1e6 / d.Seconds()
	var decoded int64
	d = tr.timed("compress.Reader", root, 0, func() { decoded, err = decodeAll(s.in.dumpPath) })
	if err != nil {
		return err
	}
	L["compress.decode_mb_per_s"] = float64(decoded) / 1e6 / d.Seconds()
	L["dict.terms"] = float64(g.Dict().Len())
	triples := g.NumEdges()
	d = tr.timed("store.NewIndex", root, 0, func() { rdfsum.NewIndex(g) })
	L["store.index_build_s"] = d.Seconds()
	tr.end(root)

	// core (batch summaries) and saturate, on the base state.
	root = tr.begin("layers.summarize", 0, 0)
	nodes := 0
	for _, kind := range rdfsum.Kinds {
		var sum *rdfsum.Summary
		d = tr.timed("core.Summarize."+kind.String(), root, 0, func() { sum, err = rdfsum.Summarize(g, kind) })
		if err != nil {
			return err
		}
		L["core.summarize_"+kind.String()+"_s"] = d.Seconds()
		nodes += sum.Stats.AllNodes
	}
	L["core.summary_nodes_total"] = float64(nodes)
	d = tr.timed("saturate.Graph", root, 0, func() { rdfsum.Saturate(g) })
	L["saturate.graph_s"] = d.Seconds()
	tr.end(root)

	// store (snapshot write and O(1) open).
	root = tr.begin("layers.snapshot", 0, 0)
	snapPath := filepath.Join(dir, "probe.rdfsum")
	d = tr.timed("store.SaveFile", root, 0, func() { err = rdfsum.SaveSnapshot(snapPath, g) })
	if err != nil {
		return err
	}
	L["store.snapshot_write_s"] = d.Seconds()
	st, err := os.Stat(snapPath)
	if err != nil {
		return err
	}
	L["store.snapshot_bytes_per_triple"] = float64(st.Size()) / float64(triples)
	var opens []time.Duration
	for i := 0; i < 50; i++ {
		var sf *store.SnapshotFile
		opens = append(opens, tr.timed("store.OpenSnapshotFile", root, 0, func() { sf, err = store.OpenSnapshotFile(snapPath, false) }))
		if err != nil {
			return err
		}
		sf.Close() //nolint:errcheck // read-only mapping
	}
	L["store.snapshot_open_us"] = median(micros(opens))
	tr.end(root)

	// live: the replica store, seeded like the server's (the seed is
	// compacted into snapshot generation 1), reopened onto the mapped
	// snapshot where the workload serves from it.
	storeDir := filepath.Join(dir, "store")
	lv, err := rdfsum.OpenLive(storeDir, &rdfsum.LiveOptions{Seed: g, Maintain: maintain})
	if err != nil {
		return err
	}
	defer func() {
		if lv != nil { // a failed reopen below leaves nil
			lv.Close() //nolint:errcheck // scratch store, removed with the run directory
		}
	}()
	g = nil // adopted by the store
	if s.w.mapped {
		if err := lv.Close(); err != nil {
			return err
		}
		if lv, err = rdfsum.OpenLive(storeDir, &rdfsum.LiveOptions{Maintain: maintain}); err != nil {
			return err
		}
	}

	if err := s.replayReads(lv); err != nil {
		return err
	}
	if err := s.replayWrites(lv, maintain); err != nil {
		return err
	}

	// live (reopen replays the WAL the write replay left; then compact).
	if err := lv.Close(); err != nil {
		return err
	}
	root = tr.begin("layers.reopen", 0, 0)
	d = tr.timed("live.Open", root, 0, func() { lv, err = rdfsum.OpenLive(storeDir, &rdfsum.LiveOptions{Maintain: maintain}) })
	if err != nil {
		return err
	}
	L["live.open_replay_ms"] = float64(d) / float64(time.Millisecond)
	d = tr.timed("live.Compact", root, 0, func() { err = lv.Compact() })
	if err != nil {
		return err
	}
	L["live.compact_s"] = d.Seconds()
	tr.end(root)

	s.scrapeLayers()
	return ctx.Err()
}

// decodeAll streams a dump through the compress layer (pass-through for
// plain files) and returns the decoded size.
func decodeAll(path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r, err := rdfsum.NewCompressionReader(f, rdfsum.CompressionAuto)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	return io.Copy(io.Discard, r)
}

// replayReads measures the read side on the replica's current epoch:
// raw index scan and point lookups, then — for an even subset of the
// requests the traced window sent — parse, prune, compile and execute,
// each a child span of that request's replay span.
func (s *scenario) replayReads(lv *rdfsum.Live) error {
	L, tr := s.rep.layers, s.tr
	snap := lv.Snapshot()

	root := tr.begin("layers.store", 0, 0)
	var probe []store.Triple
	n := 0
	d := tr.timed("store.Index.ForEach", root, 0, func() {
		snap.Index.ForEach(0, 0, 0, func(t store.Triple) bool {
			if n%97 == 0 {
				probe = append(probe, t)
			}
			n++
			return true
		})
	})
	L["store.scan_mtriples_per_s"] = float64(n) / 1e6 / d.Seconds()
	hits := 0
	d = tr.timed("store.Index.Contains", root, 0, func() {
		for _, t := range probe {
			if snap.Index.Contains(t) {
				hits++
			}
		}
	})
	if hits != len(probe) {
		return fmt.Errorf("index lost %d of %d scanned triples on point lookup", len(probe)-hits, len(probe))
	}
	L["store.point_lookup_us"] = float64(d) / float64(time.Microsecond) / float64(len(probe))
	tr.end(root)

	sum, _, err := lv.Summary(rdfsum.Weak, 0)
	if err != nil {
		return err
	}
	pruner := rdfsum.NewQueryPruner(sum)
	weights := sum.ComputeWeights()

	// At most traceSamples requests, and at most ~3 s of replay.
	step := max(1, len(s.sampled)/traceSamples)
	deadline := time.Now().Add(3 * time.Second)
	var roundtrip, parse, prune, compile, execute []time.Duration
	var pruned, examined, rows int
	var qerrs []float64
	fullRows := map[int]int{} // pool index → unlimited row count
	for k := 0; k < len(s.sampled) && (len(roundtrip) < 30 || time.Now().Before(deadline)); k += step {
		sr := s.sampled[k]
		text := s.in.pool[sr.poolIndex].text
		rp := tr.begin("replay", 0, sr.req)
		var q *rdfsum.Query
		var plan *rdfsum.QueryPlan
		var res *rdfsum.QueryResult
		var empty bool
		var dC, dE time.Duration
		dP := tr.timed("query.Parse", rp, sr.req, func() { q, err = rdfsum.ParseQuery(text) })
		if err != nil {
			return err
		}
		dG := tr.timed("query.Pruner.ProvablyEmpty", rp, sr.req, func() { empty = pruner.ProvablyEmpty(q) })
		got := 0
		if !empty {
			dC = tr.timed("query.Compile", rp, sr.req, func() { plan, err = rdfsum.CompileQuery(snap.Graph, q, weights) })
			if err != nil {
				return err
			}
			dE = tr.timed("query.Plan.Eval", rp, sr.req, func() { res, err = plan.Eval(snap.Index, &query.EvalOptions{Limit: s.w.limit}) })
			if err != nil {
				return err
			}
			got = len(res.Rows)
		}
		tr.end(rp)
		if got != s.or.baseRows[sr.poolIndex] {
			return fmt.Errorf("replay of %q returned %d rows, oracle says %d", text, got, s.or.baseRows[sr.poolIndex])
		}
		roundtrip = append(roundtrip, sr.roundtrip)
		parse, prune = append(parse, dP), append(prune, dG)
		compile, execute = append(compile, dC), append(execute, dE)
		if empty {
			pruned++
			continue
		}
		// Outside the spans: the explain pass (its per-pattern clock is
		// not free) for triples examined, and the unlimited count the
		// estimate is judged against.
		ex, err := plan.Eval(snap.Index, &query.EvalOptions{Limit: s.w.limit, Explain: true})
		if err != nil {
			return err
		}
		for _, st := range ex.Explain.Steps {
			examined += int(st.Actual)
		}
		rows += len(ex.Rows)
		full, ok := fullRows[sr.poolIndex]
		if !ok {
			all, err := plan.Eval(snap.Index, nil)
			if err != nil {
				return err
			}
			full = len(all.Rows)
			fullRows[sr.poolIndex] = full
		}
		if est := ex.Explain.QueryEst; est >= 0 {
			a, b := max(float64(est), 1), max(float64(full), 1)
			qerrs = append(qerrs, max(a/b, b/a))
		}
	}
	if len(roundtrip) == 0 {
		return fmt.Errorf("traced window recorded no requests to replay")
	}
	s.rep.samples["replayed_requests"] = len(roundtrip)
	// Means, not medians: the layers are meant to add up to the round trip.
	L["client.roundtrip_us"] = mean(micros(roundtrip))
	L["query.parse_us"] = mean(micros(parse))
	L["query.prune_us"] = mean(micros(prune))
	L["query.compile_us"] = mean(micros(compile))
	L["query.execute_us"] = mean(micros(execute))
	L["query.prune_hit_ratio"] = float64(pruned) / float64(len(roundtrip))
	L["rdfsumd.unattributed_us"] = L["client.roundtrip_us"] - L["query.parse_us"] - L["query.prune_us"] - L["query.compile_us"] - L["query.execute_us"]
	L["query.examined_per_row"] = float64(examined) / max(float64(rows), 1)
	L["query.qerror_p50"] = median(qerrs)
	return nil
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// replayWrites measures the write side on the replica: what one new
// epoch costs the read path's caches (summary snapshot, pruner, planner
// weights), then N-Triples parsing, AddBatch, the index delta and
// DeleteBatch on the batches the server was sent, and the quotient
// engine's per-triple feed in isolation.
func (s *scenario) replayWrites(lv *rdfsum.Live, maintain []rdfsum.Kind) error {
	L, tr := s.rep.layers, s.tr
	const epochs, adds, dels = 8, 40, 20
	if len(s.in.batches) < epochs+adds {
		return fmt.Errorf("write replay needs %d batches, the run generated %d", epochs+adds, len(s.in.batches))
	}

	root := tr.begin("layers.epoch", 0, 0)
	var dSnap, dPruner, dWeights []time.Duration
	for i := 0; i < epochs; i++ {
		if err := lv.AddBatch(s.in.batches[i]); err != nil {
			return err
		}
		var sum *rdfsum.Summary
		var err error
		dSnap = append(dSnap, tr.timed("live.Summary", root, 0, func() { sum, _, err = lv.Summary(rdfsum.Weak, 0) }))
		if err != nil {
			return err
		}
		dPruner = append(dPruner, tr.timed("rdfsum.NewQueryPruner", root, 0, func() { rdfsum.NewQueryPruner(sum) }))
		dWeights = append(dWeights, tr.timed("core.ComputeWeights", root, 0, func() { sum.ComputeWeights() }))
	}
	tr.end(root)
	L["live.summary_snapshot_ms"] = median(millis(dSnap))
	L["core.pruner_build_ms"] = median(millis(dPruner))
	L["core.weights_ms"] = median(millis(dWeights))

	root = tr.begin("layers.write", 0, 0)
	var dParse, dAdd, dApplied, dDel []time.Duration
	var parsedBytes int
	for i := epochs; i < epochs+adds; i++ {
		var triples []rdfsum.Triple
		var err error
		dParse = append(dParse, tr.timed("ntriples.Parse", root, 0, func() { triples, err = rdfsum.Parse(bytes.NewReader(s.in.bodies[i])) }))
		if err != nil {
			return err
		}
		parsedBytes += len(s.in.bodies[i])
		dAdd = append(dAdd, tr.timed("live.AddBatch", root, 0, func() { err = lv.AddBatch(triples) }))
		if err != nil {
			return err
		}
		// The index delta alone: re-apply the batch, now that its terms
		// have IDs, to the epoch's persistent index (the result is dropped).
		snap := lv.Snapshot()
		dict := snap.Graph.Dict()
		enc := make([]store.Triple, 0, len(triples))
		for _, t := range triples {
			sID, _ := dict.Lookup(t.S)
			pID, _ := dict.Lookup(t.P)
			oID, _ := dict.Lookup(t.O)
			enc = append(enc, store.Triple{S: sID, P: pID, O: oID})
		}
		dApplied = append(dApplied, tr.timed("store.Index.Applied", root, 0, func() { snap.Index.Applied(enc, nil) }))
	}
	for i := epochs; i < epochs+dels; i++ {
		var removed int
		var err error
		dDel = append(dDel, tr.timed("live.DeleteBatch", root, 0, func() { removed, err = lv.DeleteBatch(s.in.batches[i]) }))
		if err != nil {
			return err
		}
		if removed != len(s.in.batches[i]) {
			return fmt.Errorf("replica removed %d of %d triples of batch %d", removed, len(s.in.batches[i]), i)
		}
	}
	var sumParse time.Duration
	for _, d := range dParse {
		sumParse += d
	}
	L["ntriples.parse_mb_per_s"] = float64(parsedBytes) / 1e6 / sumParse.Seconds()
	L["live.add_batch_ms"] = median(millis(dAdd))
	L["store.index_applied_ms"] = median(millis(dApplied))
	L["live.delete_batch_ms"] = median(millis(dDel))

	bs, err := rdfsum.NewBuilderSet(rdfsum.EmptyGraph(), maintain)
	if err != nil {
		return err
	}
	fed := 0
	d := tr.timed("core.BuilderSet.Add", root, 0, func() {
		for _, b := range s.in.batches[:epochs+adds] {
			for _, t := range b {
				bs.Add(t)
			}
			fed += len(b)
		}
	})
	L["core.builder_add_ns_per_triple"] = float64(d) / float64(fed)
	tr.end(root)
	return nil
}

// scrapeLayers turns the /v1/metrics diffs into per-layer numbers: the
// server's own view of the same windows.
func (s *scenario) scrapeLayers() {
	L := s.rep.layers
	us := func(d scrapeDiff, family string, labels ...string) float64 {
		m, _ := d.histMean(family, labels...)
		return m * 1e6
	}
	L["rdfsumd.http_query_us"] = us(s.readDiff, "rdfsum_http_request_duration_seconds", `route="/v1/query"`)
	L["rdfsumd.query_compile_us"] = us(s.readDiff, "rdfsum_query_compile_seconds")
	L["rdfsumd.query_execute_us"] = us(s.readDiff, "rdfsum_query_execute_seconds")

	w := s.writeDiff
	if s.w.writeRate > 0 {
		w = scrapeDiff{s.readDiff.before, s.writeDiff.after} // the writer ran during the read window
	}
	L["live.wal_append_us"] = us(w, "rdfsum_wal_append_seconds")
	L["live.wal_fsync_us"] = us(w, "rdfsum_wal_fsync_seconds")
	L["live.publish_us"] = us(w, "rdfsum_epoch_publish_seconds")
	L["live.queue_wait_us"] = us(w, "rdfsum_ingest_queue_wait_seconds")
	L["live.queue_drain_us"] = us(w, "rdfsum_ingest_queue_drain_seconds")
	foldMean, folds := w.histMean("rdfsum_index_fold_seconds")
	L["store.fold_ms"] = foldMean * 1e3
	L["store.folds"] = folds
	written := w.delta("rdfsum_added_total") + w.delta("rdfsum_deleted_total")
	L["live.wal_bytes_per_triple"] = w.delta("rdfsum_wal_bytes") / max(written, 1)
	L["core.maintenance_rebuilds"] = s.runDiff.delta("rdfsum_summary_maintenance_rebuilds_total")
	L["core.lazy_builds"] = s.runDiff.delta("rdfsum_summary_lazy_builds_total")
}
