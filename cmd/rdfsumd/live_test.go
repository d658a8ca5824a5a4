package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rdfsum"
)

// liveTestServer serves a durable live store rooted in a temp directory.
func liveTestServer(t *testing.T, seed *rdfsum.Graph) (*httptest.Server, *server) {
	t.Helper()
	srv, err := newServer(serverConfig{liveDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if seed != nil {
		if err := srv.lv.AddBatch(seed.Decode()); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { srv.close() }) //nolint:errcheck
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// ntBody renders n distinct triples rooted at serial start as N-Triples.
func ntBody(start, n int) string {
	var b strings.Builder
	for i := start; i < start+n; i++ {
		fmt.Fprintf(&b, "<http://x/s%d> <http://x/p%d> <http://x/o%d> .\n", i, i%5, i%11)
	}
	return b.String()
}

func postBody(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/n-triples", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

func TestTriplesEndpoint(t *testing.T) {
	ts, _ := liveTestServer(t, nil)

	code, body := postBody(t, ts.URL+"/v1/triples", ntBody(0, 25))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, body)
	}
	if body["added"].(float64) != 25 || body["triples"].(float64) != 25 {
		t.Fatalf("ingest response = %v, want added/triples 25", body)
	}
	if body["durable"] != true {
		t.Fatalf("ingest response durable = %v, want true", body["durable"])
	}
	epoch := body["epoch"].(float64)

	// The batch is queryable immediately.
	code, qbody := postQuery(t, ts.URL+"/v1/query?prune=off",
		`SELECT ?s ?o WHERE { ?s <http://x/p1> ?o }`)
	if code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if qbody["count"].(float64) != 5 {
		t.Fatalf("query count = %v, want 5", qbody["count"])
	}
	if qbody["epoch"].(float64) < epoch {
		t.Fatalf("query epoch %v older than ingest epoch %v", qbody["epoch"], epoch)
	}

	// Malformed N-Triples is rejected without state change.
	code, _ = postBody(t, ts.URL+"/v1/triples", "this is not ntriples\n")
	if code != http.StatusBadRequest {
		t.Fatalf("malformed ingest status = %d, want 400", code)
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats["triples"].(float64) != 25 {
		t.Fatalf("stats triples = %v after rejected ingest, want 25", stats["triples"])
	}
	if stats["epoch"].(float64) != epoch {
		t.Fatalf("epoch moved on rejected ingest: %v -> %v", epoch, stats["epoch"])
	}
}

func TestCompactEndpoint(t *testing.T) {
	ts, srv := liveTestServer(t, nil)
	if code, _ := postBody(t, ts.URL+"/v1/triples", ntBody(0, 40)); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	preWAL := srv.lv.Stats().WALBytes
	code, body := postBody(t, ts.URL+"/v1/compact", "")
	if code != http.StatusOK {
		t.Fatalf("compact status = %d: %v", code, body)
	}
	if int64(body["wal_bytes"].(float64)) >= preWAL {
		t.Fatalf("compaction did not shrink the WAL: %v -> %v", preWAL, body["wal_bytes"])
	}
	if body["generation"].(float64) != 2 {
		t.Fatalf("generation = %v, want 2", body["generation"])
	}
}

func TestCompactEndpointMemoryOnly(t *testing.T) {
	ts := testServer(t) // memory-only wrapper
	resp, err := http.Post(ts.URL+"/v1/compact", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("memory-only compact status = %d, want 409", resp.StatusCode)
	}
}

// TestLiveIngestDuringConcurrentQueries is the serving acceptance test:
// POST /triples batches land while /query, /summary and /stats traffic
// runs concurrently; every request succeeds, epochs only move forward,
// and the final triple count equals everything acknowledged. Run under
// -race (CI does) to check the memory model end to end.
func TestLiveIngestDuringConcurrentQueries(t *testing.T) {
	ts, srv := liveTestServer(t, rdfsum.GenerateBSBM(10))

	const (
		batches   = 25
		batchSize = 30
		readers   = 4
	)
	var wg sync.WaitGroup
	errc := make(chan error, readers+2)
	done := make(chan struct{})

	wg.Add(1)
	go func() { // ingest writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < batches; i++ {
			code, body := postBody(t, ts.URL+"/v1/triples", ntBody(100_000+i*batchSize, batchSize))
			if code != http.StatusOK {
				errc <- fmt.Errorf("ingest %d: status %d: %v", i, code, body)
				return
			}
			if i == batches/2 {
				if code, body := postBody(t, ts.URL+"/v1/compact", ""); code != http.StatusOK {
					errc <- fmt.Errorf("compact: status %d: %v", code, body)
					return
				}
			}
		}
	}()

	queries := []string{
		`PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
		 SELECT ?o WHERE { ?o bsbm:price ?p }`,
		`SELECT ?s ?o WHERE { ?s <http://x/p1> ?o }`,
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastEpoch := float64(0)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				code, body := postQuery(t, ts.URL+"/v1/query", queries[i%len(queries)])
				if code != http.StatusOK {
					errc <- fmt.Errorf("reader %d: query status %d: %v", r, code, body)
					return
				}
				if e := body["epoch"].(float64); e < lastEpoch {
					errc <- fmt.Errorf("reader %d: epoch went backwards %v -> %v", r, lastEpoch, e)
					return
				} else {
					lastEpoch = e
				}
				if i%5 == 0 {
					var sum map[string]any
					if resp := getJSON(t, ts.URL+"/v1/summary?kind=weak", &sum); resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("reader %d: summary status %d", r, resp.StatusCode)
						return
					}
					var stats map[string]any
					getJSON(t, ts.URL+"/v1/stats", &stats)
				}
			}
		}(r)
	}

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	want := rdfsum.GenerateBSBM(10).NumEdges() + batches*batchSize
	if got := srv.lv.Snapshot().Graph.NumEdges(); got != want {
		t.Fatalf("final graph has %d triples, want %d", got, want)
	}
	// Post-ingest weak summary equals a batch summary of the same triples.
	sum, _, err := srv.lv.Summary(rdfsum.Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := rdfsum.Summarize(rdfsum.NewGraph(srv.lv.Snapshot().Graph.Decode()), rdfsum.Weak)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sum.Graph.CanonicalStrings(), batch.Graph.CanonicalStrings()
	if len(a) != len(b) {
		t.Fatalf("live weak summary has %d triples, batch %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("live weak summary diverges from batch at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestPruningSoundUnderStaleness: a pruning gate built before an ingest
// never prunes away the ingested triples. The query after the ingest
// rebuilds the gate at the new epoch, answers the fresh property's row,
// and reports the gate applied at that epoch.
func TestPruningSoundUnderStaleness(t *testing.T) {
	ts, _ := liveTestServer(t, nil)
	if code, _ := postBody(t, ts.URL+"/v1/triples", ntBody(0, 20)); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	// Build the weak gate at the current epoch.
	q := `SELECT ?s ?o WHERE { ?s <http://fresh/p> ?o }`
	code, body := postQuery(t, ts.URL+"/v1/query?prune=weak", q)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["count"].(float64) != 0 {
		t.Fatalf("fresh property present before ingest: %v", body["count"])
	}
	if _, ok := body["prune_epoch"]; !ok {
		t.Fatal("gate at current epoch was not applied")
	}

	// Ingest a triple with a property the cached gate has never seen.
	code, ack := postBody(t, ts.URL+"/v1/triples", "<http://fresh/a> <http://fresh/p> <http://fresh/b> .\n")
	if code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	code, body = postQuery(t, ts.URL+"/v1/query?prune=weak", q)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["count"].(float64) != 1 {
		t.Fatalf("gate pruned an acknowledged triple: count = %v, want 1", body["count"])
	}
	if body["epoch"] != ack["epoch"] || body["prune_epoch"] != ack["epoch"] {
		t.Fatalf("query at epoch %v with gate at %v, want both at the ingest's epoch %v",
			body["epoch"], body["prune_epoch"], ack["epoch"])
	}
}

// TestPruneGateSkipsNewerSummary: a query pins epoch e and then fetches
// its gate; a DELETE landing in between publishes e+1, whose summary
// proves empty a pattern that has rows at e. The gate is applied only
// when its summary is of the evaluated epoch, so it is skipped here.
func TestPruneGateSkipsNewerSummary(t *testing.T) {
	_, srv := liveTestServer(t, nil)
	lv := srv.lv
	doomed, err := rdfsum.ParseString(ntBody(0, 5) + "<http://x/a> <http://x/p> <http://x/b> .\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := lv.AddBatch(doomed); err != nil {
		t.Fatal(err)
	}
	q, err := rdfsum.ParseQuery(`SELECT ?s ?o WHERE { ?s <http://x/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	e := lv.Epoch()
	if gate, err := srv.pruneGate(lv, rdfsum.Weak, e); err != nil || gate == nil {
		t.Fatalf("gate at the current epoch: %v, %v; want it applied", gate, err)
	}

	if removed, err := lv.DeleteBatch(doomed[len(doomed)-1:]); err != nil || removed != 1 {
		t.Fatalf("DeleteBatch removed %d, %v; want 1", removed, err)
	}
	if lv.Epoch() != e+1 {
		t.Fatalf("delete published epoch %d, want %d", lv.Epoch(), e+1)
	}
	if newer, _, err := srv.pruner(lv, rdfsum.Weak); err != nil || !newer.ProvablyEmpty(q) {
		t.Fatal("the summary of the post-delete epoch should prove the pattern empty")
	}
	if gate, err := srv.pruneGate(lv, rdfsum.Weak, e); err != nil || gate != nil {
		t.Fatalf("gate for a query evaluated at %d: %v, %v; want none (its summary is of %d)", e, gate, err, e+1)
	}
}

// TestMetricsEndpoint: /metrics exposes the store gauges and per-kind
// maintenance mode in the Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	srv, err := newServer(serverConfig{maintain: []rdfsum.Kind{rdfsum.Weak, rdfsum.TypedStrong}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.close() }) //nolint:errcheck
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	if code, _ := postBody(t, ts.URL+"/v1/triples", ntBody(0, 25)); code != http.StatusOK {
		t.Fatal("ingest failed")
	}
	// Materialize one maintained and one lazy kind so their epochs show.
	for _, kind := range []string{"weak", "strong"} {
		resp, err := http.Get(ts.URL + "/v1/summary?kind=" + kind)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	epoch := srv.lv.Epoch()
	for _, want := range []string{
		fmt.Sprintf("rdfsum_epoch %d", epoch),
		"rdfsum_triples 25",
		"rdfsum_durable 0",
		fmt.Sprintf(`rdfsum_summary_epoch{kind="weak",mode="maintained"} %d`, epoch),
		fmt.Sprintf(`rdfsum_summary_epoch{kind="strong",mode="lazy"} %d`, epoch),
		`rdfsum_summary_epoch{kind="typed-strong",mode="maintained"}`,
		`rdfsum_summary_lazy_builds_total{kind="weak",mode="maintained"} 0`,
		`rdfsum_summary_lazy_builds_total{kind="strong",mode="lazy"} 1`,
		`rdfsum_summary_staleness{kind="weak",mode="maintained"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q:\n%s", want, body)
		}
	}
}

// TestParseMaintain: the -maintain flag accepts kind lists, "all" and
// "none", and rejects unknown names.
func TestParseMaintain(t *testing.T) {
	if kinds, err := parseMaintain("all"); err != nil || len(kinds) != rdfsum.NumKinds {
		t.Errorf("parseMaintain(all) = %v, %v", kinds, err)
	}
	if kinds, err := parseMaintain("none"); err != nil || kinds == nil || len(kinds) != 0 {
		t.Errorf("parseMaintain(none) = %v, %v; want empty non-nil", kinds, err)
	}
	kinds, err := parseMaintain("weak, ts")
	if err != nil || len(kinds) != 2 || kinds[0] != rdfsum.Weak || kinds[1] != rdfsum.TypedStrong {
		t.Errorf("parseMaintain(weak, ts) = %v, %v", kinds, err)
	}
	if _, err := parseMaintain("bogus"); err == nil {
		t.Error("parseMaintain accepted an unknown kind")
	}
}

// TestPlanStatsOutliveEpochs: planner weights tolerate planStatsMaxStale
// epochs of ingest although every query's pruner refreshes the
// weak-summary cell. Forty one-triple batches with an explained query
// after each cost two ComputeWeights passes (epochs 2 and 35), not forty.
func TestPlanStatsOutliveEpochs(t *testing.T) {
	ts, srv := liveTestServer(t, nil)
	for i := 0; i < 40; i++ {
		if code, body := postBody(t, ts.URL+"/v1/triples", ntBody(i, 1)); code != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %v", i, code, body)
		}
		code, body := postQuery(t, ts.URL+"/v1/query?explain=1", `SELECT ?s ?o WHERE { ?s <http://x/p1> ?o }`)
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d: %v", i, code, body)
		}
		if _, pruned := body["prune_epoch"]; !pruned {
			t.Fatalf("query %d ran without the weak pruning gate; the test needs it to refresh the summary cell", i)
		}
	}
	if builds := srv.weightsSeconds.Count(); builds != 2 {
		t.Fatalf("ComputeWeights ran %d times over 40 epochs, want 2 (planStatsMaxStale = %d)", builds, planStatsMaxStale)
	}
}

// TestUnexplainedQueriesComputeNoWeights: the planner's weights feed only
// the estimates an explanation reports, so unexplained queries across more
// than planStatsMaxStale epochs never compute them; the first explained
// query does, once, and reports a whole-query estimate from them.
func TestUnexplainedQueriesComputeNoWeights(t *testing.T) {
	ts, srv := liveTestServer(t, nil)
	const q = `SELECT ?s ?o WHERE { ?s <http://x/p1> ?o }`
	for i := 0; i < planStatsMaxStale+8; i++ {
		if code, body := postBody(t, ts.URL+"/v1/triples", ntBody(i, 1)); code != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %v", i, code, body)
		}
		if code, body := postQuery(t, ts.URL+"/v1/query", q); code != http.StatusOK {
			t.Fatalf("query %d: status %d: %v", i, code, body)
		}
	}
	if builds := srv.weightsSeconds.Count(); builds != 0 {
		t.Fatalf("unexplained queries over %d epochs ran ComputeWeights %d times, want 0", planStatsMaxStale+8, builds)
	}
	code, body := postQuery(t, ts.URL+"/v1/query?explain=1", q)
	if code != http.StatusOK {
		t.Fatalf("explained query: status %d: %v", code, body)
	}
	if builds := srv.weightsSeconds.Count(); builds != 1 {
		t.Fatalf("one explained query ran ComputeWeights %d times, want 1", builds)
	}
	explain, _ := body["explain"].(map[string]any)
	if est, ok := explain["query_est"].(float64); !ok || est < 0 || explain["used_stats"] != true {
		t.Fatalf("explained query reports %v, want query_est >= 0 from the weights", explain)
	}
}
