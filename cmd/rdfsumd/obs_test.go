package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"

	"rdfsum"
	"rdfsum/internal/obs"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

// TestMetricsExpositionWellFormed runs the full scrape through the
// exposition linter: every family has HELP+TYPE, no duplicate series,
// counters end _total, histogram buckets are monotone and +Inf-closed.
func TestMetricsExpositionWellFormed(t *testing.T) {
	ts, _ := liveTestServer(t, rdfsum.GenerateBSBM(20))
	// Exercise a route so HTTP histograms have samples too.
	postQuery(t, ts.URL+"/v1/query", "SELECT ?s ?o WHERE { ?s ?p ?o . }")

	body, resp := scrapeMetrics(t, ts)
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	if err := obs.LintExposition(strings.NewReader(body)); err != nil {
		t.Errorf("exposition lint: %v\n%s", err, body)
	}
}

// TestMetricsExpositionBootPhases: a seeded cold boot reports how long
// its load, decode, builders, snapshot, WAL replay and index phases took
// — it writes generation 1 and then opens it as a reopen does, decoding
// the snapshot and replaying the empty log it created; reopening the same
// store reports a decode and a replay and no load or snapshot write. The
// scrape stays lint-clean with the family.
func TestMetricsExpositionBootPhases(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "seed.nt")
	if err := os.WriteFile(dump, []byte(ntBody(0, 500)), 0o644); err != nil {
		t.Fatal(err)
	}
	liveDir := t.TempDir()
	boot := func(in string) map[string]float64 {
		t.Helper()
		srv, err := newServer(serverConfig{liveDir: liveDir, in: in})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.close() //nolint:errcheck
		ts := httptest.NewServer(srv.handler())
		defer ts.Close()
		body, _ := scrapeMetrics(t, ts)
		if err := obs.LintExposition(strings.NewReader(body)); err != nil {
			t.Errorf("exposition lint: %v", err)
		}
		phases := map[string]float64{}
		for _, line := range strings.Split(body, "\n") {
			if rest, ok := strings.CutPrefix(line, `rdfsum_boot_phase_seconds{phase="`); ok {
				name, val, _ := strings.Cut(rest, `"} `)
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("unparsable sample %q: %v", line, err)
				}
				phases[name] = v
			}
		}
		if len(phases) != 6 {
			t.Fatalf("boot phases in the scrape = %v, want load, decode, builders, snapshot, wal_replay, index", phases)
		}
		return phases
	}
	cold := boot(dump)
	for _, ph := range []string{"load", "decode", "builders", "snapshot", "wal_replay", "index"} {
		if cold[ph] <= 0 {
			t.Errorf("seeded cold boot: phase %s = %v s, want > 0", ph, cold[ph])
		}
	}
	warm := boot("")
	if warm["decode"] <= 0 || warm["wal_replay"] <= 0 || warm["snapshot"] != 0 || warm["load"] != 0 {
		t.Errorf("reopen: phases = %v, want a snapshot decode, a WAL replay and no load or snapshot write", warm)
	}
}

// TestMetricsExpositionDictTerms: the dictionary's size is visible from
// outside (/v1/stats dict_terms and the rdfsum_dict_terms gauge agree),
// and serving a summary of every kind — the type-based one names every
// untyped node — leaves it where it was: summaries are reads.
func TestMetricsExpositionDictTerms(t *testing.T) {
	ts, _ := liveTestServer(t, rdfsum.GenerateBSBM(20))
	dictTerms := func() float64 {
		t.Helper()
		var stats map[string]any
		getJSON(t, ts.URL+"/v1/stats", &stats)
		n, _ := stats["dict_terms"].(float64)
		if n <= 0 {
			t.Fatalf("/v1/stats dict_terms = %v, want the dictionary's size", stats["dict_terms"])
		}
		body, _ := scrapeMetrics(t, ts)
		if want := "rdfsum_dict_terms " + strconv.FormatFloat(n, 'f', -1, 64) + "\n"; !strings.Contains(body, want) {
			t.Errorf("/v1/metrics lacks %q", want)
		}
		return n
	}
	before := dictTerms()
	for _, kind := range rdfsum.Kinds {
		var info map[string]any
		if resp := getJSON(t, ts.URL+"/v1/summary?kind="+kind.String(), &info); resp.StatusCode != http.StatusOK {
			t.Fatalf("summary %v: status %d", kind, resp.StatusCode)
		}
		resp, err := http.Get(ts.URL + "/v1/summary?format=ntriples&kind=" + kind.String())
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
		resp.Body.Close()
	}
	if after := dictTerms(); after != before {
		t.Errorf("dict_terms went from %v to %v across five summaries", before, after)
	}
}

// TestMetricsExpositionPlannerWeights: the planner's statistics pass — an
// O(|G|) step on the explained query path — is a process-wide histogram
// whose count is the number of ComputeWeights calls: none before the
// first query, none after an unexplained one, one after the first
// explained query, still one after a second explained query of the same
// epoch. The scrape stays lint-clean with the family.
func TestMetricsExpositionPlannerWeights(t *testing.T) {
	before := weightsBuilds(t) // the histogram is process-wide
	ts, _ := liveTestServer(t, rdfsum.GenerateBSBM(20))
	builds := func() float64 {
		t.Helper()
		body, _ := scrapeMetrics(t, ts)
		if err := obs.LintExposition(strings.NewReader(body)); err != nil {
			t.Errorf("exposition lint: %v", err)
		}
		v := scrapeValues(t, body)
		n, ok := v["rdfsum_planner_weights_seconds_count"]
		if !ok {
			t.Fatal("scrape lacks rdfsum_planner_weights_seconds")
		}
		if sum := v["rdfsum_planner_weights_seconds_sum"]; (n == 0) != (sum == 0) {
			t.Errorf("%v weights builds took %v s in all", n, sum)
		}
		return n - before
	}
	if n := builds(); n != 0 {
		t.Errorf("weights built %v times before any query", n)
	}
	const q = "SELECT ?s ?o WHERE { ?s ?p ?o . }"
	postQuery(t, ts.URL+"/v1/query", q)
	if n := builds(); n != 0 {
		t.Errorf("after an unexplained query: weights built %v times, want 0", n)
	}
	for i := 1; i <= 2; i++ {
		postQuery(t, ts.URL+"/v1/query?explain=1", q)
		if n := builds(); n != 1 {
			t.Errorf("after %d explained queries of one epoch: weights built %v times, want 1", i, n)
		}
	}
}

// scrapeValues parses every sample of a scrape into series → value.
func scrapeValues(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		series, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// TestMetricsExpositionMemoryAccount: the scrape carries the process's
// memory account, and the part of it the store computes from its own
// structures is a fair one. On a BSBM-200 store that maintains no summary
// and has served none, the dictionary, the graph components and the heap
// index are all there is: their computed sizes add up to what the
// collector finds live (beyond what the test process held before the
// store existed) to within a quarter.
func TestMetricsExpositionMemoryAccount(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "bsbm200.nt")
	f, err := os.Create(dump)
	if err != nil {
		t.Fatal(err)
	}
	if err := rdfsum.WriteNTriples(f, rdfsum.GenerateBSBM(200).Decode()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	heapLive := func() float64 {
		runtime.GC()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	before := heapLive()
	srv, err := newServer(serverConfig{in: dump, maintain: []rdfsum.Kind{}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close() //nolint:errcheck
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	runtime.GC() // heap_live is the last collection's finding: make it one that saw the finished store
	body, _ := scrapeMetrics(t, ts)
	if err := obs.LintExposition(strings.NewReader(body)); err != nil {
		t.Errorf("exposition lint: %v", err)
	}
	v := scrapeValues(t, body)
	for _, series := range []string{
		"rdfsum_go_heap_live_bytes", "rdfsum_go_heap_goal_bytes", "rdfsum_go_heap_released_bytes",
		`rdfsum_memory_bytes{component="dict"}`, `rdfsum_memory_bytes{component="graph_components"}`, `rdfsum_memory_bytes{component="index_heap"}`,
	} {
		if _, ok := v[series]; !ok {
			t.Fatalf("scrape lacks %s", series)
		}
	}
	if _, err := os.Stat("/proc/self/status"); err == nil {
		rss, peak := v["rdfsum_process_resident_bytes"], v["rdfsum_process_resident_peak_bytes"]
		if rss <= 0 || peak < rss {
			t.Errorf("resident = %v bytes, peak = %v: want 0 < resident <= peak", rss, peak)
		}
	}
	if live, goal := v["rdfsum_go_heap_live_bytes"], v["rdfsum_go_heap_goal_bytes"]; live <= 0 || goal < live {
		t.Errorf("heap live = %v, goal = %v: want 0 < live <= goal", live, goal)
	}

	triples := v["rdfsum_triples"]
	if got := v[`rdfsum_memory_bytes{component="graph_components"}`]; got != 12*triples {
		t.Errorf("graph components = %v bytes for %v triples, want 12 B each", got, triples)
	}
	if got := v[`rdfsum_memory_bytes{component="index_heap"}`]; got != 24*triples {
		t.Errorf("heap index = %v bytes for %v triples, want 24 B each", got, triples)
	}
	account := v[`rdfsum_memory_bytes{component="dict"}`] + 12*triples + 24*triples
	store := v["rdfsum_go_heap_live_bytes"] - before
	t.Logf("dict %.0f + components %.0f + index %.0f = %.0f bytes accounted; heap live grew %.0f → %.0f (+%.0f)",
		v[`rdfsum_memory_bytes{component="dict"}`], 12*triples, 24*triples, account, before, v["rdfsum_go_heap_live_bytes"], store)
	if account < 0.75*store || account > 1.25*store {
		t.Errorf("the three components account for %.0f bytes; the live heap grew by %.0f with the store: not within 25 %%", account, store)
	}
	if got := v[`rdfsum_memory_bytes{component="index_mapped"}`]; got != 0 {
		t.Errorf("a memory-only store maps %v index bytes, want none", got)
	}

	// A durable store serves its base from the snapshot file after a
	// Compact: index_heap holds only the fences its range lookups built —
	// 16 B per 8 triples of one column, for one query over one order —
	// and its delta runs (24 B a triple); index_mapped holds the file's
	// column sections.
	dsrv, err := newServer(serverConfig{in: dump, liveDir: t.TempDir(), maintain: []rdfsum.Kind{}})
	if err != nil {
		t.Fatal(err)
	}
	defer dsrv.close() //nolint:errcheck
	dts := httptest.NewServer(dsrv.handler())
	defer dts.Close()
	if code, body := postBody(t, dts.URL+"/v1/triples", ntBody(0, 40)); code != http.StatusOK {
		t.Fatalf("POST /v1/triples: %d %v", code, body)
	}
	if code, body := postBody(t, dts.URL+"/v1/compact", ""); code != http.StatusOK {
		t.Fatalf("POST /v1/compact: %d %v", code, body)
	}
	base := float64(dsrv.lv.Stats().Triples)
	if code, body := postQuery(t, dts.URL+"/v1/query",
		"SELECT ?s WHERE { ?s a <http://bsbm.example.org/vocabulary/Product> }"); code != http.StatusOK {
		t.Fatalf("query: %d %v", code, body)
	}
	const delta = 25
	if code, body := postBody(t, dts.URL+"/v1/triples", ntBody(1000, delta)); code != http.StatusOK {
		t.Fatalf("POST /v1/triples: %d %v", code, body)
	}
	body, _ = scrapeMetrics(t, dts)
	v = scrapeValues(t, body)
	fences := 16 * math.Ceil(base/8)
	if got, want := v[`rdfsum_memory_bytes{component="index_heap"}`], fences+24*delta; got != want {
		t.Errorf("durable store after Compact: index_heap = %v bytes, want one column's fences (%v) + %d delta triples × 24 B = %v",
			got, fences, delta, want)
	}
	if got := v[`rdfsum_memory_bytes{component="index_mapped"}`]; got < 2*base || got > 24*base {
		t.Errorf("durable store after Compact: index_mapped = %v bytes for %v triples, want the two encoded columns (1–12 B a triple each)", got, base)
	}

	// The 24 B a triple holds below the index's encoding cutoff only:
	// eight 600-triple batches fold, with the delta above, into one run
	// past it, held in the snapshot's column encoding on the heap. Once a
	// query has range-searched it, index_heap is the base's fences and
	// that run's payload and fences: at most 18 B a folded triple.
	for i := range 8 {
		if code, body := postBody(t, dts.URL+"/v1/triples", ntBody(2000+600*i, 600)); code != http.StatusOK {
			t.Fatalf("POST /v1/triples: %d %v", code, body)
		}
	}
	if code, body := postQuery(t, dts.URL+"/v1/query",
		"SELECT ?s WHERE { ?s a <http://bsbm.example.org/vocabulary/Product> }"); code != http.StatusOK {
		t.Fatalf("query: %d %v", code, body)
	}
	body, _ = scrapeMetrics(t, dts)
	v = scrapeValues(t, body)
	if runs := v["rdfsum_index_runs"]; runs != 2 {
		t.Fatalf("durable store after eight batches: %v index runs, want the base and one folded run", runs)
	}
	folded := v["rdfsum_triples"] - base
	if got := v[`rdfsum_memory_bytes{component="index_heap"}`] - fences; got <= 0 || got > 18*folded {
		t.Errorf("durable store after a fold past the encoding cutoff: index_heap = base fences (%v) + %v bytes for %v folded triples, want at most 18 B each",
			fences, got, folded)
	}
}

// TestLegacyMetricSeriesNamesPreserved pins the migration contract: every
// series the hand-rolled /metrics handler used to emit is still present
// under the identical name after the registry rewrite.
func TestLegacyMetricSeriesNamesPreserved(t *testing.T) {
	ts, _ := liveTestServer(t, rdfsum.GenerateBSBM(20))
	body, _ := scrapeMetrics(t, ts)
	legacy := []string{
		"rdfsum_epoch ",
		"rdfsum_triples ",
		"rdfsum_durable ",
		"rdfsum_read_only ",
		"rdfsum_generation ",
		"rdfsum_wal_bytes ",
		"rdfsum_wal_records ",
		"rdfsum_index_runs ",
		"rdfsum_index_tombstones ",
		"rdfsum_added_total ",
		"rdfsum_deleted_total ",
		"rdfsum_ingest_queue_depth ",
		"rdfsum_ingest_queue_max_depth ",
		"rdfsum_ingest_queue_bytes ",
		"rdfsum_ingest_queue_max_bytes ",
		"rdfsum_ingest_queue_rejected_total ",
		`rdfsum_summary_epoch{kind="weak",mode="maintained"}`,
		`rdfsum_summary_staleness{kind="weak",mode="maintained"}`,
	}
	for _, name := range legacy {
		if !strings.Contains(body, name) {
			t.Errorf("legacy series %q missing from /metrics", strings.TrimSpace(name))
		}
	}
}

// TestEveryV1RouteReportsLatencyHistogram exercises each /v1 route and
// asserts the scrape carries a per-route duration histogram for it.
func TestEveryV1RouteReportsLatencyHistogram(t *testing.T) {
	ts, _ := liveTestServer(t, rdfsum.GenerateBSBM(10))

	do := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	do("GET", "/v1/healthz", "")
	do("GET", "/v1/stats", "")
	do("GET", "/v1/summary?kind=weak", "")
	do("GET", "/v1/profile", "")
	do("POST", "/v1/query", "SELECT ?s WHERE { ?s ?p ?o . }")
	do("POST", "/v1/triples", ntBody(9000, 3))
	do("DELETE", "/v1/triples", ntBody(9000, 3))
	do("POST", "/v1/compact", "")
	do("GET", "/v1/replication", "")
	do("GET", "/v1/metrics", "")

	body, _ := scrapeMetrics(t, ts)
	routes := []string{
		"/v1/healthz", "/v1/stats", "/v1/summary", "/v1/profile",
		"/v1/query", "/v1/triples", "/v1/compact", "/v1/replication",
		"/v1/metrics",
	}
	for _, route := range routes {
		series := `rdfsum_http_request_duration_seconds_bucket{route="` + route + `"`
		if !strings.Contains(body, series) {
			t.Errorf("no latency histogram for route %s", route)
		}
	}
	// Both write methods of /v1/triples are distinguished by the method
	// label on the shared route.
	for _, method := range []string{"POST", "DELETE"} {
		series := `{route="/v1/triples",method="` + method + `"`
		if !strings.Contains(body, series) {
			t.Errorf("no %s sample for /v1/triples", method)
		}
	}
}

// TestServerRequestIDRoundTrip drives the middleware through the real
// server handler: a supplied ID is echoed, a missing one is generated.
func TestServerRequestIDRoundTrip(t *testing.T) {
	ts := testServer(t)
	req, err := http.NewRequest("GET", ts.URL+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.HeaderRequestID, "trace-me-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.HeaderRequestID); got != "trace-me-7" {
		t.Errorf("echoed request ID = %q, want trace-me-7", got)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.HeaderRequestID); len(got) != 16 {
		t.Errorf("generated request ID = %q, want 16 hex chars", got)
	}
}

// TestSlowQueryLogThresholdServer runs queries through a server armed
// with a slow-query log and checks the threshold gates recording.
func TestSlowQueryLogThresholdServer(t *testing.T) {
	run := func(threshold time.Duration) string {
		t.Helper()
		var logs syncLogBuffer
		logger, err := obs.NewLogger(&logs, slog.LevelInfo, "text")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := newServer(serverConfig{
			liveDir:   t.TempDir(),
			logger:    logger,
			slowQuery: threshold,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.close() }) //nolint:errcheck
		if err := srv.lv.AddBatch(rdfsum.GenerateBSBM(10).Decode()); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.handler())
		t.Cleanup(ts.Close)
		postQuery(t, ts.URL+"/v1/query", "SELECT ?s ?o WHERE { ?s ?p ?o . }")
		return logs.String()
	}

	slow := run(time.Nanosecond) // everything is slower than 1ns
	if !strings.Contains(slow, "slow query") {
		t.Errorf("1ns threshold recorded nothing:\n%s", slow)
	}
	for _, want := range []string{"duration=", "rows=", "epoch=", "plan="} {
		if !strings.Contains(slow, want) {
			t.Errorf("slow-query entry missing %s:\n%s", want, slow)
		}
	}

	fast := run(time.Hour) // nothing is slower than an hour
	if strings.Contains(fast, "slow query") {
		t.Errorf("1h threshold recorded a slow query:\n%s", fast)
	}
}

// TestSlowQueryCaptureDoesNotLeakExplain: arming the slow-query log
// forces plan capture internally, but the HTTP payload only carries the
// explain block when the client asked for it.
func TestSlowQueryCaptureDoesNotLeakExplain(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := newServer(serverConfig{
		liveDir:   t.TempDir(),
		logger:    logger,
		slowQuery: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.close() }) //nolint:errcheck
	if err := srv.lv.AddBatch(rdfsum.GenerateBSBM(10).Decode()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/query", "text/plain",
		strings.NewReader("SELECT ?s WHERE { ?s ?p ?o . }"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), `"explain"`) {
		t.Errorf("unrequested explain leaked into the payload:\n%s", body)
	}

	resp, err = http.Post(ts.URL+"/v1/query?explain=true", "text/plain",
		strings.NewReader("SELECT ?s WHERE { ?s ?p ?o . }"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"explain"`) {
		t.Errorf("requested explain missing from the payload:\n%s", body)
	}
}

// TestDebugHandlerServesVarsAndPprof covers the private -debug-addr mux.
func TestDebugHandlerServesVarsAndPprof(t *testing.T) {
	srv := newServerFromGraph(rdfsum.GenerateBSBM(5))
	ts := httptest.NewServer(srv.debugHandler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// One valid JSON document merging the instance registry with the
	// process-wide one (two concatenated objects would fail to decode).
	var vars map[string]float64
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not one JSON object: %v\n%s", err, body)
	}
	if resp.StatusCode != http.StatusOK || vars["rdfsum_triples"] <= 0 {
		t.Errorf("/debug/vars status %d, rdfsum_triples = %v", resp.StatusCode, vars["rdfsum_triples"])
	}
	if _, ok := vars["rdfsum_query_compile_seconds_count"]; !ok {
		t.Errorf("/debug/vars missing process-wide series:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}

	// The public handler must NOT expose pprof.
	pub := httptest.NewServer(srv.handler())
	t.Cleanup(pub.Close)
	resp, err = http.Get(pub.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("public mux serves pprof: status %d", resp.StatusCode)
	}
}

// syncLogBuffer is a goroutine-safe io.Writer for capturing slog output
// in tests (the HTTP server logs from handler goroutines).
type syncLogBuffer struct {
	logBuffer
}

func (b *syncLogBuffer) Write(p []byte) (int, error) {
	b.add(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// BenchmarkMetricsMiddleware measures the observability middleware's
// overhead against the real request path: the same query served by the
// bare mux vs the instrumented handler. The delta is the full per-
// request cost (request ID, histograms, log line).
func BenchmarkMetricsMiddleware(b *testing.B) {
	srv := newServerFromGraph(rdfsum.GenerateBSBM(20))
	srv.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	const q = "SELECT ?s ?o WHERE { ?s ?p ?o . }"

	run := func(b *testing.B, h http.Handler) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("POST", "/v1/query?limit=100", strings.NewReader(q))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("query status = %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, srv.mux()) })
	b.Run("instrumented", func(b *testing.B) { run(b, srv.handler()) })
}
