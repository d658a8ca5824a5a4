package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rdfsum"
)

// newServerFromGraph serves a memory-only store over g.
func newServerFromGraph(g *rdfsum.Graph) *server {
	lv := rdfsum.NewLive(g, nil)
	s := &server{lv: lv, queue: rdfsum.NewIngestQueue(lv, 0, 0)}
	s.initObs(nil, 0)
	return s
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := newServerFromGraph(rdfsum.GenerateBSBM(40))
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	resp := getJSON(t, ts.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	var body map[string]any
	getJSON(t, ts.URL+"/v1/stats", &body)
	if body["triples"].(float64) <= 0 {
		t.Errorf("stats triples = %v", body["triples"])
	}
	if body["properties"].(float64) != 34 {
		t.Errorf("stats properties = %v, want 34", body["properties"])
	}
}

func TestSummaryEndpoint(t *testing.T) {
	ts := testServer(t)
	var body map[string]any
	resp := getJSON(t, ts.URL+"/v1/summary?kind=weak", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body["kind"] != "weak" || body["data_edges"].(float64) != 34 {
		t.Errorf("summary body = %v", body)
	}

	// N-Triples body.
	resp, err := http.Get(ts.URL + "/v1/summary?kind=strong&format=ntriples")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := readAll(buf, resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rdfsum:s?") {
		t.Error("ntriples format missing summary nodes")
	}

	// DOT body.
	resp, err = http.Get(ts.URL + "/v1/summary?format=dot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := readAll(buf, resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Error("dot format missing digraph")
	}

	// Errors.
	if resp := getJSON(t, ts.URL+"/v1/summary?kind=nope", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kind status = %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/v1/summary?format=xml", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad format status = %d", resp.StatusCode)
	}
}

func TestProfileEndpoint(t *testing.T) {
	ts := testServer(t)
	var body struct {
		Kinds []struct {
			Label     string `json:"label"`
			Instances int    `json:"instances"`
		} `json:"kinds"`
	}
	getJSON(t, ts.URL+"/v1/profile", &body)
	found := false
	for _, k := range body.Kinds {
		if k.Label == "{Offer}" && k.Instances == 40*3 {
			found = true
		}
	}
	if !found {
		t.Errorf("profile missing {Offer} with 120 instances: %+v", body.Kinds)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := testServer(t)
	q := `PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
		SELECT ?o WHERE { ?o bsbm:price ?p }`
	resp, err := http.Post(ts.URL+"/v1/query", "application/sparql-query", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Count int        `json:"count"`
		Rows  [][]string `json:"rows"`
		Vars  []string   `json:"vars"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 40*3 {
		t.Errorf("query count = %d, want 120", body.Count)
	}

	// Saturated evaluation sees implicit types.
	q2 := `PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
		PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
		SELECT ?x WHERE { ?x rdf:type bsbm:Product }`
	resp2, err := http.Post(ts.URL+"/v1/query?saturate=true", "application/sparql-query", strings.NewReader(q2))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var body2 struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body2); err != nil {
		t.Fatal(err)
	}
	if body2.Count != 40 {
		t.Errorf("saturated type query count = %d, want 40", body2.Count)
	}

	// Malformed query.
	resp3, err := http.Post(ts.URL+"/v1/query", "text/plain", strings.NewReader("not sparql"))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed query status = %d", resp3.StatusCode)
	}
}

// TestQueryBodyTooLarge: a query whose text runs past maxQueryBody is
// refused whole with 413, not parsed as its first maxQueryBody bytes.
func TestQueryBodyTooLarge(t *testing.T) {
	ts := testServer(t)
	q := `PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
		SELECT ?o WHERE { ?o bsbm:price ?p ` + strings.Repeat(" ", maxQueryBody) + `}`
	code, body := postQuery(t, ts.URL+"/v1/query", q)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", code)
	}
	if errBody, _ := body["error"].(map[string]any); errBody["code"] != "payload_too_large" {
		t.Errorf("error = %v, want code payload_too_large", body["error"])
	}
}

// postQuery posts q and decodes the JSON response.
func postQuery(t *testing.T, url, q string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/sparql-query", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, body
}

const priceQuery = `PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
	SELECT ?o WHERE { ?o bsbm:price ?p }`

func TestQueryLimitParam(t *testing.T) {
	ts := testServer(t)

	// Client limit below the answer count (120): rows cut, truncated set.
	code, body := postQuery(t, ts.URL+"/v1/query?limit=7", priceQuery)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["count"].(float64) != 7 || body["truncated"] != true {
		t.Errorf("limited query = count %v truncated %v, want 7/true",
			body["count"], body["truncated"])
	}

	// No limit: all 120 answers, not truncated.
	_, body = postQuery(t, ts.URL+"/v1/query", priceQuery)
	if body["count"].(float64) != 120 || body["truncated"] != false {
		t.Errorf("default query = count %v truncated %v, want 120/false",
			body["count"], body["truncated"])
	}

	// Invalid limits are rejected.
	for _, bad := range []string{"0", "-3", "abc"} {
		code, _ := postQuery(t, ts.URL+"/v1/query?limit="+bad, priceQuery)
		if code != http.StatusBadRequest {
			t.Errorf("limit=%s status = %d, want 400", bad, code)
		}
	}
}

func TestQueryExplainParam(t *testing.T) {
	ts := testServer(t)
	code, body := postQuery(t, ts.URL+"/v1/query?explain=true", priceQuery)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	ex, ok := body["explain"].(map[string]any)
	if !ok {
		t.Fatalf("explain missing from response: %v", body)
	}
	if ex["used_stats"] != true {
		t.Errorf("explain.used_stats = %v, want true (weak-summary weights)", ex["used_stats"])
	}
	steps := ex["steps"].([]any)
	if len(steps) != 1 {
		t.Fatalf("explain.steps = %v, want 1 step", steps)
	}
	step := steps[0].(map[string]any)
	if step["est"].(float64) != 120 || step["actual"].(float64) != 120 {
		t.Errorf("step est/actual = %v/%v, want 120/120", step["est"], step["actual"])
	}
}

func TestQueryPruning(t *testing.T) {
	ts := testServer(t)
	// Offers have price, reviews have reviewDate: no node carries both,
	// so the weak-summary gate proves the join empty.
	empty := `PREFIX bsbm: <http://bsbm.example.org/vocabulary/>
		SELECT ?o WHERE { ?o bsbm:price ?x . ?o bsbm:reviewDate ?d }`
	code, body := postQuery(t, ts.URL+"/v1/query?explain=true", empty)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["count"].(float64) != 0 {
		t.Errorf("count = %v, want 0", body["count"])
	}
	ex := body["explain"].(map[string]any)
	if ex["pruned"] != true || ex["pruned_by"] != "weak" {
		t.Errorf("explain = %v, want pruned by weak summary", ex)
	}

	// Same query with pruning off still returns 0 rows, unpruned.
	_, body = postQuery(t, ts.URL+"/v1/query?explain=true&prune=off", empty)
	if body["count"].(float64) != 0 {
		t.Errorf("unpruned count = %v, want 0", body["count"])
	}
	if ex := body["explain"].(map[string]any); ex["pruned"] != false {
		t.Errorf("prune=off still pruned: %v", ex)
	}

	// Pruning must not change non-empty answers.
	_, body = postQuery(t, ts.URL+"/v1/query?prune=typed-weak", priceQuery)
	if body["count"].(float64) != 120 {
		t.Errorf("typed-weak gated count = %v, want 120", body["count"])
	}

	// Unknown prune kind is rejected.
	code, _ = postQuery(t, ts.URL+"/v1/query?prune=nope", priceQuery)
	if code != http.StatusBadRequest {
		t.Errorf("prune=nope status = %d, want 400", code)
	}
}

// TestSummarySingleflight: concurrent requests for different summary
// kinds must all succeed (the per-kind cells build independently; one
// build no longer serializes the others behind a global lock).
func TestSummarySingleflight(t *testing.T) {
	ts := testServer(t)
	kinds := []string{"weak", "strong", "typed-weak", "typed-strong", "weak", "strong"}
	errs := make(chan error, len(kinds))
	for _, k := range kinds {
		go func(kind string) {
			resp, err := http.Get(ts.URL + "/v1/summary?kind=" + kind)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("kind %s: status %d", kind, resp.StatusCode)
				return
			}
			errs <- nil
		}(k)
	}
	for range kinds {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// fetchSummary is the body of GET /v1/summary?format=…&kind=… on the
// server at base.
func fetchSummary(t *testing.T, base string, kind rdfsum.Kind, format string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/summary?format=" + format + "&kind=" + kind.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%v %s: status %d, %v", kind, format, resp.StatusCode, err)
	}
	return string(body)
}

func readAll(dst *strings.Builder, resp *http.Response) (int64, error) {
	n, err := io.Copy(dst, resp.Body)
	return n, err
}

// TestSummaryExportDeterministic: GET /v1/summary?format=ntriples|dot of
// the same graph gives the same bytes from every server that builds the
// summary, for every kind — the summary's node IDs, and so the exported
// triple order, depend on the graph alone.
func TestSummaryExportDeterministic(t *testing.T) {
	triples := rdfsum.GenerateBSBM(10).Decode()
	fetch := func(ts *httptest.Server, kind rdfsum.Kind, format string) string {
		return fetchSummary(t, ts.URL, kind, format)
	}
	want := map[string]string{}
	for i := 0; i < 5; i++ {
		ts := httptest.NewServer(newServerFromGraph(rdfsum.NewGraph(triples)).handler())
		for _, kind := range rdfsum.Kinds {
			for _, format := range []string{"ntriples", "dot"} {
				key := kind.String() + "/" + format
				got := fetch(ts, kind, format)
				if i == 0 {
					want[key] = got
				} else if got != want[key] {
					t.Errorf("server %d: %s export differs from the first server's", i+1, key)
				}
			}
		}
		ts.Close()
	}
}
