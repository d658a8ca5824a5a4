package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rdfsum"
	"rdfsum/client"
	"rdfsum/internal/httpapi"
)

// envelope mirrors the /v1 error envelope for decoding in tests.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// doReq issues a request and decodes the error envelope if any.
func doReq(t *testing.T, method, url, body string) (*http.Response, envelope) {
	t.Helper()
	var rdr *strings.Reader
	if body == "" {
		rdr = strings.NewReader("")
	} else {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	if resp.StatusCode >= 400 {
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s: status %d but body is not the error envelope: %v", method, url, resp.StatusCode, err)
		}
	}
	return resp, env
}

// TestUnversionedRoutesAreGone checks each of the nine formerly aliased
// routes answers under /v1 only: the unversioned path, with the route's
// own method, is a 404 with the not_found envelope and no deprecation
// header.
func TestUnversionedRoutesAreGone(t *testing.T) {
	ts, _ := liveTestServer(t, nil) // durable, so /v1/compact answers 200
	routes := []struct{ method, path, body string }{
		{"GET", "/healthz", ""},
		{"GET", "/metrics", ""},
		{"GET", "/stats", ""},
		{"GET", "/summary", ""},
		{"GET", "/profile", ""},
		{"POST", "/query", "SELECT ?x WHERE { ?x ?p ?o . }"},
		{"POST", "/triples", "<http://x/s> <http://x/p> <http://x/o> .\n"},
		{"DELETE", "/triples", "<http://x/s> <http://x/p> <http://x/o> .\n"},
		{"POST", "/compact", ""},
	}
	for _, rt := range routes {
		gone, env := doReq(t, rt.method, ts.URL+rt.path, rt.body)
		if gone.StatusCode != http.StatusNotFound || env.Error.Code != httpapi.CodeNotFound {
			t.Errorf("%s %s: status %d code %q, want 404 %s", rt.method, rt.path, gone.StatusCode, env.Error.Code, httpapi.CodeNotFound)
		}
		if !strings.Contains(env.Error.Message, "/v1/") {
			t.Errorf("%s %s: message %q does not point at /v1/", rt.method, rt.path, env.Error.Message)
		}
		if gone.Header.Get("Deprecation") != "" || gone.Header.Get("Link") != "" {
			t.Errorf("%s %s: a removed route still carries deprecation headers", rt.method, rt.path)
		}
		v1, _ := doReq(t, rt.method, ts.URL+"/v1"+rt.path, rt.body)
		if v1.StatusCode != http.StatusOK {
			t.Errorf("%s /v1%s status = %d", rt.method, rt.path, v1.StatusCode)
		}
		if v1.Header.Get("Deprecation") != "" {
			t.Errorf("%s /v1%s unexpectedly deprecated", rt.method, rt.path)
		}
	}
}

// TestV1ErrorEnvelope checks that every failure path answers with the
// JSON envelope and its documented status + stable code.
func TestV1ErrorEnvelope(t *testing.T) {
	ts := testServer(t) // memory-only
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"unknown route", "GET", "/v1/nope", "", 404, httpapi.CodeNotFound},
		{"route outside /v1", "GET", "/nope", "", 404, httpapi.CodeNotFound},
		{"bad summary kind", "GET", "/v1/summary?kind=nope", "", 400, httpapi.CodeInvalidArgument},
		{"bad summary format", "GET", "/v1/summary?format=xml", "", 400, httpapi.CodeInvalidArgument},
		{"bad query text", "POST", "/v1/query", "NOT SPARQL", 400, httpapi.CodeParse},
		{"bad query limit", "POST", "/v1/query?limit=-3", "SELECT ?x WHERE { ?x ?p ?o . }", 400, httpapi.CodeInvalidArgument},
		{"bad prune kind", "POST", "/v1/query?prune=bogus", "SELECT ?x WHERE { ?x ?p ?o . }", 400, httpapi.CodeInvalidArgument},
		{"bad triples body", "POST", "/v1/triples", "not ntriples", 400, httpapi.CodeParse},
		{"compact without -live", "POST", "/v1/compact", "", 409, httpapi.CodeMemoryOnly},
	}
	for _, tc := range cases {
		resp, env := doReq(t, tc.method, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, env.Error.Code, tc.code)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

// leaderFollowerServers boots a durable leader rdfsumd and a follower
// replicating from it, both as in-process httptest servers.
func leaderFollowerServers(t *testing.T) (leader, follower *httptest.Server, leaderSrv *server) {
	t.Helper()
	lsrv, err := newServer(serverConfig{liveDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lsrv.close() })
	lts := httptest.NewServer(lsrv.handler())
	t.Cleanup(lts.Close)

	fsrv, err := newServer(serverConfig{follow: lts.URL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fsrv.close() })
	fts := httptest.NewServer(fsrv.handler())
	t.Cleanup(fts.Close)
	return lts, fts, lsrv
}

// waitReplicated polls the follower's /v1/replication until it reports
// zero lag against a tailing state.
func waitReplicated(t *testing.T, fc *client.Client) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rs, err := fc.ReplicationStatus(ctx)
		if err == nil && rs.State == "tailing" && rs.LagBytes == 0 && rs.LagEpochs == 0 && rs.Bootstraps > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	rs, err := fc.ReplicationStatus(ctx)
	t.Fatalf("follower did not catch up: %+v (err %v)", rs, err)
}

// queryRows fetches one query's rows through the typed client, sorted
// for comparison.
func queryRows(t *testing.T, c *client.Client, q string) []string {
	t.Helper()
	res, err := c.Query(context.Background(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "\t")
	}
	sort.Strings(rows)
	return rows
}

// TestFollowerServesReadsRejectsWrites is the follower contract: reads
// are served (identically to the leader), mutations answer "read_only".
func TestFollowerServesReadsRejectsWrites(t *testing.T) {
	lts, fts, _ := leaderFollowerServers(t)
	lc, err := client.New(lts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := client.New(fts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Ingest on the leader, converge the follower.
	triples := rdfsum.GenerateBSBM(10).Decode()
	if _, err := lc.Ingest(ctx, triples); err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, fc)

	// Identical query results on both sides.
	const q = "SELECT ?s ?o WHERE { ?s ?p ?o . }"
	if lrows, frows := queryRows(t, lc, q), queryRows(t, fc, q); !equalStrings(lrows, frows) {
		t.Fatalf("query results diverge: leader %d rows, follower %d rows", len(lrows), len(frows))
	}

	// Mutations are rejected with the stable code, and change nothing.
	for _, try := range []func() error{
		func() error { _, err := fc.Ingest(ctx, triples[:1]); return err },
		func() error { _, err := fc.Delete(ctx, triples[:1]); return err },
		func() error { _, err := fc.Compact(ctx); return err },
	} {
		err := try()
		if !client.IsCode(err, httpapi.CodeReadOnly) {
			t.Errorf("follower mutation error = %v, want code %q", err, httpapi.CodeReadOnly)
		}
	}

	// Raw HTTP contract: 403 + envelope on the mutating routes.
	for _, rt := range []struct{ method, path string }{
		{"POST", "/v1/triples"}, {"DELETE", "/v1/triples"}, {"POST", "/v1/compact"},
	} {
		resp, env := doReq(t, rt.method, fts.URL+rt.path, "<http://x/s> <http://x/p> <http://x/o> .\n")
		if resp.StatusCode != http.StatusForbidden || env.Error.Code != httpapi.CodeReadOnly {
			t.Errorf("%s %s: status %d code %q", rt.method, rt.path, resp.StatusCode, env.Error.Code)
		}
	}

	// Deletes on the leader converge too.
	if _, err := lc.Delete(ctx, triples[:20]); err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, fc)
	if lrows, frows := queryRows(t, lc, q), queryRows(t, fc, q); !equalStrings(lrows, frows) {
		t.Fatalf("post-delete divergence: leader %d rows, follower %d rows", len(lrows), len(frows))
	}

	// Roles are reported on both ends.
	lrs, err := lc.ReplicationStatus(ctx)
	if err != nil || lrs.Role != "leader" {
		t.Errorf("leader role = %+v (err %v)", lrs, err)
	}
	frs, err := fc.ReplicationStatus(ctx)
	if err != nil || frs.Role != "follower" || frs.Leader != lts.URL {
		t.Errorf("follower role = %+v (err %v)", frs, err)
	}

	// Follower stats advertise read_only.
	fst, err := fc.Stats(ctx)
	if err != nil || !fst.ReadOnly {
		t.Errorf("follower stats read_only = %+v (err %v)", fst, err)
	}
}

// TestFollowerCachesFollowTheStore: a re-bootstrap swaps the follower's
// store for one whose epochs restart at 1, so a cache built from the old
// store can carry the very epoch the new one reaches. Here both reach
// epoch 3, with different triples, and after the swap no pruning gate,
// saturated graph or planner weights of the old store is served: a query
// on a property only the new store holds finds its rows through the gate
// and under saturation, and its explained estimate counts them.
func TestFollowerCachesFollowTheStore(t *testing.T) {
	lsrv, err := newServer(serverConfig{liveDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lsrv.close() })
	lts := httptest.NewServer(lsrv.handler())
	t.Cleanup(lts.Close)
	fsrv, err := newServer(serverConfig{follow: lts.URL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fsrv.close() })
	fts := httptest.NewServer(fsrv.handler())
	t.Cleanup(fts.Close)

	// ingest lands two batches of n triples of property p on the leader,
	// and waits until the follower's bootstraps-th store has applied them:
	// its epoch 3.
	const n = 6
	ingest := func(p string, bootstraps uint64) *rdfsum.Live {
		t.Helper()
		for b := 0; b < 2; b++ {
			var body strings.Builder
			for i := 0; i < n/2; i++ {
				fmt.Fprintf(&body, "<http://x/s%d> <%s> <http://x/o%d> .\n", b*n+i, p, i)
			}
			if code, ack := postBody(t, lts.URL+"/v1/triples", body.String()); code != http.StatusOK {
				t.Fatalf("ingest: %d %v", code, ack)
			}
		}
		rs, err := lsrv.lv.ReplState()
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for st := fsrv.follower.Status(); st.Bootstraps != bootstraps || st.Generation != rs.Gen || st.AppliedOffset != rs.WALSize; st = fsrv.follower.Status() {
			if time.Now().After(deadline) {
				t.Fatalf("follower did not apply the batches: %+v, leader %+v", st, rs)
			}
			time.Sleep(5 * time.Millisecond)
		}
		lv := fsrv.state()
		if lv.Epoch() != 3 {
			t.Fatalf("follower store %d is at epoch %d; the test needs epoch 3", bootstraps, lv.Epoch())
		}
		return lv
	}
	// serve runs the three cached paths on property p and checks each
	// finds n rows.
	serve := func(p string) {
		t.Helper()
		q := fmt.Sprintf(`SELECT ?s ?o WHERE { ?s <%s> ?o }`, p)
		for _, params := range []string{"?prune=weak", "?saturate=true&prune=off", "?explain=1&prune=off"} {
			code, body := postQuery(t, fts.URL+"/v1/query"+params, q)
			if code != http.StatusOK {
				t.Fatalf("%s: %d %v", params, code, body)
			}
			if body["count"] != float64(n) {
				t.Errorf("%s on %s: %v rows, want %d", params, p, body["count"], n)
			}
			if explain, ok := body["explain"].(map[string]any); ok && explain["query_est"] != float64(n) {
				t.Errorf("%s on %s: query_est %v, want the %d triples of the store queried", params, p, explain["query_est"], n)
			}
		}
	}

	old := ingest("http://x/old", 1)
	serve("http://x/old")
	if err := lsrv.lv.Compact(); err != nil {
		t.Fatal(err)
	}
	if cur := ingest("http://x/new", 2); cur == old {
		t.Fatal("the compaction did not swap the follower's store")
	}
	serve("http://x/new")
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClientRoundTrip drives the full /v1 surface through the typed
// client against a durable in-process server.
func TestClientRoundTrip(t *testing.T) {
	srv, err := newServer(serverConfig{liveDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.close() })
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	triples := rdfsum.GenerateBSBM(5).Decode()
	ing, err := c.Ingest(ctx, triples)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Added != len(triples) || !ing.Durable {
		t.Errorf("ingest = %+v", ing)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Triples == 0 || !st.Durable || st.ReadOnly {
		t.Errorf("stats = %+v", st)
	}
	sum, err := c.Summary(ctx, "weak")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Kind != "weak" || sum.DataEdges == 0 {
		t.Errorf("summary = %+v", sum)
	}
	nt, err := c.SummaryNTriples(ctx, "strong")
	if err != nil {
		t.Fatal(err)
	}
	nt.Close()
	res, err := c.Query(ctx, "SELECT ?s WHERE { ?s ?p ?o . }", &client.QueryOptions{Limit: 7, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 7 || !res.Truncated || len(res.Explain) == 0 {
		t.Errorf("query = count %d truncated %v explain %d bytes", res.Count, res.Truncated, len(res.Explain))
	}
	del, err := c.Delete(ctx, triples[:3])
	if err != nil {
		t.Fatal(err)
	}
	if del.Removed != 3 {
		t.Errorf("delete removed = %d, want 3", del.Removed)
	}
	cp, err := c.Compact(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Generation == 0 {
		t.Errorf("compact = %+v", cp)
	}
	rs, err := c.ReplicationStatus(ctx)
	if err != nil || rs.Role != "leader" || !rs.Durable {
		t.Errorf("replication = %+v (err %v)", rs, err)
	}

	// Typed errors carry the server's stable code and status.
	_, err = c.Query(ctx, "NOT SPARQL", nil)
	if !client.IsCode(err, httpapi.CodeParse) {
		t.Errorf("query parse error = %v", err)
	}
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("query parse error status = %+v", apiErr)
	}
	_, err = c.Summary(ctx, "bogus")
	if !client.IsCode(err, httpapi.CodeInvalidArgument) {
		t.Errorf("summary kind error = %v", err)
	}
}

// TestQueryResponseCompact: a JSON answer is compact — one line and its
// newline, however many rows and however deep the explain plan — and
// the client decodes it to the rows the body holds.
func TestQueryResponseCompact(t *testing.T) {
	ts, _ := liveTestServer(t, nil)
	if code, body := postBody(t, ts.URL+"/v1/triples", ntBody(0, 25)); code != http.StatusOK {
		t.Fatalf("ingest: %d %v", code, body)
	}
	const q = "SELECT ?s ?o WHERE { ?s <http://x/p1> ?o . }"
	resp, err := http.Post(ts.URL+"/v1/query?explain=1", "application/sparql-query", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %v", resp.StatusCode, err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 1 || raw[len(raw)-1] != '\n' || !json.Valid(raw) {
		t.Fatalf("the body is not one JSON line and its newline (%d newlines):\n%s", n, raw)
	}
	var want client.QueryResult
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.Count != 5 || len(want.Rows) != 5 || len(want.Explain) == 0 {
		t.Fatalf("the body holds %d rows (count %d) and a %d-byte plan, want 5 rows and a plan", len(want.Rows), want.Count, len(want.Explain))
	}
	cl, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.Query(context.Background(), q, &client.QueryOptions{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Vars, want.Vars) || !reflect.DeepEqual(got.Rows, want.Rows) || got.Count != want.Count {
		t.Fatalf("the client decoded %v %v, the body holds %v %v", got.Vars, got.Rows, want.Vars, want.Rows)
	}
}
