package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdfsum/client"
)

// TestWireSchemaMatchesClient: the server writes its /v1 JSON bodies as
// maps and the client declares the same shapes again as structs, so the
// two can drift. Every JSON response — of a leader, a follower and a
// standalone store — must decode into its client type with no field the
// type lacks.
func TestWireSchemaMatchesClient(t *testing.T) {
	lsrv, err := newServer(serverConfig{liveDir: t.TempDir(), noSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lsrv.close() }) //nolint:errcheck
	leader := httptest.NewServer(lsrv.handler())
	t.Cleanup(leader.Close)
	standalone := testServer(t)

	// strict sends one request and decodes its 200 body into out.
	strict := func(method, url, body string, out any) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, raw)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(out); err != nil {
			t.Errorf("%s %s: %v", method, url, err)
		}
	}

	strict("POST", leader.URL+"/v1/triples", ntBody(0, 20), &client.IngestResult{})
	strict("DELETE", leader.URL+"/v1/triples", ntBody(0, 1), &client.DeleteResult{})
	for _, base := range []string{leader.URL, standalone.URL} {
		strict("GET", base+"/v1/stats", "", &client.Stats{})
		strict("GET", base+"/v1/summary?kind=weak&format=json", "", &client.SummaryInfo{})
		for _, params := range []string{"", "?explain=1", "?saturate=true", "?prune=off"} {
			strict("POST", base+"/v1/query"+params, `SELECT ?s ?o WHERE { ?s ?p ?o }`, &client.QueryResult{})
		}
	}
	strict("POST", leader.URL+"/v1/compact", "", &client.CompactResult{})

	fsrv, err := newServer(serverConfig{follow: leader.URL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fsrv.close() }) //nolint:errcheck
	follower := httptest.NewServer(fsrv.handler())
	t.Cleanup(follower.Close)
	for deadline := time.Now().Add(10 * time.Second); fsrv.follower.Status().Bootstraps == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower did not bootstrap: %+v", fsrv.follower.Status())
		}
	}
	for role, base := range map[string]string{"leader": leader.URL, "follower": follower.URL, "standalone": standalone.URL} {
		var st client.ReplicationStatus
		strict("GET", base+"/v1/replication", "", &st)
		if st.Role != role {
			t.Errorf("%s reports role %q", role, st.Role)
		}
	}
}
