package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdfsum"
)

// ttlBody renders n distinct triples as a Turtle document with a prefix
// directive, exercising the non-line-delimited ingest path.
func ttlBody(start, n int) string {
	var b strings.Builder
	b.WriteString("@prefix x: <http://x/> .\n")
	for i := start; i < start+n; i++ {
		fmt.Fprintf(&b, "x:s%d x:p%d x:o%d .\n", i, i%5, i%11)
	}
	return b.String()
}

// compressed encodes body with the given codec via the public writer.
func compressed(t *testing.T, body string, c rdfsum.Compression) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := rdfsum.NewCompressionWriter(&buf, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte(body)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postRaw issues a POST /triples with explicit Content-Type and
// Content-Encoding headers and returns the full response.
func postRaw(t *testing.T, url, contentType, encoding string, body []byte) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/triples", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp, out
}

// errCode digs the stable code out of an error envelope.
func errCode(body map[string]any) string {
	env, _ := body["error"].(map[string]any)
	code, _ := env["code"].(string)
	return code
}

// TestIngestContentNegotiation: POST /triples accepts every supported
// (serialization × encoding) combination and lands the same triples. A
// zstd body is refused by its Content-Encoding alone, with 415 and a
// message naming gzip, and lands nothing.
func TestIngestContentNegotiation(t *testing.T) {
	cases := []struct {
		name        string
		contentType string
		encoding    string
		body        func(start, n int) string
		codec       rdfsum.Compression
		refused     bool
	}{
		{"nt-plain", "application/n-triples", "", ntBody, rdfsum.CompressionNone, false},
		{"nt-gzip", "application/n-triples", "gzip", ntBody, rdfsum.CompressionGzip, false},
		{"nt-zstd", "application/n-triples", "zstd", ntBody, rdfsum.CompressionNone, true},
		{"turtle-plain", "text/turtle", "", ttlBody, rdfsum.CompressionNone, false},
		{"turtle-gzip", "text/turtle; charset=utf-8", "gzip", ttlBody, rdfsum.CompressionGzip, false},
		{"turtle-zstd", "text/turtle", "zstd", ttlBody, rdfsum.CompressionNone, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, srv := liveTestServer(t, nil)
			doc := tc.body(0, 30)
			payload := []byte(doc)
			if tc.codec != rdfsum.CompressionNone {
				payload = compressed(t, doc, tc.codec)
			}
			resp, body := postRaw(t, ts.URL, tc.contentType, tc.encoding, payload)
			if tc.refused {
				env, _ := body["error"].(map[string]any)
				msg, _ := env["message"].(string)
				if resp.StatusCode != http.StatusUnsupportedMediaType || errCode(body) != "unsupported_encoding" ||
					!strings.Contains(msg, "gzip") {
					t.Fatalf("status = %d, body %v; want 415 unsupported_encoding naming gzip", resp.StatusCode, body)
				}
				if got := srv.lv.Stats().Triples; got != 0 {
					t.Fatalf("refused upload published %d triples", got)
				}
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %v", resp.StatusCode, body)
			}
			if body["added"].(float64) != 30 {
				t.Fatalf("added = %v, want 30", body["added"])
			}
			if got := srv.lv.Stats().Triples; got != 30 {
				t.Fatalf("store holds %d triples, want 30", got)
			}
		})
	}
}

// TestIngestUnsupportedEncoding: an unknown Content-Encoding is refused
// up front with the stable code, before any body is read.
func TestIngestUnsupportedEncoding(t *testing.T) {
	ts, _ := liveTestServer(t, nil)
	resp, body := postRaw(t, ts.URL, "application/n-triples", "br", []byte(ntBody(0, 5)))
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415", resp.StatusCode)
	}
	if errCode(body) != "unsupported_encoding" {
		t.Fatalf("code = %q, want unsupported_encoding", errCode(body))
	}
}

// TestIngestUnsupportedMediaType: a Content-Type the server cannot parse
// is refused with the stable code.
func TestIngestUnsupportedMediaType(t *testing.T) {
	ts, _ := liveTestServer(t, nil)
	resp, body := postRaw(t, ts.URL, "application/rdf+xml", "", []byte(ntBody(0, 5)))
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415", resp.StatusCode)
	}
	if errCode(body) != "unsupported_media_type" {
		t.Fatalf("code = %q, want unsupported_media_type", errCode(body))
	}
}

// TestIngestCorruptCompressedBody: a truncated gzip upload fails the
// whole request — nothing from the readable prefix is published.
func TestIngestCorruptCompressedBody(t *testing.T) {
	ts, srv := liveTestServer(t, nil)
	full := compressed(t, ntBody(0, 200), rdfsum.CompressionGzip)
	resp, body := postRaw(t, ts.URL, "application/n-triples", "gzip", full[:len(full)/2])
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %v", resp.StatusCode, body)
	}
	if errCode(body) != "parse_error" {
		t.Fatalf("code = %q, want parse_error", errCode(body))
	}
	if got := srv.lv.Stats().Triples; got != 0 {
		t.Fatalf("truncated upload published %d triples", got)
	}
}

// TestIngestBackpressure429: with a single-batch queue, concurrent
// ingests must shed load as 429 + Retry-After + "ingest_overloaded",
// and the rejection shows up in /stats.
func TestIngestBackpressure429(t *testing.T) {
	srv, err := newServer(serverConfig{liveDir: t.TempDir(), queueDepth: 1, queueBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.close() }) //nolint:errcheck
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	var overloaded atomic.Int32
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; overloaded.Load() == 0 && time.Now().Before(deadline); round++ {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, body := postRaw(t, ts.URL, "application/n-triples", "",
					[]byte(ntBody((round*8+i)*500, 500)))
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					if errCode(body) != "ingest_overloaded" {
						t.Errorf("429 code = %q, want ingest_overloaded", errCode(body))
					}
					if resp.Header.Get("Retry-After") == "" {
						t.Error("429 without Retry-After header")
					}
					overloaded.Add(1)
				default:
					t.Errorf("status = %d: %v", resp.StatusCode, body)
				}
			}(i)
		}
		wg.Wait()
	}
	if overloaded.Load() == 0 {
		t.Fatal("never observed a 429 from a saturated single-batch queue")
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats["ingest_queue_rejected"].(float64) < 1 {
		t.Fatalf("stats ingest_queue_rejected = %v, want >= 1", stats["ingest_queue_rejected"])
	}
	if stats["ingest_queue_max_depth"].(float64) != 1 {
		t.Fatalf("stats ingest_queue_max_depth = %v, want 1", stats["ingest_queue_max_depth"])
	}
}

// TestStatsAndMetricsReportQueue: queue occupancy is visible in both the
// JSON stats and the Prometheus exposition.
func TestStatsAndMetricsReportQueue(t *testing.T) {
	ts, _ := liveTestServer(t, nil)
	var stats map[string]any
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats["ingest_queue_max_depth"].(float64) != 256 {
		t.Fatalf("default ingest_queue_max_depth = %v, want 256", stats["ingest_queue_max_depth"])
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"rdfsum_ingest_queue_depth ",
		"rdfsum_ingest_queue_max_depth ",
		"rdfsum_ingest_queue_bytes ",
		"rdfsum_ingest_queue_max_bytes ",
		"rdfsum_ingest_queue_rejected_total ",
	} {
		if !strings.Contains(b.String(), metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
}

// TestQueryCellNamesItsTerm: a query names the terms an ingest stores.
// The IRI http://a/b c is ingested and returned as <http://a/b\u0020c>;
// that cell, pasted into a second query, finds its row, and a \u escape
// names the same IRI as the character it stands for.
func TestQueryCellNamesItsTerm(t *testing.T) {
	ts, _ := liveTestServer(t, nil)
	doc := "<http://a/s> <http://a/p> <http://a/b\\u0020c> .\n<http://a/t> <http://a/p> <http://a/A> .\n"
	if code, body := postBody(t, ts.URL+"/v1/triples", doc); code != http.StatusOK {
		t.Fatalf("ingest: %d %v", code, body)
	}
	cells := func(q string) []string {
		t.Helper()
		code, body := postQuery(t, ts.URL+"/v1/query", q)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %v", q, code, body)
		}
		var out []string
		for _, row := range body["rows"].([]any) {
			out = append(out, row.([]any)[0].(string))
		}
		return out
	}
	got := cells(`SELECT ?o WHERE { <http://a/s> <http://a/p> ?o }`)
	if len(got) != 1 || got[0] != `<http://a/b\u0020c>` {
		t.Fatalf("object cells %q, want [<http://a/b\\u0020c>]", got)
	}
	if subj := cells("SELECT ?s WHERE { ?s <http://a/p> " + got[0] + " }"); len(subj) != 1 || subj[0] != "<http://a/s>" {
		t.Fatalf("the pasted cell %s found %q, want [<http://a/s>]", got[0], subj)
	}
	if subj := cells(`SELECT ?s WHERE { ?s <http://a/p> <http://a/\u0041> }`); len(subj) != 1 || subj[0] != "<http://a/t>" {
		t.Fatalf(`<http://a/\u0041> found %q, want [<http://a/t>]`, subj)
	}
}
