package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdfsum"
	"rdfsum/client"
)

// TestE2EStreamingIngest is the `make ingest-smoke` check: a cold
// gzipped Turtle dump boots a real rdfsumd process straight into
// serving summaries and queries — compressed input is decoded as a
// streaming stage into the loader, never materialized — then a
// zstd-compressed streaming upload through the typed client lands more
// triples on the running server.
func TestE2EStreamingIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e test; skipped in -short mode")
	}
	bin := buildRdfsumd(t)
	ctx := context.Background()

	g := rdfsum.GenerateBSBM(30)
	dump := filepath.Join(t.TempDir(), "dump.ttl.gz")
	f, err := os.Create(dump)
	if err != nil {
		t.Fatal(err)
	}
	zw, err := rdfsum.NewCompressionWriter(f, rdfsum.CompressionGzip)
	if err != nil {
		t.Fatal(err)
	}
	if err := rdfsum.WriteTurtle(zw, g.Decode()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	url, _, _ := startDaemon(t, bin, "-in", dump, "-addr", "127.0.0.1:0")
	cl, err := client.New(url)
	if err != nil {
		t.Fatal(err)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Triples != g.NumEdges() {
		t.Fatalf("server serves %d triples from the gzipped dump, want %d", st.Triples, g.NumEdges())
	}
	sum, err := cl.Summary(ctx, "weak")
	if err != nil {
		t.Fatal(err)
	}
	if sum.DataNodes <= 0 || sum.AllEdges <= 0 {
		t.Fatalf("weak summary from compressed boot is empty: %+v", sum)
	}
	if _, err := cl.Query(ctx, "SELECT ?s ?o WHERE { ?s ?p ?o . }", &client.QueryOptions{Limit: 5}); err != nil {
		t.Fatal(err)
	}

	// Compressed streaming upload against the running server.
	const extra = 120
	res, err := cl.IngestStream(ctx, strings.NewReader(ntBody(1_000_000, extra)),
		&client.IngestOptions{Compression: rdfsum.CompressionZstd})
	if err != nil {
		t.Fatal(err)
	}
	if res.Added != extra {
		t.Fatalf("compressed upload added %d triples, want %d", res.Added, extra)
	}
	st2, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Triples != st.Triples+extra {
		t.Fatalf("triples after upload = %d, want %d", st2.Triples, st.Triples+extra)
	}
}
