package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"rdfsum"
	"rdfsum/client"
)

// TestE2EShutdownOnSIGTERM: a real rdfsumd process with a durable store
// acknowledges batches, is sent SIGTERM, and exits 0 with its "shutdown"
// log line; the store then reopens in process, cleanly, with every
// acknowledged triple in it.
func TestE2EShutdownOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level e2e test; skipped in -short mode")
	}
	bin := buildRdfsumd(t)
	dir := t.TempDir()
	url, logs, cmd := startDaemon(t, bin, "-live", dir, "-addr", "127.0.0.1:0")
	cl, err := client.New(url)
	if err != nil {
		t.Fatal(err)
	}
	triples := rdfsum.GenerateBSBM(15).Decode()
	for start := 0; start < len(triples); start += 100 {
		if _, err := cl.Ingest(context.Background(), triples[start:min(start+100, len(triples))]); err != nil {
			t.Fatal(err)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// The log line first: Wait closes the stderr pipe, so reading must be
	// done before it is called.
	deadline := time.Now().Add(20 * time.Second)
	for !strings.Contains(logs.String(), "msg=shutdown") {
		if time.Now().After(deadline) {
			t.Fatalf("no shutdown log line after SIGTERM; log:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("rdfsumd exited with %v after SIGTERM, want status 0; log:\n%s", err, logs.String())
	}

	lv, err := rdfsum.OpenLive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if lv.RecoveredTorn {
		t.Error("reopening after a clean shutdown dropped a torn WAL tail")
	}
	stored := map[rdfsum.Triple]bool{}
	for _, tr := range lv.Snapshot().Graph.Decode() {
		stored[tr] = true
	}
	for _, tr := range triples {
		if !stored[tr] {
			t.Fatalf("acknowledged triple %v is missing after the restart", tr)
		}
	}
}

// TestListenerHeaderTimeout: a connection that never finishes its request
// headers is closed once the header timeout passes, while a complete
// request is served as usual.
func TestListenerHeaderTimeout(t *testing.T) {
	srv := newServerFromGraph(rdfsum.GenerateBSBM(5))
	t.Cleanup(func() { srv.close() }) //nolint:errcheck
	hs := newHTTPServer(srv.handler())
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 || hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("listener timeouts: header %v, idle %v, read %v, write %v; want header and idle only",
			hs.ReadHeaderTimeout, hs.IdleTimeout, hs.ReadTimeout, hs.WriteTimeout)
	}
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.Cleanup(func() {
		hs.Close() //nolint:errcheck
		<-served
	})

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete request: status %d", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: rdfsumd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with unfinished headers still open after %v: %v", time.Since(start), err)
	}
}
