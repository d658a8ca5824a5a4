package main

import (
	"bufio"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfsum"
	"rdfsum/client"
)

// TestE2EReplication is the end-to-end proof of the replication design:
// two real rdfsumd processes — a durable leader and a -follow replica —
// talking over TCP. The follower must bootstrap from the leader's
// snapshot, tail its WAL through adds, deletes and a compaction, and
// serve bit-identical query and summary results at reported lag 0.
func TestE2EReplication(t *testing.T) {
	if testing.Short() {
		t.Skip("two-process e2e test; skipped in -short mode")
	}
	bin := buildRdfsumd(t)
	ctx := context.Background()

	leaderURL, leaderLogs, _ := startDaemon(t, bin, "-live", t.TempDir(), "-addr", "127.0.0.1:0")
	lc, err := client.New(leaderURL)
	if err != nil {
		t.Fatal(err)
	}

	// Seed the leader before the follower exists, so the follower's
	// bootstrap has a WAL prefix to replay.
	triples := rdfsum.GenerateBSBM(15).Decode()
	if _, err := lc.Ingest(ctx, triples[:200]); err != nil {
		t.Fatal(err)
	}

	followerURL, followerLogs, _ := startDaemon(t, bin, "-follow", leaderURL, "-addr", "127.0.0.1:0")
	fc, err := client.New(followerURL)
	if err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, lc, fc)
	assertSameResults(t, lc, fc)

	// Live tail: more adds and a delete.
	if _, err := lc.Ingest(ctx, triples[200:]); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Delete(ctx, triples[50:120]); err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, lc, fc)
	assertSameResults(t, lc, fc)

	// Leader compaction prunes the tailed generation: the follower must
	// re-bootstrap and keep converging.
	if _, err := lc.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Ingest(ctx, triples[50:120]); err != nil {
		t.Fatal(err)
	}
	waitReplicated(t, lc, fc)
	assertSameResults(t, lc, fc)

	rs, err := fc.ReplicationStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Role != "follower" || rs.LagBytes != 0 || rs.LagRecords != 0 || rs.LagEpochs != 0 {
		t.Errorf("final follower status = %+v", rs)
	}
	if rs.Bootstraps < 2 {
		t.Errorf("bootstraps = %d, want >= 2 (one initial + one after compaction)", rs.Bootstraps)
	}

	// Request-ID correlation across processes: the follower stamps each
	// bootstrap→tail session with one ID and sends it on every leader
	// request, so the same ID must appear in both structured logs.
	assertSharedRequestID(t, leaderLogs, followerLogs)
}

// requestIDRE matches the middleware-generated 16-hex request IDs in
// slog text output.
var requestIDRE = regexp.MustCompile(`request_id=([0-9a-f]{16})`)

// assertSharedRequestID polls both process logs for a follower request
// ID that also shows up in the leader's request log.
func assertSharedRequestID(t *testing.T, leaderLogs, followerLogs *logBuffer) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		leader := leaderLogs.String()
		for _, m := range requestIDRE.FindAllStringSubmatch(followerLogs.String(), -1) {
			if strings.Contains(leader, m[1]) {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Errorf("no follower request_id found in the leader log\nleader:\n%s\nfollower:\n%s",
		leaderLogs.String(), followerLogs.String())
}

// logBuffer accumulates a child process's stderr lines for assertions.
type logBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuffer) add(line string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.WriteString(line)
	l.b.WriteByte('\n')
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// buildRdfsumd compiles this package's binary once into the test's temp
// dir.
func buildRdfsumd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rdfsumd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches an rdfsumd process and returns its base URL —
// parsed from the "listening on" startup line, tolerating the slog text
// handler's quoting — plus the accumulating capture of its stderr and the
// process, which the test's cleanup kills.
func startDaemon(t *testing.T, bin string, args ...string) (string, *logBuffer, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
	})
	logs := &logBuffer{}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			logs.add(line)
			if _, after, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrCh <- strings.Trim(after, "\" "):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return "http://" + addr, logs, cmd
	case <-time.After(30 * time.Second):
		t.Fatalf("rdfsumd %v did not report its listen address", args)
		return "", nil, nil
	}
}

// assertSameResults compares query rows, triple counts and weak-summary
// statistics across the two processes.
func assertSameResults(t *testing.T, lc, fc *client.Client) {
	t.Helper()
	ctx := context.Background()
	const q = "SELECT ?s ?o WHERE { ?s ?p ?o . }"
	if lrows, frows := queryRows(t, lc, q), queryRows(t, fc, q); !equalStrings(lrows, frows) {
		t.Fatalf("query rows diverge: leader %d, follower %d", len(lrows), len(frows))
	}
	lst, err := lc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fst, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lst.Triples != fst.Triples || lst.DataNodes != fst.DataNodes {
		t.Fatalf("stats diverge: leader %+v follower %+v", lst, fst)
	}
	lsum, err := lc.Summary(ctx, "weak")
	if err != nil {
		t.Fatal(err)
	}
	fsum, err := fc.Summary(ctx, "weak")
	if err != nil {
		t.Fatal(err)
	}
	if lsum.DataNodes != fsum.DataNodes || lsum.DataEdges != fsum.DataEdges ||
		lsum.AllNodes != fsum.AllNodes || lsum.AllEdges != fsum.AllEdges {
		t.Fatalf("weak summaries diverge: leader %+v follower %+v", lsum, fsum)
	}
}
