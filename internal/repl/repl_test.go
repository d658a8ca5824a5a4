package repl_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"rdfsum/internal/core"
	"rdfsum/internal/dict"
	"rdfsum/internal/live"
	"rdfsum/internal/rdf"
	"rdfsum/internal/repl"
	"rdfsum/internal/store"
)

func mkBatch(start, n int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n)
	for i := start; i < start+n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
		p := rdf.NewIRI(fmt.Sprintf("http://x/p%d", i%7))
		o := rdf.NewIRI(fmt.Sprintf("http://x/o%d", i%13))
		out = append(out, rdf.NewTriple(s, p, o))
		if i%5 == 0 {
			out = append(out, rdf.NewTriple(s, rdf.NewIRI(rdf.RDFType),
				rdf.NewIRI(fmt.Sprintf("http://x/C%d", i%3))))
		}
	}
	return out
}

// render sorts a graph's triples into one canonical string, so two
// stores can be compared for exact equality.
func render(g *store.Graph) string {
	triples := g.Decode()
	lines := make([]string, len(triples))
	for i, t := range triples {
		lines[i] = t.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// startLeader opens a durable live store and serves its replication
// endpoints the way rdfsumd mounts them.
func startLeader(t *testing.T) (*live.Live, *httptest.Server) {
	t.Helper()
	lv, err := live.Open(t.TempDir(), &live.Options{Maintain: []core.Kind{core.Weak}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lv.Close() })
	mux := http.NewServeMux()
	repl.NewLeader(lv).Mount(mux, "/v1/repl")
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return lv, ts
}

func startFollower(t *testing.T, url string) *repl.Follower {
	t.Helper()
	f, err := repl.NewFollower(url, repl.FollowerOptions{
		Maintain: []core.Kind{core.Weak},
		PollWait: 200 * time.Millisecond,
		RetryMin: 10 * time.Millisecond,
		RetryMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(func() { f.Close() })
	return f
}

// waitConverged blocks until the follower has applied the leader's full
// WAL of the current generation (lag 0), or fails the test.
func waitConverged(t *testing.T, lv *live.Live, f *repl.Follower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rs, err := lv.ReplState()
		if err != nil {
			t.Fatal(err)
		}
		st := f.Status()
		if st.Generation == rs.Gen && st.AppliedOffset == rs.WALSize {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower did not converge: leader %+v follower %+v",
		must(lv.ReplState()), f.Status())
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// assertIdentical checks that the follower's graph and maintained weak
// summary are bit-identical to the leader's.
func assertIdentical(t *testing.T, lv *live.Live, f *repl.Follower) {
	t.Helper()
	flv := f.Live()
	lg, fg := lv.Snapshot().Graph, flv.Snapshot().Graph
	if lr, fr := render(lg), render(fg); lr != fr {
		t.Fatalf("graphs diverged:\nleader  (%d edges)\nfollower(%d edges)", lg.NumEdges(), fg.NumEdges())
	}
	lsum, _, err := lv.Summary(core.Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	fsum, _, err := flv.Summary(core.Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lr, fr := render(lsum.Graph), render(fsum.Graph); lr != fr {
		t.Fatalf("weak summaries diverged:\nleader:\n%s\nfollower:\n%s", lr, fr)
	}
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	lv, ts := startLeader(t)
	if err := lv.AddBatch(mkBatch(0, 50)); err != nil {
		t.Fatal(err)
	}

	f := startFollower(t, ts.URL)
	waitConverged(t, lv, f)
	assertIdentical(t, lv, f)

	// Live tail: adds and deletes land on the follower.
	if err := lv.AddBatch(mkBatch(50, 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := lv.DeleteBatch(mkBatch(10, 15)); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, lv, f)
	assertIdentical(t, lv, f)

	st := f.Status()
	if st.LagBytes != 0 || st.LagRecords != 0 {
		t.Errorf("converged follower reports lag: %+v", st)
	}
	if st.Bootstraps != 1 {
		t.Errorf("bootstraps = %d, want 1", st.Bootstraps)
	}
	if st.State != repl.StateTailing {
		t.Errorf("state = %q, want %q", st.State, repl.StateTailing)
	}
}

func TestFollowerSurvivesLeaderCompaction(t *testing.T) {
	lv, ts := startLeader(t)
	if err := lv.AddBatch(mkBatch(0, 40)); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, ts.URL)
	waitConverged(t, lv, f)

	// Compaction prunes the generation the follower tails: it must detect
	// the "gone" answer and re-bootstrap from the new snapshot.
	if err := lv.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := lv.AddBatch(mkBatch(40, 25)); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, lv, f)
	assertIdentical(t, lv, f)
	if st := f.Status(); st.Bootstraps < 2 {
		t.Errorf("bootstraps = %d, want >= 2 after compaction", st.Bootstraps)
	}

	// And the replica keeps tailing after the re-bootstrap.
	if _, err := lv.DeleteBatch(mkBatch(45, 10)); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, lv, f)
	assertIdentical(t, lv, f)
}

// TestFollowerServesSnapshotInPlace: a bootstrap serves the leader's
// snapshot bytes as a reopen serves its file. The fresh replica's index
// base is the snapshot's column run — on the heap it holds only the
// fences its lookups build, and its mapped account is the leader's file's
// — and its dictionary is a layer over the snapshot's pages.
func TestFollowerServesSnapshotInPlace(t *testing.T) {
	lv, ts := startLeader(t)
	if err := lv.AddBatch(mkBatch(0, 400)); err != nil {
		t.Fatal(err)
	}
	if err := lv.Compact(); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, ts.URL)
	waitConverged(t, lv, f)
	assertIdentical(t, lv, f)

	flv := f.Live()
	ix := flv.Snapshot().Index
	ix.ForEach(dict.None, 1, dict.None, func(store.Triple) bool { return true })
	n := int64(ix.Len())
	st, lst := flv.Stats(), lv.Stats()
	if fences := int64(store.NumOrders) * 16 * ((n + 7) / 8); st.IndexHeapBytes > fences {
		t.Errorf("bootstrapped follower: index heap holds %d bytes; the fences of %d triples hold at most %d", st.IndexHeapBytes, n, fences)
	}
	if st.IndexMappedBytes == 0 || st.IndexMappedBytes != lst.IndexMappedBytes {
		t.Errorf("bootstrapped follower serves %d bytes of snapshot columns, the leader %d", st.IndexMappedBytes, lst.IndexMappedBytes)
	}
	if st.DictTerms != lst.DictTerms {
		t.Errorf("follower dictionary holds %d terms, the leader's %d", st.DictTerms, lst.DictTerms)
	}
	// Over the pages the dictionary's heap is its hash table alone, at most
	// 3/4 full: under 22 B a term. A term of its own costs a record (24 B)
	// and its key bytes besides.
	if st.DictBytes > 22*int64(st.DictTerms) {
		t.Errorf("follower dictionary holds %d bytes for %d terms: its terms are on the heap", st.DictBytes, st.DictTerms)
	}
}

func TestFollowerLongPollLatency(t *testing.T) {
	lv, ts := startLeader(t)
	f := startFollower(t, ts.URL)
	waitConverged(t, lv, f)

	// With the follower parked in a long poll, one append should arrive
	// well within the poll window (no full PollWait round trip).
	time.Sleep(20 * time.Millisecond) // let it enter the poll
	start := time.Now()
	if err := lv.AddBatch(mkBatch(0, 5)); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, lv, f)
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("long-poll delivery took %v", d)
	}
	assertIdentical(t, lv, f)
}

// envelope mirrors the /v1 error envelope for decoding in tests.
type envelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func getEnvelope(t *testing.T, url string) (int, envelope) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, env
}

func TestLeaderErrorContract(t *testing.T) {
	lv, ts := startLeader(t)
	if err := lv.AddBatch(mkBatch(0, 10)); err != nil {
		t.Fatal(err)
	}
	rs := must(lv.ReplState())

	// Pruned/unknown generation: 410 "gone".
	if code, env := getEnvelope(t, fmt.Sprintf("%s/v1/repl/wal?gen=%d&offset=%d", ts.URL, rs.Gen+1, live.WALDataStart)); code != http.StatusGone || env.Error.Code != "gone" {
		t.Errorf("stale gen: status %d code %q", code, env.Error.Code)
	}
	if code, env := getEnvelope(t, fmt.Sprintf("%s/v1/repl/snapshot?gen=%d", ts.URL, rs.Gen+1)); code != http.StatusGone || env.Error.Code != "gone" {
		t.Errorf("stale snapshot gen: status %d code %q", code, env.Error.Code)
	}

	// Out-of-range offset and malformed parameters: 400 invalid_argument.
	if code, env := getEnvelope(t, fmt.Sprintf("%s/v1/repl/wal?gen=%d&offset=%d", ts.URL, rs.Gen, rs.WALSize+999)); code != http.StatusBadRequest || env.Error.Code != "invalid_argument" {
		t.Errorf("bad offset: status %d code %q", code, env.Error.Code)
	}
	if code, env := getEnvelope(t, ts.URL+"/v1/repl/wal?gen=abc&offset=0"); code != http.StatusBadRequest || env.Error.Code != "invalid_argument" {
		t.Errorf("bad gen: status %d code %q", code, env.Error.Code)
	}
	if code, env := getEnvelope(t, fmt.Sprintf("%s/v1/repl/wal?gen=%d&offset=%d&wait=nope", ts.URL, rs.Gen, live.WALDataStart)); code != http.StatusBadRequest || env.Error.Code != "invalid_argument" {
		t.Errorf("bad wait: status %d code %q", code, env.Error.Code)
	}

	// A memory-only store cannot lead: 409 memory_only.
	mem := live.New(nil, nil, nil)
	defer mem.Close()
	mux := http.NewServeMux()
	repl.NewLeader(mem).Mount(mux, "/v1/repl")
	mts := httptest.NewServer(mux)
	defer mts.Close()
	if code, env := getEnvelope(t, mts.URL+"/v1/repl/manifest"); code != http.StatusConflict || env.Error.Code != "memory_only" {
		t.Errorf("memory-only manifest: status %d code %q", code, env.Error.Code)
	}
}

func TestWALOffsetsAreRecordAligned(t *testing.T) {
	lv, ts := startLeader(t)
	// Several small batches → several records; resume from each reported
	// boundary must decode cleanly.
	for i := 0; i < 5; i++ {
		if err := lv.AddBatch(mkBatch(i*10, 10)); err != nil {
			t.Fatal(err)
		}
	}
	f := startFollower(t, ts.URL)
	waitConverged(t, lv, f)
	st := f.Status()
	rs := must(lv.ReplState())
	if st.AppliedRecords != rs.WALRecords {
		t.Errorf("applied %d records, leader has %d", st.AppliedRecords, rs.WALRecords)
	}
	_ = ts
}
