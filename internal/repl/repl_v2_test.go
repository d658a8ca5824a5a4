package repl_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rdfsum/client"
	"rdfsum/internal/core"
	"rdfsum/internal/live"
	"rdfsum/internal/repl"
	"rdfsum/internal/store"
)

// TestFollowerBootstrapFromV2Snapshot: a follower joining after the
// leader compacted bootstraps by streaming the v2 container snapshot and
// converges bit-identically — the e2e path for the current format.
func TestFollowerBootstrapFromV2Snapshot(t *testing.T) {
	dir := t.TempDir()
	lv, err := live.Open(dir, &live.Options{Maintain: []core.Kind{core.Weak}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lv.Close() })
	if err := lv.AddBatch(mkBatch(0, 80)); err != nil {
		t.Fatal(err)
	}
	if err := lv.Compact(); err != nil {
		t.Fatal(err)
	}
	// The snapshot the follower will stream really is the v2 container.
	info, err := store.InspectSnapshot(filepath.Join(dir, "snapshot-2.rdfsum"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("leader snapshot is v%d, want v2", info.Version)
	}
	// Post-snapshot WAL tail the bootstrap must replay on top.
	if err := lv.AddBatch(mkBatch(80, 20)); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	repl.NewLeader(lv).Mount(mux, "/v1/repl")
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	f := startFollower(t, ts.URL)
	waitConverged(t, lv, f)
	assertIdentical(t, lv, f)
	if st := f.Status(); st.Bootstraps != 1 {
		t.Errorf("bootstraps = %d, want 1", st.Bootstraps)
	}
}

// TestFollowerRejectsUnknownSnapshotVersion: a leader serving a snapshot
// format this build does not read — version 1, or a future one (the
// situation of a stale follower binary bootstrapping from an upgraded
// leader) — or a manifest announcing a WAL framing other than the one
// this build decodes, produces a clear versioned error in the follower's
// status — never a garbage graph.
func TestFollowerRejectsUnknownSnapshotVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.rdfsum")
	if err := store.SaveFile(path, store.FromTriples(mkBatch(0, 5))); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		snapVersion  byte
		walVersion   byte
		walDataStart int64
		want         []string
	}{
		{"future snapshot", 9, live.WALVersion, live.WALDataStart, []string{"unsupported snapshot version 9"}},
		{"v1 snapshot", 1, live.WALVersion, live.WALDataStart, []string{"unsupported snapshot version 1", "8801477"}},
		{"v1 wal", 2, 1, live.WALDataStart, []string{"unsupported WAL version", "wal_version 1"}},
		{"wal data start", 2, live.WALVersion, 16, []string{"unsupported WAL version", "wal_data_start 16"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := append([]byte(nil), good...)
			raw[6] = tc.snapVersion
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/repl/manifest", func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(client.ReplManifest{ //nolint:errcheck
					Generation:   1,
					Epoch:        1,
					WALVersion:   tc.walVersion,
					WALDataStart: tc.walDataStart,
					HasSnapshot:  true,
					SnapshotSize: int64(len(raw)),
				})
			})
			mux.HandleFunc("GET /v1/repl/snapshot", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set(client.HeaderGeneration, "1")
				w.Write(raw) //nolint:errcheck
			})
			ts := httptest.NewServer(mux)
			t.Cleanup(ts.Close)

			f, err := repl.NewFollower(ts.URL, repl.FollowerOptions{
				RetryMin: 5 * time.Millisecond,
				RetryMax: 20 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			f.Start()
			t.Cleanup(func() { f.Close() })

			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				st := f.Status()
				if st.LastError != "" {
					for _, want := range tc.want {
						if !strings.Contains(st.LastError, want) {
							t.Fatalf("bootstrap error %q does not name %q", st.LastError, want)
						}
					}
					if st.Bootstraps != 0 {
						t.Fatalf("follower claims %d successful bootstraps from an unreadable leader", st.Bootstraps)
					}
					// The replica never swaps in a bogus store.
					if f.Live().Snapshot().Graph.NumEdges() != 0 {
						t.Fatal("follower adopted triples from an unreadable leader")
					}
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatal("follower never surfaced the version error")
		})
	}
}
