package live

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"rdfsum/internal/core"
	"rdfsum/internal/dict"
	"rdfsum/internal/query"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// mkBatch builds a deterministic batch of n distinct data+type triples
// starting at serial number start.
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

func flatten(batches [][]rdf.Triple) []rdf.Triple {
	var out []rdf.Triple
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

func canonical(g *store.Graph) []string { return g.CanonicalStrings() }

func TestLiveMemoryBasics(t *testing.T) {
	l := New(nil, nil, nil)
	defer l.Close()
	if l.Durable() {
		t.Fatal("memory store claims durability")
	}
	if err := l.Compact(); err == nil {
		t.Fatal("memory store compacted without a directory")
	}
	e0 := l.Epoch()
	if err := l.AddBatch(mkBatch(0, 100)); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	if snap.Epoch != e0+1 {
		t.Fatalf("epoch after batch = %d, want %d", snap.Epoch, e0+1)
	}
	if snap.Graph.NumEdges() != snap.Index.Len() {
		t.Fatalf("snapshot graph has %d edges but index holds %d",
			snap.Graph.NumEdges(), snap.Index.Len())
	}
	want := canonical(store.FromTriples(mkBatch(0, 100)))
	if !reflect.DeepEqual(canonical(snap.Graph), want) {
		t.Fatal("snapshot graph diverges from the ingested triples")
	}
}

// TestStatsIndexHeapEncodedFold: a memory store's delta tail that folds
// past the index's encoding cutoff is held in the snapshot's column
// encoding on the heap: after eight 600-triple batches fold into one run
// and lookups have range-searched all three of its orders,
// Stats.IndexHeapBytes is at most 18 B a triple — not the 36 B of a slice
// run.
func TestStatsIndexHeapEncodedFold(t *testing.T) {
	l := New(nil, nil, nil)
	defer l.Close()
	for i := range 8 {
		if err := l.AddBatch(mkBatch(500*i, 500)); err != nil {
			t.Fatal(err)
		}
	}
	ix := l.Snapshot().Index
	var first store.Triple
	ix.ForEach(dict.None, dict.None, dict.None, func(t store.Triple) bool { first = t; return false })
	ix.Count(first.S, dict.None, dict.None)
	ix.Count(dict.None, first.P, dict.None)
	ix.Count(dict.None, dict.None, first.O)
	st := l.Stats()
	if st.IndexRuns != 1 {
		t.Fatalf("%d index runs after eight equal batches, want one folded run", st.IndexRuns)
	}
	if per := float64(st.IndexHeapBytes) / float64(st.Triples); per > 18 {
		t.Errorf("IndexHeapBytes = %d for %d folded triples: %.1f B a triple, want at most 18", st.IndexHeapBytes, st.Triples, per)
	}
}

// TestLiveSnapshotIsolation: a held snapshot must not change while later
// batches land and later epochs publish.
func TestLiveSnapshotIsolation(t *testing.T) {
	l := New(nil, nil, nil)
	defer l.Close()
	if err := l.AddBatch(mkBatch(0, 50)); err != nil {
		t.Fatal(err)
	}
	held := l.Snapshot()
	edges, indexed := held.Graph.NumEdges(), held.Index.Len()
	before := canonical(held.Graph)
	for i := 1; i <= 20; i++ {
		if err := l.AddBatch(mkBatch(i*1000, 50)); err != nil {
			t.Fatal(err)
		}
	}
	if held.Graph.NumEdges() != edges || held.Index.Len() != indexed {
		t.Fatalf("held snapshot grew: %d->%d edges, %d->%d indexed",
			edges, held.Graph.NumEdges(), indexed, held.Index.Len())
	}
	if !reflect.DeepEqual(canonical(held.Graph), before) {
		t.Fatal("held snapshot content changed under ingest")
	}
	if l.Snapshot().Epoch != held.Epoch+20 {
		t.Fatalf("current epoch = %d, want %d", l.Snapshot().Epoch, held.Epoch+20)
	}
}

func TestLiveOpenReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var batches [][]rdf.Triple
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b := mkBatch(i*100, 40)
		batches = append(batches, b)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.RecoveredTorn {
		t.Fatal("clean close reported a torn tail")
	}
	want := canonical(store.FromTriples(flatten(batches)))
	if !reflect.DeepEqual(canonical(l2.Snapshot().Graph), want) {
		t.Fatal("replayed store diverges from the ingested triples")
	}
	// The store stays writable after replay.
	if err := l2.AddBatch(mkBatch(9000, 10)); err != nil {
		t.Fatal(err)
	}
}

// TestLiveCrashRecoveryPrefix is the crash-recovery property test: cutting
// the WAL at *every* byte offset (a torn final record) and reopening must
// recover exactly the acknowledged prefix — all batches whose record lies
// fully below the cut, never a partial batch, never a lost acknowledged
// one.
func TestLiveCrashRecoveryPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{l.Stats().WALBytes} // record boundaries; bounds[0] = header
	var batches [][]rdf.Triple
	for i := 0; i < 6; i++ {
		b := mkBatch(i*50, 9+i)
		batches = append(batches, b)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, l.Stats().WALBytes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(walBytes)) != bounds[len(bounds)-1] {
		t.Fatalf("wal is %d bytes, stats said %d", len(walBytes), bounds[len(bounds)-1])
	}

	// Cut points: every record boundary and its neighborhood (the
	// interesting transitions) plus a stride through the record bodies.
	cuts := map[int64]bool{}
	for _, b := range bounds {
		for d := int64(-2); d <= 2; d++ {
			if c := b + d; c >= bounds[0] && c <= int64(len(walBytes)) {
				cuts[c] = true
			}
		}
	}
	for c := bounds[0]; c <= int64(len(walBytes)); c += 37 {
		cuts[c] = true
	}
	for cut := range cuts {
		acked := 0
		for acked+1 < len(bounds) && bounds[acked+1] <= cut {
			acked++
		}
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "CURRENT"), []byte("gen 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cutDir, "wal-1.log"), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		lc, err := Open(cutDir, nil)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantTorn := cut != bounds[acked]
		if lc.RecoveredTorn != wantTorn {
			t.Fatalf("cut at %d: RecoveredTorn = %v, want %v", cut, lc.RecoveredTorn, wantTorn)
		}
		want := canonical(store.FromTriples(flatten(batches[:acked])))
		if got := canonical(lc.Snapshot().Graph); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: recovered %d canonical triples, want %d (batches %d)",
				cut, len(got), len(want), acked)
		}
		// The reopened store must accept writes on the truncated log.
		if err := lc.AddBatch(mkBatch(7777, 3)); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		lc.Close()
	}

	// A cut inside the header is not recoverable by truncation.
	cutDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(cutDir, "CURRENT"), []byte("gen 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cutDir, "wal-1.log"), walBytes[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cutDir, nil); err == nil {
		t.Fatal("open succeeded on a WAL shorter than its header")
	}
}

func TestLiveCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var all [][]rdf.Triple
	for i := 0; i < 3; i++ {
		b := mkBatch(i*100, 30)
		all = append(all, b)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	preWAL := l.Stats().WALBytes
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.WALBytes >= preWAL {
		t.Fatalf("compaction did not shrink the WAL: %d -> %d bytes", preWAL, st.WALBytes)
	}
	if st.Gen != 2 {
		t.Fatalf("generation after compact = %d, want 2", st.Gen)
	}
	// Old generation files are gone; the new pair exists.
	if _, err := os.Stat(filepath.Join(dir, "wal-1.log")); !os.IsNotExist(err) {
		t.Fatal("old WAL survived compaction")
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot-2.rdfsum")); err != nil {
		t.Fatalf("new snapshot missing: %v", err)
	}
	// Writes continue after compaction; reopen sees snapshot + new WAL.
	b := mkBatch(900, 20)
	all = append(all, b)
	if err := l.AddBatch(b); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := canonical(store.FromTriples(flatten(all)))
	if !reflect.DeepEqual(canonical(l2.Snapshot().Graph), want) {
		t.Fatal("store after compact+reopen diverges from the ingested triples")
	}
}

// TestLiveStaleGenerationCleanup: leftovers from a crash between the
// manifest swap and file deletion are removed on the next open.
func TestLiveStaleGenerationCleanup(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.AddBatch(mkBatch(0, 10))
	l.Close()
	stray := filepath.Join(dir, "wal-99.log")
	if err := os.WriteFile(stray, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stale generation file survived reopen")
	}
}

// TestLiveWeakSummaryBitIdentical: the incrementally maintained weak
// summary after live ingest equals a batch Summarize of the same triples —
// including after a fallback rebuild from a frozen view.
func TestLiveWeakSummaryBitIdentical(t *testing.T) {
	l := New(nil, nil, nil)
	defer l.Close()
	var fed []rdf.Triple
	for i := 0; i < 8; i++ {
		b := mkBatch(i*64, 48)
		fed = append(fed, b...)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	liveSum, epoch, err := l.Summary(core.Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != l.Epoch() {
		t.Fatalf("weak summary epoch %d, current %d", epoch, l.Epoch())
	}
	batch := core.MustSummarize(store.FromTriples(fed), core.Weak)
	if !reflect.DeepEqual(canonical(liveSum.Graph), canonical(batch.Graph)) {
		t.Fatal("live weak summary is not bit-identical to the batch summary")
	}

	// Staleness policy: within maxStale the cached summary is served with
	// its build epoch; at 0 it is rebuilt to the current epoch.
	if err := l.AddBatch(mkBatch(9999, 16)); err != nil {
		t.Fatal(err)
	}
	_, cachedEpoch, err := l.Summary(core.Weak, 100)
	if err != nil {
		t.Fatal(err)
	}
	if cachedEpoch != epoch {
		t.Fatalf("stale-tolerant read rebuilt: epoch %d, want cached %d", cachedEpoch, epoch)
	}
	fresh, freshEpoch, err := l.Summary(core.Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if freshEpoch != l.Epoch() {
		t.Fatalf("fresh read built at epoch %d, want %d", freshEpoch, l.Epoch())
	}
	batch2 := core.MustSummarize(store.FromTriples(append(fed, mkBatch(9999, 16)...)), core.Weak)
	if !reflect.DeepEqual(canonical(fresh.Graph), canonical(batch2.Graph)) {
		t.Fatal("refreshed live weak summary diverges from the batch summary")
	}
}

// TestLiveOtherKindsLazyRebuild: non-weak kinds rebuild from the frozen
// view and report their build epoch.
func TestLiveOtherKindsLazyRebuild(t *testing.T) {
	l := New(nil, nil, nil)
	defer l.Close()
	if err := l.AddBatch(mkBatch(0, 60)); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []core.Kind{core.Strong, core.TypedWeak, core.TypedStrong, core.TypeBased} {
		s, epoch, err := l.Summary(kind, 0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if epoch != l.Epoch() {
			t.Fatalf("%v built at epoch %d, want %d", kind, epoch, l.Epoch())
		}
		batch := core.MustSummarize(store.FromTriples(mkBatch(0, 60)), kind)
		if !reflect.DeepEqual(canonical(s.Graph), canonical(batch.Graph)) {
			t.Fatalf("%v: live summary diverges from batch", kind)
		}
	}
}

// TestLiveStress is the -race stress test: one writer ingesting batches
// and compacting, many readers evaluating queries and materializing
// summaries against their snapshots throughout. Correctness of each
// reader's view is checked against its own epoch (monotonic edges,
// graph/index agreement); the race detector checks the rest.
func TestLiveStress(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	q, err := query.Parse(`SELECT ?s ?o WHERE { ?s <http://x/p1> ?o }`)
	if err != nil {
		t.Fatal(err)
	}

	const (
		batches   = 60
		batchSize = 40
		readers   = 4
	)
	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < batches; i++ {
			if err := l.AddBatch(mkBatch(i*batchSize, batchSize)); err != nil {
				errc <- err
				return
			}
			if i%20 == 19 {
				if err := l.Compact(); err != nil {
					errc <- err
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastEpoch uint64
			var lastEdges int
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				snap := l.Snapshot()
				if snap.Epoch < lastEpoch {
					errc <- fmt.Errorf("reader %d: epoch went backwards %d -> %d", r, lastEpoch, snap.Epoch)
					return
				}
				edges := snap.Graph.NumEdges()
				if snap.Epoch == lastEpoch && edges != lastEdges {
					errc <- fmt.Errorf("reader %d: epoch %d changed size %d -> %d", r, snap.Epoch, lastEdges, edges)
					return
				}
				if snap.Index.Len() != edges {
					errc <- fmt.Errorf("reader %d: index %d vs graph %d", r, snap.Index.Len(), edges)
					return
				}
				lastEpoch, lastEdges = snap.Epoch, edges
				if _, err := query.Eval(snap.Graph, snap.Index, q, nil); err != nil {
					errc <- fmt.Errorf("reader %d: eval: %w", r, err)
					return
				}
				if i%7 == 0 {
					kind := core.Weak
					if i%14 == 0 {
						kind = core.Strong
					}
					sum, _, err := l.Summary(kind, 3)
					if err != nil {
						errc <- fmt.Errorf("reader %d: summary: %w", r, err)
						return
					}
					// Weights iterate the summary's Input graph — this is
					// what catches a summary aliasing the writer's
					// mutable graph instead of a frozen epoch view.
					sum.ComputeWeights()
				}
			}
		}(r)
	}

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	want := canonical(store.FromTriples(flatten(func() [][]rdf.Triple {
		var bs [][]rdf.Triple
		for i := 0; i < batches; i++ {
			bs = append(bs, mkBatch(i*batchSize, batchSize))
		}
		return bs
	}())))
	if !reflect.DeepEqual(canonical(l.Snapshot().Graph), want) {
		t.Fatal("final state diverges from the ingested triples")
	}
}

func TestWALHeaderErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "wal-1.log")
	if err := os.WriteFile(bad, []byte("NOTAWALFILE-and-some-padding"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "CURRENT"), []byte("gen 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, nil)
	if err == nil {
		t.Fatal("open succeeded on a foreign WAL file")
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir2, "wal-1.log"), append([]byte(walMagic), 99), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir2, "CURRENT"), []byte("gen 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir2, nil); err == nil {
		t.Fatal("open succeeded on an unsupported WAL version")
	}
}

// TestLiveDirectoryLock: a second writer on the same directory must be
// refused while the first holds it, and admitted after Close.
func TestLiveDirectoryLock(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("directory locking is advisory-flock based (unix only)")
	}
	dir := t.TempDir()
	l1, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("second writer acquired a locked store")
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	l2.Close()
}

func TestLiveSeed(t *testing.T) {
	dir := t.TempDir()
	seed := store.FromTriples(mkBatch(0, 30))
	l, err := Open(dir, &Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot-1.rdfsum")); err != nil {
		t.Fatalf("seed snapshot missing: %v", err)
	}
	if err := l.AddBatch(mkBatch(500, 10)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Reopening ignores a new seed once state exists.
	l2, err := Open(dir, &Options{Seed: store.FromTriples(mkBatch(9000, 5))})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := canonical(store.FromTriples(append(mkBatch(0, 30), mkBatch(500, 10)...)))
	if !reflect.DeepEqual(canonical(l2.Snapshot().Graph), want) {
		t.Fatal("reopened seeded store diverges (or re-applied the seed)")
	}
}

// TestLiveMaintainedAllKinds: a store maintaining every kind serves each
// of them bit-identical to the batch construction at the current epoch
// with zero lazy (full) rebuilds — the quotient engine absorbs ingest at
// O(Δ) and snapshots from its own state.
func TestLiveMaintainedAllKinds(t *testing.T) {
	l := New(nil, nil, &Options{Maintain: core.Kinds})
	defer l.Close()
	var fed []rdf.Triple
	ingest := func(start int) {
		b := mkBatch(start, 40)
		fed = append(fed, b...)
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		ingest(i * 64)
	}
	check := func() {
		t.Helper()
		for _, kind := range core.Kinds {
			s, epoch, err := l.Summary(kind, 0)
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
			if epoch != l.Epoch() {
				t.Fatalf("%v served at epoch %d, want %d", kind, epoch, l.Epoch())
			}
			batch := core.MustSummarize(store.FromTriples(fed), kind)
			if !reflect.DeepEqual(canonical(s.Graph), canonical(batch.Graph)) {
				t.Fatalf("%v: maintained summary diverges from batch", kind)
			}
		}
	}
	check()
	ingest(9000) // keep ingesting after snapshots; re-serve every kind
	check()
	for _, st := range l.Status() {
		if !st.Maintained {
			t.Errorf("%v: not maintained", st.Kind)
		}
		if st.LazyBuilds != 0 {
			t.Errorf("%v: %d lazy builds, want 0 (maintained kinds never rebuild in full)", st.Kind, st.LazyBuilds)
		}
		if st.CachedEpoch != l.Epoch() {
			t.Errorf("%v: cached at epoch %d, want %d", st.Kind, st.CachedEpoch, l.Epoch())
		}
	}
}

// TestLiveMaintainStatusCounters: the default store maintains weak only;
// serving another kind is a counted lazy build.
func TestLiveMaintainStatusCounters(t *testing.T) {
	l := New(nil, nil, nil)
	defer l.Close()
	if err := l.AddBatch(mkBatch(0, 50)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Summary(core.Weak, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Summary(core.Strong, 0); err != nil {
		t.Fatal(err)
	}
	for _, st := range l.Status() {
		switch st.Kind {
		case core.Weak:
			if !st.Maintained || st.LazyBuilds != 0 {
				t.Errorf("weak: maintained=%v lazyBuilds=%d, want true/0", st.Maintained, st.LazyBuilds)
			}
		case core.Strong:
			if st.Maintained || st.LazyBuilds != 1 {
				t.Errorf("strong: maintained=%v lazyBuilds=%d, want false/1", st.Maintained, st.LazyBuilds)
			}
		}
	}
	if l.Maintained(core.Weak) == false || l.Maintained(core.TypedWeak) {
		t.Error("Maintained() disagrees with the default weak-only configuration")
	}
}

// TestLiveMaintainedReplay: WAL replay re-feeds every maintained builder,
// so a reopened store serves all kinds from maintenance state.
func TestLiveMaintainedReplay(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Maintain: core.Kinds}
	l, err := Open(dir, &opts)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]rdf.Triple{mkBatch(0, 30), mkBatch(40, 30), mkBatch(80, 30)}
	for _, b := range batches {
		if err := l.AddBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, &opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	all := flatten(batches)
	for _, kind := range core.Kinds {
		s, _, err := re.Summary(kind, 0)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		batch := core.MustSummarize(store.FromTriples(all), kind)
		if !reflect.DeepEqual(canonical(s.Graph), canonical(batch.Graph)) {
			t.Fatalf("%v: replayed maintained summary diverges from batch", kind)
		}
	}
	for _, st := range re.Status() {
		if st.LazyBuilds != 0 {
			t.Errorf("%v: %d lazy builds after replay, want 0", st.Kind, st.LazyBuilds)
		}
	}
}

// TestLiveMaintainedStress: -race stress over the maintenance path — one
// writer ingesting batches while one reader per kind materializes it at
// full staleness intolerance. Every summary comes from the builders, even
// when ingest publishes between a reader's snapshot and its build (no lazy
// build is ever counted); the race detector checks the shared engine state
// is never read outside the writer lock.
func TestLiveMaintainedStress(t *testing.T) {
	l := New(nil, nil, &Options{Maintain: core.Kinds})
	defer l.Close()

	const (
		batches   = 40
		batchSize = 30
	)
	readers := len(core.Kinds)
	done := make(chan struct{})
	errc := make(chan error, readers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		for i := 0; i < batches; i++ {
			if err := l.AddBatch(mkBatch(i*batchSize, batchSize)); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			kind := core.Kinds[r%len(core.Kinds)]
			for {
				select {
				case <-done:
					return
				default:
				}
				s, epoch, err := l.Summary(kind, 0)
				if err != nil {
					errc <- err
					return
				}
				if s.Stats.AllEdges == 0 && epoch > 1 {
					errc <- fmt.Errorf("%v: empty summary at epoch %d", kind, epoch)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	for _, kind := range core.Kinds {
		s, _, err := l.Summary(kind, 0)
		if err != nil {
			t.Fatal(err)
		}
		batch := core.MustSummarize(store.FromTriples(flattenBatches(batches, batchSize)), kind)
		if !reflect.DeepEqual(canonical(s.Graph), canonical(batch.Graph)) {
			t.Fatalf("%v: post-stress summary diverges from batch", kind)
		}
	}
	for _, st := range l.Status() {
		if st.LazyBuilds != 0 {
			t.Errorf("%v: %d lazy builds, want 0 (maintained kinds come from the builders)", st.Kind, st.LazyBuilds)
		}
	}
}

func flattenBatches(n, size int) []rdf.Triple {
	var out []rdf.Triple
	for i := 0; i < n; i++ {
		out = append(out, mkBatch(i*size, size)...)
	}
	return out
}
