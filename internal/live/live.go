// Package live implements the read-write axis of the system: a
// concurrent, durable, mutable RDF graph with incremental summary
// maintenance and snapshot-isolated serving.
//
// The design is single-writer / multi-reader:
//
//   - Writers append through Add/AddBatch. Each batch is framed into a
//     CRC-checked write-ahead log record and fsynced (group commit) before
//     it is applied in memory — an acknowledged batch survives a crash.
//     The writer applies its own batch under the store's lock.
//   - Readers call Snapshot and get an immutable epoch: a copy-on-write
//     view of the graph, a tiered triple index, and the epoch number,
//     published atomically and never mutated in place. Queries keep
//     running at full speed against their epoch while ingest proceeds.
//   - Summaries are maintained incrementally by the quotient engine
//     (core.BuilderSet): every kind listed in Options.Maintain is kept
//     current at O(α) amortized per triple, so serving it never pays a
//     full O(|G|) re-summarization. A kind not maintained is built on
//     request by a fresh builder set seeded with the epoch's view
//     (core.Summarize) and cached per kind; Summary's maxStale lets a
//     caller accept a cached build that many epochs old. The default
//     maintains the weak summary only; -maintain all trades write-side
//     memory for serving every kind without a per-epoch build.
//   - Deletions are first-class: Delete/DeleteBatch journal an OpDelete
//     WAL record, remove every stored copy of the listed triples, and
//     publish a tombstone run in the tiered index (the graph components
//     compact copy-on-write, so held snapshots are unaffected). A
//     maintained summary shrinks exactly where the engine's bookkeeping
//     is refcounted; otherwise its kind is reseeded — a counted rebuild —
//     at its next Summary call.
//   - The graph is always decoded: a durable store checks every section
//     checksum of its generation snapshot at Open and reads its
//     vocabulary and components into the writer graph, while the
//     dictionary and the column runs stay on the file's pages.
//   - The published index is tiered (see store.Index). A durable store's
//     base run is its generation's snapshot file, served from the mapping
//     after a seeded boot, a reopen and every Compact; a memory-only
//     store's is a heap run, or the column run of the snapshot New is
//     handed with its graph (a follower's bootstrap). Each epoch appends
//     one immutable delta or tombstone run, so publishing costs O(batch),
//     not O(graph), and trailing same-level runs fold eight at a time to
//     bound read amplification. Compaction is the only way runs leave the
//     heap: the next generation's mapped snapshot becomes the whole index.
//   - Compact writes the graph as the next generation's snapshot, maps
//     and checks it, swaps generations through a CURRENT manifest — so
//     recovery always sees a consistent (snapshot, log) pair — and
//     publishes the new file's runs as the whole index.
//
// On-disk layout of a live directory:
//
//	CURRENT            "gen <n>\n" — the active generation (atomic rename)
//	snapshot-<n>.rdfsum  store snapshot the generation starts from (absent
//	                     for a generation with an empty base)
//	wal-<n>.log          record-framed WAL of add/delete batches since
//	                     that snapshot
package live

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdfsum/internal/core"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// Options tunes Open and New.
type Options struct {
	// NoSync disables the per-batch fsync. Throughput rises; the
	// durability guarantee weakens from "acknowledged batches survive a
	// crash" to "the WAL is consistent but may lose recent batches".
	NoSync bool
	// Seed, when the directory holds no prior state, is written as
	// generation 1's snapshot, which Open then opens like any other
	// generation, so the WAL starts empty. Ignored when the store already
	// has state. The graph is only read: the store serves the file, not
	// the seed.
	Seed *store.Graph
	// Maintain lists the summary kinds kept incrementally current during
	// ingest (served with no staleness and no per-epoch rebuild). nil
	// maintains the weak summary only — the PR-3 behavior; an explicit
	// empty slice maintains nothing. Unmaintained kinds rebuild lazily.
	Maintain []core.Kind
}

// maintainOrDefault resolves the Maintain option: nil means weak-only.
func maintainOrDefault(kinds []core.Kind) []core.Kind {
	if kinds == nil {
		return []core.Kind{core.Weak}
	}
	return kinds
}

// Snapshot is one published epoch: an immutable view served to readers.
type Snapshot struct {
	// Epoch increases by one per publication. Epoch 1 is the state at
	// Open/New.
	Epoch uint64
	// Graph is the copy-on-write view of the graph at this epoch. It
	// shares the live dictionary (which is in shared, locked mode) and
	// must not be mutated.
	Graph *store.Graph
	// Index is the triple-pattern index over Graph.
	Index *store.Index
}

// summaryCell caches the most recent build of one summary kind, tagged
// with the epoch it reflects. The mutex singleflights rebuilds of that
// kind without blocking other kinds. lazyBuilds counts the from-scratch
// summarizations (a fresh seeded builder set over the epoch's view) this
// cell has paid — always 0 for a maintained kind, the observable "no full
// rebuild" guarantee.
type summaryCell struct {
	mu         sync.Mutex
	epoch      uint64
	sum        *core.Summary
	lazyBuilds uint64
}

// Live is a mutable graph service. The zero value is not usable; call
// Open or New. All methods are safe for concurrent use, with a single
// writer at a time making progress.
type Live struct {
	dir  string // "" = memory-only (no WAL, Compact unavailable)
	sync bool

	mu      sync.Mutex // serializes writers (Add/AddBatch/Delete/Compact/Close)
	set     *core.BuilderSet
	wal     *wal
	lock    *os.File // exclusive flock on the store directory (nil on non-unix / memory)
	gen     uint64
	applied uint64 // triples added to the in-memory graph (monotonic)
	deleted uint64 // triple copies removed (monotonic)
	closed  bool

	// published is the epoch counter behind cur; mutated under mu only.
	published uint64
	cur       atomic.Pointer[Snapshot]

	// watch, when non-nil, is closed at the next epoch publication —
	// the replication leader's long-poll wake-up (see Watch).
	watch chan struct{}

	cells [core.NumKinds]summaryCell // indexed by core.Kind

	// RecoveredTorn reports whether Open dropped a torn tail from the WAL
	// (the crash-recovery path was exercised).
	RecoveredTorn bool

	boot BootTimings // written by Open/New before the store is shared
}

// BootTimings is how long each phase of Open (or New) took. A phase the
// boot did not go through stays zero: Snapshot is only paid by a seeded
// fresh store, Decode and WALReplay only by a durable one (a seeded store
// decodes the snapshot and replays the empty log it has just created).
type BootTimings struct {
	Decode    time.Duration // opening the generation's snapshot and decoding its graph
	Builders  time.Duration // feeding the graph to the maintained summary builders
	Snapshot  time.Duration // sorting the seed's triples and writing them as snapshot-1
	WALReplay time.Duration // replaying the generation's WAL over its snapshot, index runs included
	// Index is building epoch 1's base index — adopting the mapped
	// snapshot's runs, or sorting a memory-only store's graph into a heap
	// run — and publishing epoch 1.
	Index time.Duration
}

// BootTimings reports the phase durations of the Open/New call that
// created l.
func (l *Live) BootTimings() BootTimings { return l.boot }

// New returns a memory-only live graph over g (nil for empty): the full
// concurrency model without durability. Compact returns an error; the WAL
// is absent. The graph is adopted, not copied. base is the snapshot g was
// read from (store.ReadGraph's), whose column run the index then serves
// as a reopened durable store serves its file; nil sorts g into a heap
// run. Of opts (nil = defaults) only Maintain applies; the rest is
// meaningless without a directory and is ignored. It panics on an invalid
// kind — callers obtain kinds from core.ParseKind or the Kind constants.
func New(g *store.Graph, base *store.SnapshotFile, opts *Options) *Live {
	if opts == nil {
		opts = &Options{}
	}
	if g == nil {
		g = store.NewGraph()
	}
	l := &Live{sync: false}
	ix, err := l.bootGraph(g, base, opts.Maintain)
	if err != nil {
		panic(err)
	}
	l.applied = uint64(g.NumEdges())
	l.mu.Lock()
	l.publishInitialLocked(ix)
	l.mu.Unlock()
	return l
}

// bootGraph makes g the writer graph — shared dictionary, the maintained
// kinds' builder set over it — and returns the index over base, the
// snapshot g was decoded from (see bootIndex).
func (l *Live) bootGraph(g *store.Graph, base *store.SnapshotFile, kinds []core.Kind) (*store.Index, error) {
	g.Dict().Share()
	t0 := time.Now()
	set, err := core.NewBuilderSet(g, maintainOrDefault(kinds))
	if err != nil {
		return nil, err
	}
	l.boot.Builders = time.Since(t0)
	l.set = set
	return l.bootIndex(base), nil
}

// Open opens (or initializes) a durable live store in dir: it maps and
// checks the current generation's snapshot and decodes its graph
// components into the writer graph (a corrupt one fails the Open), serves
// the file's columns as the index's base, replays the WAL over it —
// truncating a torn tail, so exactly the acknowledged batches come back —
// and publishes epoch 1.
// A fresh directory is first laid out as generation 1 from opts.Seed, and
// then opened the same way. A nil opts selects the defaults.
func Open(dir string, opts *Options) (*Live, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened && lock != nil {
			lock.Close()
		}
	}()
	l := &Live{dir: dir, sync: !opts.NoSync, lock: lock}
	gen, err := readManifest(dir)
	if errors.Is(err, os.ErrNotExist) {
		gen, err = 1, l.initGeneration(opts.Seed)
	}
	if err != nil {
		return nil, err
	}
	var (
		g  *store.Graph
		sf *store.SnapshotFile
	)
	snapPath := l.snapshotPath(gen)
	switch _, statErr := os.Stat(snapPath); {
	case statErr == nil:
		t0 := time.Now()
		if g, sf, err = store.OpenGraphFile(snapPath); err != nil {
			return nil, fmt.Errorf("live: generation %d snapshot: %w", gen, err)
		}
		l.boot.Decode = time.Since(t0)
	case errors.Is(statErr, fs.ErrNotExist):
		// A generation whose base graph was empty writes no snapshot.
		g = store.NewGraph()
	default:
		// Any other failure (EACCES, EIO, …) must not be mistaken for
		// "no snapshot": opening with an empty base and later
		// compacting would silently discard the store's history.
		return nil, fmt.Errorf("live: generation %d snapshot: %w", gen, statErr)
	}
	ix, err := l.bootGraph(g, sf, opts.Maintain) // epoch 1's index
	if err != nil {
		return nil, err
	}
	l.gen = gen
	// Each replayed record becomes a delta or tombstone run over the base,
	// as it did when it was first published.
	records := int64(0)
	t0 := time.Now()
	good, torn, err := replayWAL(l.walPath(gen), func(op Op, triples []rdf.Triple) error {
		records++
		if op == OpDelete {
			removed, tombs := l.set.DeleteBatch(triples)
			l.deleted += uint64(removed)
			ix = ix.Applied(nil, tombs)
		} else {
			ix = ix.Applied(l.applyLocked(triples), nil)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.boot.WALReplay = time.Since(t0)
	l.RecoveredTorn = torn
	if l.wal, err = openWALForAppend(l.walPath(gen), good, l.sync, records); err != nil {
		return nil, err
	}

	l.applied = uint64(l.graph().NumEdges()) + l.deleted
	l.mu.Lock()
	l.publishInitialLocked(ix)
	l.mu.Unlock()
	l.removeStaleGenerations()
	opened = true
	return l, nil
}

// initGeneration lays generation 1 out in a fresh directory, in the order
// recovery relies on — seed's snapshot (when it holds triples), an empty
// WAL, then CURRENT — for Open to open like any other generation. The
// seed is only read.
func (l *Live) initGeneration(seed *store.Graph) error {
	if seed != nil && seed.NumEdges() > 0 {
		t0 := time.Now()
		if err := l.writeSnapshotFile(1, seed); err != nil {
			return err
		}
		l.boot.Snapshot = time.Since(t0)
	}
	w, err := createWAL(l.walPath(1), l.sync)
	if err != nil {
		return err
	}
	if err := w.close(); err != nil {
		return err
	}
	_, err = writeManifest(l.dir, 1)
	return err
}

// graph is the writer-side mutable graph (the builder set owns it).
func (l *Live) graph() *store.Graph { return l.set.Graph() }

// Maintained reports whether kind is kept incrementally current by the
// quotient engine (served with no staleness and no per-epoch rebuild).
func (l *Live) Maintained(kind core.Kind) bool { return l.set.Maintains(kind) }

// MaintainedKinds lists the incrementally maintained kinds.
func (l *Live) MaintainedKinds() []core.Kind { return l.set.Kinds() }

// Durable reports whether the store is backed by a WAL directory.
func (l *Live) Durable() bool { return l.dir != "" }

// Dir returns the store directory ("" for memory-only).
func (l *Live) Dir() string { return l.dir }

// Epoch returns the currently published epoch.
func (l *Live) Epoch() uint64 { return l.cur.Load().Epoch }

// Snapshot returns the current published epoch. The result is immutable
// and remains valid (and consistent) for as long as the caller holds it,
// regardless of concurrent ingest or compaction.
func (l *Live) Snapshot() *Snapshot { return l.cur.Load() }

// Add appends one triple: WAL record, fsync, apply, publish. Equivalent
// to AddBatch with a single triple — batch writes amortize much better.
func (l *Live) Add(t rdf.Triple) error { return l.AddBatch([]rdf.Triple{t}) }

// AddBatch appends a batch of triples as one WAL record and one fsync
// (group commit), applies them to the graph and the incremental weak
// summary, and publishes a new epoch. When AddBatch returns nil on a
// durable store, the batch survives a crash.
func (l *Live) AddBatch(triples []rdf.Triple) error {
	if len(triples) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("live: store is closed")
	}
	if l.wal != nil {
		if err := l.wal.append(triples); err != nil {
			return err
		}
	}
	batch := l.applyLocked(triples)
	l.applied += uint64(len(triples))
	l.publishLocked(batch)
	return nil
}

// applyLocked feeds triples to the graph and the builders and returns
// them encoded: the batch the next epoch's delta run holds. Caller holds
// l.mu, or owns l alone (Open's replay).
func (l *Live) applyLocked(triples []rdf.Triple) []store.Triple {
	d := l.graph().Dict()
	batch := make([]store.Triple, len(triples))
	for i, t := range triples {
		e := store.Triple{S: d.Encode(t.S), P: d.Encode(t.P), O: d.Encode(t.O)}
		l.set.AddEncoded(e.S, e.P, e.O)
		batch[i] = e
	}
	return batch
}

// Delete removes every stored copy of one triple; see DeleteBatch.
func (l *Live) Delete(t rdf.Triple) (int, error) { return l.DeleteBatch([]rdf.Triple{t}) }

// DeleteBatch removes every stored copy of each listed triple as one
// acknowledged batch: an OpDelete WAL record is written and fsynced
// (durable stores), the graph and every maintained summary shrink —
// exactly where the engine's bookkeeping is refcounted, else via a
// counted rebuild deferred to the next Summary call — and a new epoch
// publishes with a tombstone run in the index. Readers holding earlier
// epochs are unaffected: their graph views and index runs are immutable.
// Triples not present are ignored; the count of removed copies is
// returned. When DeleteBatch returns nil error on a durable store, the
// deletion survives a crash.
func (l *Live) DeleteBatch(triples []rdf.Triple) (int, error) {
	if len(triples) == 0 {
		return 0, nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("live: store is closed")
	}
	if !l.anyPresentLocked(triples) {
		// Nothing to remove: skip the WAL record, the component scan and
		// — crucially — the epoch publish, which would needlessly
		// invalidate every cached summary and pruner.
		return 0, nil
	}
	if l.wal != nil {
		if err := l.wal.appendOp(OpDelete, triples); err != nil {
			return 0, err
		}
	}
	removed, tombs := l.set.DeleteBatch(triples)
	l.deleted += uint64(removed)
	l.publishDeletesLocked(tombs)
	return removed, nil
}

// anyPresentLocked probes the published index (which matches the writer's
// state under l.mu) for any stored copy of the listed triples — an
// O(batch · log n) pre-check that lets a no-op delete return without side
// effects.
func (l *Live) anyPresentLocked(triples []rdf.Triple) bool {
	d := l.graph().Dict()
	ix := l.cur.Load().Index
	for _, t := range triples {
		s, okS := d.Lookup(t.S)
		p, okP := d.Lookup(t.P)
		o, okO := d.Lookup(t.O)
		if okS && okP && okO && ix.Contains(store.Triple{S: s, P: p, O: o}) {
			return true
		}
	}
	return false
}

// bootIndex returns the index over the base of the graph Open or New
// starts from, and adds the time it took to the boot's Index phase. A
// graph decoded from a snapshot sf — a durable generation's mapped file, a
// follower's bootstrap bytes — serves sf's column run (nothing is
// sorted); any other graph, a generation with an empty base included,
// serves a heap run of the writer graph.
func (l *Live) bootIndex(sf *store.SnapshotFile) *store.Index {
	defer func(t0 time.Time) { l.boot.Index += time.Since(t0) }(time.Now())
	if sf != nil {
		return store.NewIndexFromBase(sf.Runs())
	}
	return store.NewIndexFromBase(store.NewRunCols(l.graph().All()))
}

// publishInitialLocked installs epoch 1 at Open/New over ix. Caller holds
// l.mu.
func (l *Live) publishInitialLocked(ix *store.Index) {
	t0 := time.Now()
	defer epochPublishSeconds.ObserveSince(t0)
	l.installLocked(l.graph().SnapshotView(), ix)
	l.boot.Index += time.Since(t0)
}

// publishLocked builds and atomically installs the next epoch after the
// append of batch. Caller holds l.mu. The graph view shares storage with
// the writer's graph (copy-on-write: appends land beyond the view's
// clipped bounds); the index gains one delta run holding only the batch,
// so publish cost is O(batch), independent of the graph size.
func (l *Live) publishLocked(batch []store.Triple) {
	defer epochPublishSeconds.ObserveSince(time.Now())
	l.installLocked(l.graph().SnapshotView(), l.cur.Load().Index.Applied(batch, nil))
}

// publishDeletesLocked installs the epoch after a delete batch: the
// writer's components were compacted into fresh slices (held views keep
// the old ones), and the index gains one tombstone run suppressing the
// removed triples — O(batch) again, no index rebuild.
func (l *Live) publishDeletesLocked(tombs []store.Triple) {
	defer epochPublishSeconds.ObserveSince(time.Now())
	view := l.graph().SnapshotView()
	ix := l.cur.Load().Index.Applied(nil, tombs)
	l.installLocked(view, ix)
}

func (l *Live) installLocked(view *store.Graph, ix *store.Index) {
	l.published++
	l.cur.Store(&Snapshot{Epoch: l.published, Graph: view, Index: ix})
	if l.watch != nil {
		close(l.watch)
		l.watch = nil
	}
}

// Summary returns the summary of the given kind for (at least) the
// current epoch, along with the epoch it was built at. Maintained kinds
// come from the incremental builder set at the published epoch (no full
// pass over the graph), which may be newer than the epoch current when the
// call began; every other kind is built by a fresh builder set seeded with
// the current epoch's frozen view (core.Summarize). maxStale permits
// serving a cached summary up to that many epochs old (0 = always
// current), the staleness policy a serving layer exposes to its clients.
func (l *Live) Summary(kind core.Kind, maxStale uint64) (*core.Summary, uint64, error) {
	if int(kind) < 0 || int(kind) >= len(l.cells) {
		return nil, 0, fmt.Errorf("core: unknown summary kind %d", int(kind))
	}
	snap := l.Snapshot()
	cell := &l.cells[kind]
	cell.mu.Lock()
	defer cell.mu.Unlock()
	if cell.sum != nil && cell.epoch+maxStale >= snap.Epoch {
		return cell.sum, cell.epoch, nil
	}
	// The superseded summary can be served to nobody while this call
	// holds the cell: drop it now, so the collector need not keep it (and
	// its name overlay) alive beside the one being built. On a build
	// error the cell then holds nothing, as the error tells the caller.
	cell.sum = nil
	var (
		s     *core.Summary
		epoch = snap.Epoch
		err   error
	)
	if l.set.Maintains(kind) {
		s, epoch, err = l.fromBuilders(kind)
	} else {
		s, err = core.Summarize(snap.Graph, kind)
		cell.lazyBuilds++
	}
	if err != nil {
		return nil, 0, err
	}
	cell.sum, cell.epoch = s, epoch
	return s, epoch, nil
}

// fromBuilders materializes a maintained summary from the incremental
// builder set and returns the epoch it reflects: every writer applies a
// batch to the builders and publishes its epoch under l.mu, so while this
// holds l.mu the builders are exactly the published epoch's graph.
func (l *Live) fromBuilders(kind core.Kind) (*core.Summary, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, err := l.set.Summary(kind)
	if err != nil {
		return nil, 0, err
	}
	// The engine's summary aliases the writer's mutable graph as its
	// Input. Freeze Input to the epoch's published view (identical
	// content while we hold l.mu) so consumers — ComputeWeights iterates
	// Input's components — stay safe under concurrent ingest.
	cur := l.cur.Load()
	s.Input = cur.Graph
	return s, cur.Epoch, nil
}

// KindStatus reports one summary kind's maintenance state, the ground
// truth behind rdfsumd's /metrics endpoint.
type KindStatus struct {
	Kind core.Kind
	// Maintained: kept incrementally current by the quotient engine.
	Maintained bool
	// CachedEpoch is the epoch of the last materialized summary (0 when
	// none was served yet).
	CachedEpoch uint64
	// LazyBuilds counts the summaries of this kind served by a fresh
	// seeded set over an epoch's view, O(|G|) each — the cost maintained
	// kinds avoid (they stay at 0).
	LazyBuilds uint64
	// Rebuilds counts the engine-internal state reconstructions forced
	// by late-typing events and non-invertible deletions (see
	// core.BuilderSet.Rebuilds).
	Rebuilds uint64
}

// Status reports, per summary kind, its maintenance mode and rebuild
// counters.
func (l *Live) Status() []KindStatus {
	l.mu.Lock()
	rebuilds := make(map[core.Kind]uint64, core.NumKinds)
	for _, k := range l.set.Kinds() {
		rebuilds[k] = l.set.Rebuilds(k)
	}
	l.mu.Unlock()
	out := make([]KindStatus, 0, core.NumKinds)
	for _, k := range core.Kinds {
		cell := &l.cells[k]
		cell.mu.Lock()
		st := KindStatus{
			Kind:        k,
			Maintained:  l.set.Maintains(k),
			CachedEpoch: cell.epoch,
			LazyBuilds:  cell.lazyBuilds,
			Rebuilds:    rebuilds[k],
		}
		cell.mu.Unlock()
		out = append(out, st)
	}
	return out
}

// Stats reports the live store's serving counters.
type Stats struct {
	Epoch      uint64 // current published epoch
	Triples    uint64 // triples currently in the graph
	Added      uint64 // triples ever added (monotonic)
	Deleted    uint64 // triple copies ever removed (monotonic)
	Gen        uint64 // on-disk generation (0 for memory-only)
	WALBytes   int64  // bytes in the active WAL (0 for memory-only)
	IndexRuns  int    // runs in the published tiered index (read amplification)
	IndexTombs int    // tombstones retained across those runs
	DictTerms  int    // terms in the store's dictionary (what the next snapshot's dictionary holds)
	Durable    bool

	// What the store's three largest structures hold on the heap,
	// computed from their own lengths (not measured).
	DictBytes  int64 // the dictionary: key bytes, records, map slots
	GraphBytes int64 // the writer graph's component slices, 12 B a triple
	// IndexHeapBytes is what the published index holds on the heap: its
	// slice runs at 36 B a triple (a memory-only store's base, every
	// epoch's delta run and the folds below the index's encoding cutoff),
	// the encoded payloads of its larger folds (about 10–12 B a triple),
	// and the fences of its encoded runs, mapped or heap, 2 B a triple
	// per column once that column has served a range lookup.
	IndexHeapBytes int64
	// IndexMappedBytes is the column sections of the snapshot the
	// published index serves as its base (a durable store's generation, a
	// follower's bootstrap): file pages, resident as far as the page cache
	// keeps them.
	IndexMappedBytes int64
}

// Stats returns current counters.
func (l *Live) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	g := l.graph()
	st := Stats{
		Epoch:   l.published,
		Triples: uint64(g.NumEdges()),
		Added:   l.applied,
		Deleted: l.deleted,
		Durable: l.dir != "",
		Gen:     l.gen,

		DictTerms:  g.Dict().Len(),
		DictBytes:  g.Dict().MemoryBytes(),
		GraphBytes: int64(len(g.Data)+len(g.Types)+len(g.Schema)) * store.TripleBytes,
	}
	if snap := l.cur.Load(); snap != nil {
		st.IndexRuns = snap.Index.Runs()
		st.IndexTombs = snap.Index.Tombstones()
		st.IndexHeapBytes = snap.Index.HeapBytes()
		st.IndexMappedBytes = snap.Index.MappedBytes()
	}
	if l.wal != nil {
		st.WALBytes = l.wal.size
	}
	return st
}

// Compact folds the WAL into a fresh store snapshot and starts an empty
// log: it writes snapshot-<gen+1> from the writer graph (whose triples
// are the published epoch's), maps it, creates wal-<gen+1>, atomically
// swaps CURRENT to the new generation, deletes the old generation's
// files, and publishes an epoch whose index is the new file's mapped
// runs, resetting read amplification. A crash at any point leaves either
// the old generation fully intact or the new one fully current — never a
// half state. Readers are unaffected: index runs are immutable and keep
// the file they read mapped, so a snapshot held across a Compact keeps
// its exact contents.
func (l *Live) Compact() error {
	l.mu.Lock()
	err := l.compactLocked()
	l.mu.Unlock()
	if err == nil {
		// A generation's worth of heap just died at once (old delta runs,
		// the snapshot's sort buffers), and a GC cycle that marked while
		// it was live has set the next heap goal tens of MB too high.
		// Collecting now paces the next allocation burst — usually the
		// summaries that follow a compaction — against the real live
		// heap, for ≈ 50 ms (when added, it cut probe-bsbm's peak RSS
		// from 230 to 216 MB; that peak has since moved to the delete
		// stream). It also unmaps the old generation's file once no
		// epoch reads it.
		runtime.GC()
	}
	return err
}

// compactLocked is Compact under l.mu.
func (l *Live) compactLocked() error {
	if l.closed {
		return errors.New("live: store is closed")
	}
	if l.dir == "" {
		return errors.New("live: memory-only store cannot compact (no directory)")
	}
	// Under l.mu the published epoch is the writer's head, so the writer
	// graph's triples are exactly what it serves. The new file is mapped
	// and checked before anything points at it: if it cannot be opened,
	// the compaction fails here and the published epoch keeps serving the
	// old generation. Until CURRENT is replaced, a failure removes what
	// the compaction created: the old generation's files are all the
	// directory holds.
	newGen := l.gen + 1
	snapPath, walPath := l.snapshotPath(newGen), l.walPath(newGen)
	if err := l.writeSnapshotFile(newGen, l.graph()); err != nil {
		os.Remove(snapPath) // renamed into place, if only the directory sync failed
		return err
	}
	sf, err := openSnapshotFile(snapPath)
	if err != nil {
		os.Remove(snapPath)
		return err
	}
	newWAL, err := createWAL(walPath, l.sync)
	if err != nil {
		sf.Close()
		os.Remove(snapPath)
		return err
	}
	if renamed, err := writeManifest(l.dir, newGen); err != nil {
		newWAL.close()
		if !renamed {
			sf.Close()
			os.Remove(snapPath)
			os.Remove(walPath)
		}
		return err
	}
	// The new generation is current; retire the old one.
	oldGen := l.gen
	l.wal.close()
	l.wal, l.gen = newWAL, newGen
	os.Remove(l.walPath(oldGen))
	os.Remove(l.snapshotPath(oldGen))
	// Publish the new file's runs over the unchanged graph view.
	t0 := time.Now()
	l.installLocked(l.cur.Load().Graph, store.NewIndexFromBase(sf.Runs()))
	epochPublishSeconds.ObserveSince(t0)
	return nil
}

// Close flushes and closes the WAL and releases the directory lock.
// Published snapshots remain usable; further writes fail.
func (l *Live) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.watch != nil {
		// Wake long-polling replication watchers instead of leaving them
		// to their timeouts.
		close(l.watch)
		l.watch = nil
	}
	var err error
	if l.wal != nil {
		err = l.wal.close()
	}
	if l.lock != nil {
		if cerr := l.lock.Close(); err == nil {
			err = cerr
		}
		l.lock = nil
	}
	return err
}

// --- manifest and file layout ---------------------------------------------

func (l *Live) walPath(gen uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("wal-%d.log", gen))
}

func (l *Live) snapshotPath(gen uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("snapshot-%d.rdfsum", gen))
}

// snapshotFile is what writeSnapshotFile needs of the file it creates.
type snapshotFile interface {
	store.File
	Sync() error
	Close() error
}

// createSnapshotFile is os.Create; a variable so that a test can hand
// writeSnapshotFile a file whose writes fail.
var createSnapshotFile = func(path string) (snapshotFile, error) { return os.Create(path) }

// openSnapshotFile maps and checks a snapshot the store has just
// written; a variable so that a test can make the open fail.
var openSnapshotFile = func(path string) (*store.SnapshotFile, error) {
	return store.OpenSnapshotFile(path, true)
}

// writeSnapshotFile durably writes g as gen's base snapshot via tmp +
// fsync + rename. The writer streams and places the file's header last,
// so the tmp file is a snapshot only once WriteSnapshotV2 has returned;
// neither a crash nor a failed write leaves anything under the final
// name. Its columns are sorted from one gathered copy of g's triples.
func (l *Live) writeSnapshotFile(gen uint64, g *store.Graph) error {
	path := l.snapshotPath(gen)
	tmp := path + ".tmp"
	f, err := createSnapshotFile(tmp)
	if err != nil {
		return err
	}
	if err := store.WriteSnapshotV2(f, g, g.All(), nil); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if l.sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return l.syncDir()
}

// syncDir fsyncs the store directory so renames and creations are durable.
func (l *Live) syncDir() error {
	if !l.sync {
		return nil
	}
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

const manifestName = "CURRENT"

// HasState reports whether dir already holds an initialized live store
// (an existing CURRENT manifest). Callers use it to decide whether Open
// would write a seed graph or ignore it.
func HasState(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// readManifest returns the active generation, or os.ErrNotExist for a
// fresh directory.
func readManifest(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return 0, err
	}
	s := strings.TrimSpace(string(b))
	genStr, ok := strings.CutPrefix(s, "gen ")
	if !ok {
		return 0, fmt.Errorf("live: malformed manifest %q", s)
	}
	gen, err := strconv.ParseUint(genStr, 10, 64)
	if err != nil || gen == 0 {
		return 0, fmt.Errorf("live: malformed manifest generation %q", genStr)
	}
	return gen, nil
}

// writeManifest atomically points CURRENT at gen (tmp + fsync + rename +
// dir sync), and reports whether it got as far as the rename: an error
// with renamed false left CURRENT as it was. The referenced WAL and
// snapshot must already be durable. The tmp file's *data* is fsynced
// before the rename: without it a crash could durably install a CURRENT
// entry whose blocks never hit the disk, leaving an unopenable store
// after the old generation is deleted.
func writeManifest(dir string, gen uint64) (renamed bool, err error) {
	path := filepath.Join(dir, manifestName)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return false, err
	}
	if _, err := fmt.Fprintf(f, "gen %d\n", gen); err != nil {
		f.Close()
		os.Remove(tmp)
		return false, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return false, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return false, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return false, err
	}
	d, err := os.Open(dir)
	if err != nil {
		return true, err
	}
	defer d.Close()
	return true, d.Sync()
}

// removeStaleGenerations deletes snapshot/WAL files of generations other
// than the current one — leftovers of a crash between manifest swap and
// cleanup — and a spill/ directory, the index-run files that builds up
// to commit be176dd wrote under -index-spill-bytes and nothing reads any
// more. Best-effort.
func (l *Live) removeStaleGenerations() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	keepWAL := filepath.Base(l.walPath(l.gen))
	keepSnap := filepath.Base(l.snapshotPath(l.gen))
	for _, e := range entries {
		name := e.Name()
		if name == keepWAL || name == keepSnap {
			continue
		}
		switch {
		case strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snapshot-"):
			os.Remove(filepath.Join(l.dir, name))
		case name == "spill":
			os.RemoveAll(filepath.Join(l.dir, name))
		}
	}
}
