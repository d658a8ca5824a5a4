package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Index spill: folded runs larger than a threshold move out of the heap
// into on-disk column files (the v2 run container — the same format the
// snapshot's column sections use) and are served through the mapped Col
// machinery. Under sustained ingest this bounds resident memory by the
// unfolded tail instead of the whole index: the page cache decides which
// run pages stay hot.
//
// Spill files are rebuildable state (a crash recovers from snapshot +
// WAL), so writes are not fsynced and the live subsystem wipes the spill
// directory on open. A superseded file is unlinked as soon as a fold
// replaces it; epochs still holding the old run keep reading the mapping.

// TripleBytes is the in-memory size of one encoded triple, used to
// convert a byte threshold into a triple count.
const TripleBytes = 12

// SpillConfig enables index spilling. One SpillConfig is shared by every
// Index version derived from the same store (the sequence counter names
// files uniquely across folds).
type SpillConfig struct {
	// Dir is the directory spill files are written to. It must exist.
	Dir string
	// MinBytes is the smallest in-memory run size worth spilling
	// (len(run) · TripleBytes · 3 orders is the heap cost avoided).
	MinBytes int64

	seq atomic.Uint64
}

// maybeSpill moves an in-memory run to an on-disk column file when the
// index has spilling configured and the run is large enough. Spilling is
// best-effort: on any error the in-memory run is returned unchanged.
func (ix *Index) maybeSpill(r *run) *run {
	cfg := ix.spill
	if cfg == nil || r.file != "" {
		return r
	}
	mc, ok := r.cols.(*memCols)
	if !ok || int64(len(mc.spo))*TripleBytes < cfg.MinBytes {
		return r
	}
	path := filepath.Join(cfg.Dir, fmt.Sprintf("run-%08d.col", cfg.seq.Add(1)))
	size, err := writeRunFile(path, mc)
	if err != nil {
		os.Remove(path) //nolint:errcheck // best-effort cleanup
		return r
	}
	cols, err := openRunFile(path)
	if err != nil {
		os.Remove(path) //nolint:errcheck // best-effort cleanup
		return r
	}
	indexSpillRuns.Inc()
	indexSpillBytes.Add(float64(size))
	return &run{cols: cols, dels: r.dels, delSet: r.delSet, level: r.level, file: path}
}

// unlinkSpill removes a superseded run's spill file from the directory.
// The mapping (and thus any older epoch still reading the run) stays
// valid; the space is reclaimed when the last mapping goes away.
func (r *run) unlinkSpill() {
	if r.file != "" {
		os.Remove(r.file) //nolint:errcheck // best-effort; wiped at next open
	}
}

// writeRunFile creates path and streams an in-memory run's three columns
// into it as a v2 run container, returning the file size.
func writeRunFile(path string, mc *memCols) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := newContainerWriter(f, fileKindRun)
	writeCols(w, mc)
	if err := w.finish([4]uint64{0, uint64(mc.length()), 0, 0}); err != nil {
		f.Close() //nolint:errcheck // already failing
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //nolint:errcheck // already failing
		return 0, err
	}
	return st.Size(), f.Close()
}

// openRunFile maps a spill file and returns its column views. Section
// CRCs verify lazily on first touch, like snapshot sections.
func openRunFile(path string) (RunCols, error) {
	data, closeFn, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	c, err := parseContainer(data, false)
	if err != nil {
		closeFn() //nolint:errcheck // already failing
		return nil, err
	}
	if c.kind != fileKindRun {
		closeFn() //nolint:errcheck // already failing
		return nil, fmt.Errorf("%w: %s is not an index run file", ErrSnapshotCorrupt, path)
	}
	cols, err := openContainerCols(c, int(c.nData))
	if err != nil {
		closeFn() //nolint:errcheck // already failing
		return nil, err
	}
	return cols, nil
}
