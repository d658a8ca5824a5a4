package store

import (
	"runtime"
	"sync"
)

// mapping owns the bytes of one mapped file: a snapshot or a spill run.
// Every view that reads them — a mapped column, a mapped dictionary, an
// open SnapshotFile — holds the mapping, so the bytes stay mapped for as
// long as any view is reachable, and a cleanup unmaps them once none is.
// An unlinked file (a superseded spill run, a compacted-away snapshot)
// therefore gives its disk blocks back when the last epoch reading it is
// collected, not when the process exits.
type mapping struct {
	data  []byte
	unmap *unmapOnce
}

// unmapOnce releases a mapping exactly once, whether through close or the
// cleanup. It is separate from mapping so that the cleanup does not keep
// the mapping reachable.
type unmapOnce struct {
	once sync.Once
	fn   func() error
	err  error
}

func (u *unmapOnce) do() error {
	u.once.Do(func() { u.err = u.fn() })
	return u.err
}

// openMapping maps path read-only.
func openMapping(path string) (*mapping, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	u := &unmapOnce{fn: unmap}
	m := &mapping{data: data, unmap: u}
	runtime.AddCleanup(m, func(u *unmapOnce) { u.do() }, u) //nolint:errcheck // no one to report to
	return m, nil
}

// heapMapping holds bytes read into memory — a streamed snapshot — as a
// mapping with nothing to unmap: the collector frees them once no view
// holds them.
func heapMapping(data []byte) *mapping {
	return &mapping{data: data, unmap: &unmapOnce{fn: func() error { return nil }}}
}

// close unmaps now. The caller must know that no view is still in use.
func (m *mapping) close() error { return m.unmap.do() }
