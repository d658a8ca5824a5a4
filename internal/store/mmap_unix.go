//go:build unix && !nommap

package store

import (
	"os"
	"syscall"
)

// mapFile maps f read-only. The returned view stays valid after the
// file is closed and unlinked (the kernel keeps the pages until unmap),
// which is what lets a compaction remove the superseded generation's
// snapshot while older epochs still read it. close unmaps.
func mapFile(f *os.File) (data []byte, close func() error, err error) {
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if st.Size() == 0 {
		return nil, func() error { return nil }, nil
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

// usingMmap reports whether this build serves snapshots from mapped
// pages (surfaced by rdfsum inspect and the open-path log line).
const usingMmap = true
