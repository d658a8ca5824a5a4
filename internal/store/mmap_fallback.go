//go:build !unix || nommap

package store

import "os"

// mapFile on non-unix platforms (or -tags nommap builds) reads the file
// eagerly into the heap. Semantics match the mmap build — the bytes stay
// valid after unlink — at the cost of resident memory proportional to
// file size.
func mapFile(f *os.File) (data []byte, close func() error, err error) {
	data, err = os.ReadFile(f.Name())
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}

// usingMmap reports whether this build serves snapshots from mapped
// pages.
const usingMmap = false
