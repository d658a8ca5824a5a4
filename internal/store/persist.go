package store

import (
	"errors"
	"io"
	"os"
)

// Snapshot read failures are classified into distinct sentinel errors so a
// serving process can tell "wrong file" from "torn write" from "bit rot"
// in its logs and pick the right reaction (reject the path vs. restore a
// backup). Every error out of ReadGraph and OpenGraphFile that the
// file's content causes wraps exactly one of these; match with errors.Is.
var (
	// ErrSnapshotMagic: the file does not start with the snapshot magic —
	// not a snapshot at all.
	ErrSnapshotMagic = errors.New("store: not a snapshot file (bad magic)")
	// ErrSnapshotVersion: a snapshot, but a format this build does not
	// read: a version other than 2 (the message names the last build that
	// reads 1), or a version 2 file of a retired layout — holding a
	// section with ID 3–9 or 13, or no dict-symbols — whose message names
	// commit 26fbe2b, the last build that reads it, and the migration.
	ErrSnapshotVersion = errors.New("store: unsupported snapshot version")
	// ErrSnapshotTruncated: the file ended before the format said it
	// should — typically a torn or incomplete write.
	ErrSnapshotTruncated = errors.New("store: snapshot truncated")
	// ErrSnapshotCorrupt: structurally invalid content (impossible term
	// kinds, dangling triple IDs, oversized lengths) with the length
	// intact.
	ErrSnapshotCorrupt = errors.New("store: snapshot corrupt")
	// ErrSnapshotChecksum: a header, TOC or section CRC-32 does not match
	// the bytes it covers.
	ErrSnapshotChecksum = errors.New("store: snapshot checksum mismatch")
)

// truncatedOr classifies a read error: EOF-family errors mean the file
// ended early (truncation), anything else is an I/O failure passed
// through.
func truncatedOr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrSnapshotTruncated
	}
	return err
}

// SaveFile writes a snapshot to path in the current (v2) format,
// replacing any existing file.
func SaveFile(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSnapshotV2(f, g, g.All(), nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a snapshot from path as ReadGraph reads a stream.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, _, err := ReadGraph(f)
	return g, err
}
