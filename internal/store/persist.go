package store

import (
	"errors"
	"io"
	"os"
)

// Snapshot read failures are classified into distinct sentinel errors so a
// serving process can tell "wrong file" from "torn write" from "bit rot"
// in its logs and pick the right reaction (reject the path vs. restore a
// backup). Every error out of ReadSnapshot wraps exactly one of these;
// match with errors.Is.
var (
	// ErrSnapshotMagic: the file does not start with the snapshot magic —
	// not a snapshot at all.
	ErrSnapshotMagic = errors.New("store: not a snapshot file (bad magic)")
	// ErrSnapshotVersion: a snapshot, but a format version this build does
	// not read: any but 2 (the message names the last build that reads 1).
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

// ReadSnapshot reconstructs a graph from a snapshot stream, verifying
// every checksum eagerly (this is the streamed path — replication
// bootstrap and piped tooling — where the bytes are transient and a lazy
// view has nothing durable to map). Errors wrap the ErrSnapshot*
// sentinels.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, truncatedOr(err)
	}
	c, err := parseSnapshot(data, true)
	if err != nil {
		return nil, err
	}
	return graphFromContainer(c)
}

// SaveFile writes a snapshot to path in the current (v2) format,
// replacing any existing file. A graph over an overlay dictionary (a
// summary) is written in its Dense form: the file holds the terms the
// graph references, not its input's dictionary.
func SaveFile(path string, g *Graph) error {
	g = g.Dense()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteSnapshotV2(f, g, NewRunCols(g.All())); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}
