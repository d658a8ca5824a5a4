package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// Legacy v1 snapshot format, decode-only (WriteSnapshotV2 is the one
// encoder; see persist_v2.go):
//
//	magic   "RDFSUM" + format version byte
//	uvarint number of dictionary terms, then for each term:
//	        kind byte, then length-prefixed value [, datatype, lang for literals]
//	uvarint data triple count, then 3 uvarint IDs per triple
//	uvarint type triple count, same encoding
//	uvarint schema triple count, same encoding
//	uint32  little-endian CRC-32 (IEEE) of everything preceding it
const (
	snapshotMagic   = "RDFSUM"
	snapshotVersion = 1
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
	// not read.
	ErrSnapshotVersion = errors.New("store: unsupported snapshot version")
	// ErrSnapshotTruncated: the file ended before the format said it
	// should — typically a torn or incomplete write.
	ErrSnapshotTruncated = errors.New("store: snapshot truncated")
	// ErrSnapshotCorrupt: structurally invalid content (impossible term
	// kinds, dangling triple IDs, oversized lengths) with the length
	// intact.
	ErrSnapshotCorrupt = errors.New("store: snapshot corrupt")
	// ErrSnapshotChecksum: the trailing CRC-32 does not match the payload.
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

// crcReader hashes exactly the bytes the parser consumes, which a
// TeeReader around a buffered reader cannot do (read-ahead would pollute
// the digest).
type crcReader struct {
	src *bufio.Reader
	crc hash.Hash32
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.src.ReadByte()
	if err == nil {
		var one [1]byte
		one[0] = b
		c.crc.Write(one[:]) //nolint:errcheck // hash writes cannot fail
	}
	return b, err
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.src.Read(p)
	if n > 0 {
		c.crc.Write(p[:n]) //nolint:errcheck // hash writes cannot fail
	}
	return n, err
}

// ReadSnapshot reconstructs a graph from a snapshot stream of either
// format version, verifying every checksum eagerly (this is the
// streamed path — replication bootstrap and piped tooling — where the
// bytes are transient and a lazy view has nothing durable to map).
// Errors wrap the ErrSnapshot* sentinels.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	hdr, err := br.Peek(len(snapshotMagic) + 1)
	if err != nil {
		return nil, fmt.Errorf("snapshot header: %w", truncatedOr(err))
	}
	if string(hdr[:len(snapshotMagic)]) != snapshotMagic {
		return nil, ErrSnapshotMagic
	}
	switch hdr[len(snapshotMagic)] {
	case snapshotVersion:
		return readSnapshotV1(br)
	case snapshotVersion2:
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, truncatedOr(err)
		}
		c, err := parseContainer(data, true)
		if err != nil {
			return nil, err
		}
		return graphFromContainer(c)
	default:
		return nil, fmt.Errorf("%w %d (this build reads 1 and 2)",
			ErrSnapshotVersion, hdr[len(snapshotMagic)])
	}
}

// readSnapshotV1 parses the legacy eager format. The magic and version
// bytes are still unconsumed in r (only peeked) so the running checksum
// covers them.
func readSnapshotV1(r *bufio.Reader) (*Graph, error) {
	br := &crcReader{src: r, crc: crc32.NewIEEE()}

	magic := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("snapshot header: %w", truncatedOr(err))
	}

	nTerms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("snapshot dictionary size: %w", truncatedOr(err))
	}
	d := dict.WithCapacity(int(nTerms))
	for i := uint64(0); i < nTerms; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("snapshot term %d: %w", i, truncatedOr(err))
		}
		value, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("snapshot term %d: %w", i, truncatedOr(err))
		}
		t := rdf.Term{Kind: rdf.TermKind(kind), Value: value}
		if t.Kind == rdf.Literal {
			if t.Datatype, err = readString(br); err != nil {
				return nil, fmt.Errorf("snapshot term %d: %w", i, truncatedOr(err))
			}
			if t.Lang, err = readString(br); err != nil {
				return nil, fmt.Errorf("snapshot term %d: %w", i, truncatedOr(err))
			}
		}
		switch t.Kind {
		case rdf.IRI, rdf.Blank, rdf.Literal:
		default:
			return nil, fmt.Errorf("%w: term %d has invalid kind %d", ErrSnapshotCorrupt, i, kind)
		}
		d.Encode(t)
	}
	if d.Len() != int(nTerms) {
		return nil, fmt.Errorf("%w: dictionary holds duplicate terms", ErrSnapshotCorrupt)
	}

	g := NewGraphWithDict(d)
	maxID := uint64(d.MaxID())
	for comp := 0; comp < 3; comp++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("snapshot component %d size: %w", comp, truncatedOr(err))
		}
		ts := make([]Triple, 0, n)
		for i := uint64(0); i < n; i++ {
			var ids [3]uint64
			for j := range ids {
				ids[j], err = binary.ReadUvarint(br)
				if err != nil {
					return nil, fmt.Errorf("snapshot component %d triple %d: %w", comp, i, truncatedOr(err))
				}
				if ids[j] == 0 || ids[j] > maxID {
					return nil, fmt.Errorf("%w: triple references unknown term id %d", ErrSnapshotCorrupt, ids[j])
				}
			}
			ts = append(ts, Triple{dict.ID(ids[0]), dict.ID(ids[1]), dict.ID(ids[2])})
		}
		switch comp {
		case 0:
			g.Data = ts
		case 1:
			g.Types = ts
		case 2:
			g.Schema = ts
		}
	}

	want := br.crc.Sum32() // checksum of exactly the consumed payload bytes
	var sum [4]byte
	if _, err := io.ReadFull(br.src, sum[:]); err != nil {
		return nil, fmt.Errorf("snapshot checksum: %w", truncatedOr(err))
	}
	if binary.LittleEndian.Uint32(sum[:]) != want {
		return nil, fmt.Errorf("%w (want %08x, file carries %08x)",
			ErrSnapshotChecksum, want, binary.LittleEndian.Uint32(sum[:]))
	}
	return g, nil
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

func readString(br *crcReader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<31 {
		return "", fmt.Errorf("%w: string length %d too large", ErrSnapshotCorrupt, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
