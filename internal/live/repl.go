package live

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"

	"rdfsum/internal/rdf"
)

// Replication support: the accessors a WAL-shipping leader needs to serve
// its on-disk state to followers, and the record-stream decoder a follower
// uses to apply what it receives. The generation manifest + WAL already
// define a total order over the store's state; these entry points expose
// it read-only, without the writer flock (the leader process owns the
// flock; followers never open the leader's directory — they receive bytes
// over the wire).

// Replication errors. A follower that sees ErrGenerationPruned must
// re-bootstrap from the leader's current snapshot: the generation it was
// tailing has been folded away by a compaction.
var (
	// ErrNotDurable: a memory-only store has no shippable state.
	ErrNotDurable = errors.New("live: memory-only store has no replication state")
	// ErrGenerationPruned: the requested generation is no longer on disk
	// (a compaction moved the store to a newer one).
	ErrGenerationPruned = errors.New("live: generation pruned by compaction")
	// ErrNoSnapshot: the generation's base graph was empty, so it has no
	// snapshot file; bootstrap from an empty graph instead.
	ErrNoSnapshot = errors.New("live: generation has no base snapshot")
	// ErrBadWALOffset: the requested offset is before the record area or
	// past the acknowledged size.
	ErrBadWALOffset = errors.New("live: wal offset out of range")
)

// WALDataStart is the byte offset of the first record in a WAL file —
// the offset a follower starts tailing a fresh generation from. Bytes
// before it are the magic + version header, which ships out of band (in
// the replication manifest), so the record stream itself is uniform.
const WALDataStart = int64(len(walMagic) + 1)

// ReplState describes the shippable state of a durable store at one
// instant: which generation is current, how far its WAL extends (only
// acknowledged bytes — the size always ends exactly on a record
// boundary), and whether the generation has a base snapshot.
type ReplState struct {
	Gen          uint64
	Epoch        uint64
	WALSize      int64 // acknowledged WAL bytes (header included)
	WALRecords   int64 // records framed into those bytes
	HasSnapshot  bool
	SnapshotSize int64 // bytes of the base snapshot file (0 when absent)
}

// ReplState reports the current replication state. It fails with
// ErrNotDurable on memory-only stores.
func (l *Live) ReplState() (ReplState, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return ReplState{}, ErrNotDurable
	}
	st := ReplState{
		Gen:        l.gen,
		Epoch:      l.published,
		WALSize:    l.wal.size,
		WALRecords: l.wal.records,
	}
	switch info, err := os.Stat(l.snapshotPath(l.gen)); {
	case err == nil:
		st.HasSnapshot, st.SnapshotSize = true, info.Size()
	case errors.Is(err, fs.ErrNotExist):
		// Empty-base generation: no snapshot file, by design.
	default:
		return ReplState{}, err
	}
	return st, nil
}

// SnapshotReader opens the base snapshot of the given generation for
// streaming (the caller must Close it) and reports its size. The file is
// immutable once written, and an open descriptor stays readable even if a
// concurrent compaction unlinks it — a follower mid-download is never cut
// off by the leader moving on. Returns ErrGenerationPruned when gen is no
// longer current and ErrNoSnapshot when the generation started empty.
func (l *Live) SnapshotReader(gen uint64) (io.ReadCloser, int64, error) {
	l.mu.Lock()
	if l.wal == nil {
		l.mu.Unlock()
		return nil, 0, ErrNotDurable
	}
	if gen != l.gen {
		l.mu.Unlock()
		return nil, 0, ErrGenerationPruned
	}
	path := l.snapshotPath(gen)
	l.mu.Unlock()

	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, ErrNoSnapshot
	}
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

// WALReader opens the given generation's WAL for streaming from offset
// (absolute file offset, >= WALDataStart) up to the acknowledged size at
// call time, returning the reader and the number of available bytes. The
// served range always ends on a record boundary: the acknowledged size
// only ever moves record-atomically. Appends past the captured size are
// not included — the follower polls again (or long-polls via Watch).
func (l *Live) WALReader(gen uint64, offset int64) (io.ReadCloser, int64, error) {
	l.mu.Lock()
	if l.wal == nil {
		l.mu.Unlock()
		return nil, 0, ErrNotDurable
	}
	if gen != l.gen {
		l.mu.Unlock()
		return nil, 0, ErrGenerationPruned
	}
	size := l.wal.size
	path := l.walPath(gen)
	l.mu.Unlock()

	if offset < WALDataStart || offset > size {
		return nil, 0, fmt.Errorf("%w: offset %d outside [%d, %d]",
			ErrBadWALOffset, offset, WALDataStart, size)
	}
	avail := size - offset
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, err
	}
	return &limitedFile{f: f, r: io.LimitReader(f, avail)}, avail, nil
}

// limitedFile bounds reads of an *os.File to the acknowledged range while
// keeping Close.
type limitedFile struct {
	f *os.File
	r io.Reader
}

func (lf *limitedFile) Read(p []byte) (int, error) { return lf.r.Read(p) }
func (lf *limitedFile) Close() error               { return lf.f.Close() }

// Watch returns a channel closed at the next epoch publication (append,
// delete or compaction). A replication leader long-polls on it to ship new
// WAL records the moment they are acknowledged instead of busy-polling.
// Each call returns the channel for the next publication; re-arm after
// every wake-up.
func (l *Live) Watch() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		// Never block a watcher on a store that will not publish again.
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	if l.watch == nil {
		l.watch = make(chan struct{})
	}
	return l.watch
}

// WALRecordReader decodes a stream of record-framed WAL bytes — the exact
// bytes a leader ships from WALReader, with no file header — back into
// (op, triples) batches. It is resumable: Offset reports how many bytes of
// complete records have been consumed, so after a disconnect mid-record
// the follower re-requests from its last good offset and loses nothing.
type WALRecordReader struct {
	br *bufio.Reader
}

// NewWALRecordReader wraps r, decoding records in the WALVersion framing.
func NewWALRecordReader(r io.Reader) *WALRecordReader {
	return &WALRecordReader{br: bufio.NewReaderSize(r, 1<<20)}
}

// Next decodes one record, returning its operation, triples, and encoded
// size in bytes (frame included). io.EOF signals a clean end of stream on
// a record boundary; any other error means the stream was cut or corrupted
// mid-record — resume from the offset of the last complete record.
func (rr *WALRecordReader) Next() (Op, []rdf.Triple, int64, error) {
	var frame [8]byte
	if _, err := io.ReadFull(rr.br, frame[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("live: wal stream cut mid-frame: %w", err)
	}
	length := binary.LittleEndian.Uint32(frame[0:4])
	sum := binary.LittleEndian.Uint32(frame[4:8])
	if length > maxWALRecordBytes {
		return 0, nil, 0, fmt.Errorf("live: wal stream record claims %d bytes", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(rr.br, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("live: wal stream cut mid-record: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, 0, errors.New("live: wal stream record checksum mismatch")
	}
	op, triples, err := decodeBatch(payload)
	if err != nil {
		return 0, nil, 0, err
	}
	return op, triples, int64(8 + length), nil
}
