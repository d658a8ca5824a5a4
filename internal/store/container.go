package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot format v2: a page-aligned, sectioned container designed to be
// mmap'd and served in place (see docs/storage-format.md for the full
// byte-level reference).
//
//	file :=
//	  magic "RDFSUM"                       6 bytes
//	  u8  version (2)
//	  u8  kind: 1 = snapshot (2, a retired index-run file, is refused)
//	  u32 pageSize (4096)
//	  u32 sectionCount
//	  u64 nTerms
//	  u64 nData | nTypes | nSchema
//	  u64 tocOff
//	  u32 tocCRC                           CRC-32 (IEEE) of the TOC bytes
//	  u32 headerCRC                        CRC-32 of bytes [0, 60)
//	  … page-aligned sections …
//	  TOC at tocOff: sectionCount × { u8 id, u64 off, u64 len, u32 crc }
//
// Each section is independently CRC'd. Every open that serves a
// snapshot checks the header, the TOC and then every section's checksum,
// reading the sections through one small buffer (container.verify).
//
// The TOC lists the six sections persist_v2.go writes, and nothing else:
// a file holding a section of a retired layout (IDs 3–9 and 13), or no
// dict-symbols section, is ErrSnapshotVersion, with a message naming
// commit 26fbe2b, the last build that reads it, and how to carry it
// forward; any other ID is ErrSnapshotCorrupt.
const (
	snapshotMagic   = "RDFSUM"
	snapshotVersion = 2
	v2PageSize      = 4096
	v2HeaderSize    = 64
	v2TocEntrySize  = 21
	// fileKindSnapshot is the one container kind. Kind 2 was an index run
	// spilled out of the heap; no build reads it any more.
	fileKindSnapshot = 1
)

// Section identifiers: the six sections a snapshot holds. IDs 3–9 and
// 13 named sections of retired layouts and must never be reused.
const (
	secDictPages = 1  // front-coded term blocks
	secDictDir   = 2  // block offset directory into secDictPages
	secVocab     = 10 // five uvarint IDs of the interpreted vocabulary
	secColSPO    = 11 // sorted all-triples column, SPO order, in tagged steps
	secColPOS    = 12
	secDictSyms  = 14 // the symbol table packed dictionary suffixes are coded with
)

// lastRetiredReader names the last build that reads a snapshot holding a
// retired section or lacking dict-symbols, and how such a file is carried
// forward.
const lastRetiredReader = "commit 26fbe2b is the last build that reads it: open the store once " +
	"with that build and POST /v1/compact, or run `rdfsum convert` with that build on a standalone file"

func sectionName(id byte) string {
	switch id {
	case secDictPages:
		return "dict-pages"
	case secDictDir:
		return "dict-dir"
	case secDictSyms:
		return "dict-symbols"
	case secColSPO:
		return "col-spo"
	case secColPOS:
		return "col-pos"
	case secVocab:
		return "vocab"
	default:
		return fmt.Sprintf("unknown-%d", id)
	}
}

// section is one parsed TOC entry plus its raw bytes.
type section struct {
	id     byte
	off, n uint64
	crc    uint32
	raw    []byte
}

// corruption carries an error across a panic out of a mapped column's
// decoder, which has no error return: opens check what they serve, so
// only a writer bug or a fault in mapped memory (a SIGBUS, for mmap I/O
// itself) raises it. The live layers treat it as fatal.
type corruption struct{ err error }

func (c corruption) Error() string { return c.err.Error() }
func (c corruption) Unwrap() error { return c.err }

func corruptionPanic(err error) error { return corruption{err: err} }

// verify checks every section's checksum in one pass over r, the
// container's bytes, through one small buffer: reading the mapping would
// fault into the resident set a file nothing else may read (a
// compaction's new generation, whose dictionary the writer never reads).
func (c *container) verify(r io.ReaderAt) error {
	buf := make([]byte, containerChunk)
	for _, s := range c.secOrder {
		var crc uint32
		for off := uint64(0); off < s.n; {
			chunk := buf[:min(s.n-off, containerChunk)]
			if _, err := r.ReadAt(chunk, int64(s.off+off)); err != nil {
				return fmt.Errorf("section %s: %w", sectionName(s.id), truncatedOr(err))
			}
			crc = crc32.Update(crc, crc32.IEEETable, chunk)
			off += uint64(len(chunk))
		}
		if crc != s.crc {
			return fmt.Errorf("%w: section %s (computed %08x, TOC carries %08x)",
				ErrSnapshotChecksum, sectionName(s.id), crc, s.crc)
		}
		snapshotSectionsVerified.Inc()
	}
	return nil
}

// container is a parsed v2 snapshot file.
type container struct {
	file     *mapping // owns the bytes
	nTerms   uint64
	nData    uint64
	nTypes   uint64
	nSchema  uint64
	secs     map[byte]*section
	secOrder []*section // file order, for inspect
}

// section returns the named section or an ErrSnapshotCorrupt error when
// the file lacks it.
func (c *container) section(id byte) (*section, error) {
	s, ok := c.secs[id]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %s", ErrSnapshotCorrupt, sectionName(id))
	}
	return s, nil
}

// parseContainer validates the header and TOC of a v2 file held in data
// (mmap'd or heap) and indexes its sections; verify checks their
// checksums. Its magic, version and header-CRC check is the one header
// check behind every open: a file that does not begin with (a prefix of)
// the magic is ErrSnapshotMagic, one cut inside the magic or the header
// ErrSnapshotTruncated.
func parseContainer(data []byte) (*container, error) {
	if n := min(len(data), len(snapshotMagic)); string(data[:n]) != snapshotMagic[:n] {
		return nil, ErrSnapshotMagic
	}
	if len(data) > len(snapshotMagic) && data[6] != snapshotVersion {
		return nil, fmt.Errorf("%w %d (this build reads only version %d; a version 1 "+
			"store is carried forward by opening it once with commit 8801477, the last "+
			"build that reads version 1, and compacting it)",
			ErrSnapshotVersion, data[6], snapshotVersion)
	}
	if len(data) < v2HeaderSize {
		return nil, fmt.Errorf("snapshot header: %w", ErrSnapshotTruncated)
	}
	if got := crc32.ChecksumIEEE(data[:60]); got != binary.LittleEndian.Uint32(data[60:64]) {
		return nil, fmt.Errorf("%w: header (computed %08x, file carries %08x)",
			ErrSnapshotChecksum, got, binary.LittleEndian.Uint32(data[60:64]))
	}
	c := &container{
		nTerms:  binary.LittleEndian.Uint64(data[16:24]),
		nData:   binary.LittleEndian.Uint64(data[24:32]),
		nTypes:  binary.LittleEndian.Uint64(data[32:40]),
		nSchema: binary.LittleEndian.Uint64(data[40:48]),
		secs:    make(map[byte]*section),
	}
	if kind := data[7]; kind != fileKindSnapshot {
		return nil, fmt.Errorf("%w: file kind %d, not a snapshot (kind %d)", ErrSnapshotCorrupt, kind, fileKindSnapshot)
	}
	if ps := binary.LittleEndian.Uint32(data[8:12]); ps != v2PageSize {
		return nil, fmt.Errorf("%w: page size %d (this build writes %d)", ErrSnapshotCorrupt, ps, v2PageSize)
	}
	count := binary.LittleEndian.Uint32(data[12:16])
	tocOff := binary.LittleEndian.Uint64(data[48:56])
	tocLen := uint64(count) * v2TocEntrySize
	if tocOff+tocLen > uint64(len(data)) || count > 64 {
		return nil, fmt.Errorf("snapshot v2 TOC at %d (+%d) beyond file end %d: %w",
			tocOff, tocLen, len(data), ErrSnapshotTruncated)
	}
	toc := data[tocOff : tocOff+tocLen]
	if got := crc32.ChecksumIEEE(toc); got != binary.LittleEndian.Uint32(data[56:60]) {
		return nil, fmt.Errorf("%w: TOC (computed %08x, header carries %08x)",
			ErrSnapshotChecksum, got, binary.LittleEndian.Uint32(data[56:60]))
	}
	for i := uint32(0); i < count; i++ {
		e := toc[i*v2TocEntrySize:]
		s := &section{
			id:  e[0],
			off: binary.LittleEndian.Uint64(e[1:9]),
			n:   binary.LittleEndian.Uint64(e[9:17]),
			crc: binary.LittleEndian.Uint32(e[17:21]),
		}
		if s.off+s.n > uint64(len(data)) {
			return nil, fmt.Errorf("section %s at %d (+%d) beyond file end %d: %w",
				sectionName(s.id), s.off, s.n, len(data), ErrSnapshotTruncated)
		}
		s.raw = data[s.off : s.off+s.n]
		switch s.id {
		case secDictPages, secDictDir, secVocab, secColSPO, secColPOS, secDictSyms:
		case 3, 4, 5, 6, 7, 8, 9, 13:
			return nil, fmt.Errorf("%w: the file holds section %d, of a retired layout; %s",
				ErrSnapshotVersion, s.id, lastRetiredReader)
		default:
			return nil, fmt.Errorf("%w: unknown section %d", ErrSnapshotCorrupt, s.id)
		}
		if _, dup := c.secs[s.id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %s", ErrSnapshotCorrupt, sectionName(s.id))
		}
		c.secs[s.id] = s
		c.secOrder = append(c.secOrder, s)
	}
	if c.secs[secDictSyms] == nil {
		return nil, fmt.Errorf("%w: the file holds no dict-symbols section, of a layout before the symbol table; %s",
			ErrSnapshotVersion, lastRetiredReader)
	}
	return c, nil
}

// File is what a container is written to — *os.File, in effect: the
// sections stream through Write, and WriteAt places the header once the
// offsets and checksums it carries are known.
type File interface {
	io.Writer
	io.WriterAt
}

// containerChunk is the size of the one buffer a container streams
// through: large enough that a write is a few dozen pages, small next to
// any section worth streaming.
const containerChunk = 256 << 10

// containerWriter streams a v2 container to a File positioned at offset
// zero: each section begins at the next page boundary and passes through
// one reused chunk buffer under a running CRC-32; finish writes the TOC
// and then — last — the 64-byte header, which carries the TOC's offset
// and checksum. Until then the file starts with zeros, which
// parseContainer refuses (ErrSnapshotMagic), so a prefix of a container
// never reads as one. The first error sticks: later calls do nothing and
// finish returns it.
type containerWriter struct {
	f   File
	buf []byte // bytes not yet handed to f
	pos uint64 // file offset of buf[0]
	err error

	inSec   bool   // between begin and end
	secOff  uint64 // file offset of the open section
	crc     uint32 // checksum of the open section's flushed bytes
	crcFrom int    // buf[crcFrom:] is the open section's unchecksummed part
	toc     []byte
}

func newContainerWriter(f File) *containerWriter {
	w := &containerWriter{f: f, buf: make([]byte, 0, containerChunk)}
	w.pad(v2HeaderSize) // the header's place
	return w
}

// offset is the file offset the next byte lands at.
func (w *containerWriter) offset() uint64 { return w.pos + uint64(len(w.buf)) }

func (w *containerWriter) flush() {
	if w.inSec {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf[w.crcFrom:])
		w.crcFrom = 0
	}
	if w.err == nil {
		_, w.err = w.f.Write(w.buf)
	}
	w.pos += uint64(len(w.buf))
	w.buf = w.buf[:0]
}

// Write appends p to the open section.
func (w *containerWriter) Write(p []byte) (int, error) {
	for rest := p; len(rest) > 0; {
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
		n := copy(w.buf[len(w.buf):cap(w.buf)], rest)
		w.buf = w.buf[:len(w.buf)+n]
		rest = rest[n:]
	}
	return len(p), w.err
}

// pad appends zeros (outside any section) up to file offset to.
func (w *containerWriter) pad(to uint64) {
	var zeros [v2PageSize]byte
	for w.offset() < to {
		w.Write(zeros[:min(to-w.offset(), v2PageSize)]) //nolint:errcheck // sticky
	}
}

// padToPage pads to the next page boundary.
func (w *containerWriter) padToPage() {
	w.pad((w.offset() + v2PageSize - 1) &^ uint64(v2PageSize-1))
}

// begin opens the next section at the next page boundary.
func (w *containerWriter) begin() {
	w.padToPage()
	w.inSec, w.secOff, w.crc, w.crcFrom = true, w.offset(), 0, len(w.buf)
}

// end closes the open section into the TOC under id.
func (w *containerWriter) end(id byte) {
	crc := crc32.Update(w.crc, crc32.IEEETable, w.buf[w.crcFrom:])
	w.inSec = false
	var e [v2TocEntrySize]byte
	e[0] = id
	binary.LittleEndian.PutUint64(e[1:9], w.secOff)
	binary.LittleEndian.PutUint64(e[9:17], w.offset()-w.secOff)
	binary.LittleEndian.PutUint32(e[17:21], crc)
	w.toc = append(w.toc, e[:]...)
}

// section writes a section whose payload is already in hand.
func (w *containerWriter) section(id byte, payload []byte) {
	w.begin()
	w.Write(payload) //nolint:errcheck // sticky
	w.end(id)
}

// finish writes the TOC at the next page boundary, then the header at
// offset zero, and reports the first error of the whole container.
func (w *containerWriter) finish(counts [4]uint64) error {
	w.padToPage()
	tocOff := w.offset()
	w.Write(w.toc) //nolint:errcheck // sticky
	w.flush()

	var hdr [v2HeaderSize]byte
	copy(hdr[:], snapshotMagic)
	hdr[6] = snapshotVersion
	hdr[7] = fileKindSnapshot
	binary.LittleEndian.PutUint32(hdr[8:12], v2PageSize)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(w.toc)/v2TocEntrySize))
	binary.LittleEndian.PutUint64(hdr[16:24], counts[0])
	binary.LittleEndian.PutUint64(hdr[24:32], counts[1])
	binary.LittleEndian.PutUint64(hdr[32:40], counts[2])
	binary.LittleEndian.PutUint64(hdr[40:48], counts[3])
	binary.LittleEndian.PutUint64(hdr[48:56], tocOff)
	binary.LittleEndian.PutUint32(hdr[56:60], crc32.ChecksumIEEE(w.toc))
	binary.LittleEndian.PutUint32(hdr[60:64], crc32.ChecksumIEEE(hdr[:60]))
	if w.err == nil {
		_, w.err = w.f.WriteAt(hdr[:], 0)
	}
	return w.err
}
