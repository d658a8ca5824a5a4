package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"rdfsum/internal/dict"
)

// Snapshot format v2 content, inside the container of container.go:
//
//   - secDictPages/DictDir/DictSyms: the front-coded dictionary
//     (internal/dict, WriteFrontCoded), terms in ID order, so every term
//     keeps its ID across a reopen, and the symbol table its packed
//     suffixes are coded with.
//   - secColSPO/POS: the full triple multiset (all components,
//     duplicates preserved) sorted two ways as varint-delta columns in
//     tagged steps (colenc.go) — the zero-copy base run of the tiered
//     index. The components are not stored apart: an open derives all
//     three from the SPO column, in SPO order (graph); their counts live
//     in the header.
//   - secVocab: the interpreted vocabulary's five IDs.
//
// These six are every section a file holds: one written before this
// layout (a retired section, or no symbol table) is refused at open
// (parseContainer).

// WriteSnapshotV2 serializes the graph g to f in snapshot format v2,
// taking its triples from ix, which must hold exactly g's triple
// multiset: the index an epoch publishes over g, or NewIndex(g) for a
// bare graph. It streams: a section passes through the container
// writer's one chunk buffer on its way to f, and each column is the
// index's ordered scan (Index.scans) ranged over twice (writeCol), so
// writing holds O(terms) of its own (the dictionary's directory, 8 B per
// 16 terms), not the file, and sorts nothing. The header is placed last —
// what f holds before WriteSnapshotV2 returns nil is not a snapshot, and
// callers publish it (rename) only then. The dictionary section lists
// terms 1..Len.
//
// Before writing anything it checks every mapped section the write reads
// against its file's checksum (checkSources): a byte that changed since
// the open checked it fails the write with ErrSnapshotChecksum instead
// of reaching the new file under a fresh checksum.
func WriteSnapshotV2(f File, g *Graph, ix *Index) error {
	n := g.NumEdges()
	if ix.Len() != n {
		return fmt.Errorf("store: snapshot index holds %d triples, graph %d", ix.Len(), n)
	}
	if err := checkSources(g, ix); err != nil {
		return err
	}
	w := newContainerWriter(f)
	w.begin()
	nTerms, dir, symbols, err := g.Dict().WriteFrontCoded(w)
	if err != nil {
		return err
	}
	w.end(secDictPages)
	w.section(secDictDir, dir)
	w.section(secDictSyms, symbols)
	scans := ix.scans()
	for o, id := range colSectionIDs {
		w.begin()
		if err := writeCol(w, Order(o), n, scans[o]); err != nil {
			return err
		}
		w.end(id)
	}
	w.section(secVocab, encodeVocabSec(g.Vocab()))
	return w.finish([4]uint64{uint64(nTerms), uint64(len(g.Data)), uint64(len(g.Types)), uint64(len(g.Schema))})
}

// checkSources checks every mapped section a write of g from ix reads —
// the three sections of the dictionary's mapped base, the two column
// sections of each mapped run — against the checksum its file's TOC
// carries (container.checkMapped). The open checked them; this sees what
// changed under the mapping since.
func checkSources(g *Graph, ix *Index) error {
	if m := g.Dict().Base(); m != nil {
		if c, ok := m.Owner.(*container); ok {
			if err := c.checkMapped(secDictPages, secDictDir, secDictSyms); err != nil {
				return err
			}
		}
	}
	for _, r := range ix.runs {
		if c, ok := r.cols.(*encCols); ok && c.src != nil {
			if err := c.src.checkMapped(secColSPO, secColPOS); err != nil {
				return err
			}
		}
	}
	return nil
}

// colSectionIDs maps each sort order to its column section.
var colSectionIDs = [NumOrders]byte{OrderSPO: secColSPO, OrderPOS: secColPOS}

// encodeVocabSec serializes the five interpreted-vocabulary IDs. The
// vocabulary is interned into every dictionary at graph construction;
// this ~10-byte section saves the open five lookups through it.
func encodeVocabSec(v Vocab) []byte {
	out := make([]byte, 0, 5*binary.MaxVarintLen64)
	var tmp [binary.MaxVarintLen64]byte
	for _, id := range [5]dict.ID{v.Type, v.SubClass, v.SubProp, v.Domain, v.Range} {
		n := binary.PutUvarint(tmp[:], uint64(id))
		out = append(out, tmp[:n]...)
	}
	return out
}

// decodeVocabSec parses the vocabulary section.
func decodeVocabSec(raw []byte, maxID uint64) (Vocab, error) {
	var ids [5]dict.ID
	pos := 0
	for i := range ids {
		v, w := binary.Uvarint(raw[pos:])
		if w <= 0 {
			return Vocab{}, fmt.Errorf("vocab id %d: %w", i, ErrSnapshotTruncated)
		}
		if v == 0 || v > maxID {
			return Vocab{}, fmt.Errorf("%w: vocab references unknown term id %d", ErrSnapshotCorrupt, v)
		}
		ids[i] = dict.ID(v)
		pos += w
	}
	return Vocab{Type: ids[0], SubClass: ids[1], SubProp: ids[2], Domain: ids[3], Range: ids[4]}, nil
}

// SnapshotFile is an open v2 snapshot: the mmap'd (or, under the nommap
// build tag, eagerly read) container plus its column runs, which decode
// on demand. Safe for concurrent readers. The file stays mapped while the
// SnapshotFile, its runs or a dictionary over it are reachable, and is
// unmapped once none is; Close unmaps at once.
type SnapshotFile struct {
	c    *container
	runs *encCols
}

// OpenSnapshotFile maps path and validates its header and TOC. With
// verify set, it checks every section's checksum too, reading the file
// rather than the mapping (container.verify): a snapshot that is served
// is opened so. Without it the open is O(1), for a caller that reads no
// section.
func OpenSnapshotFile(path string, verify bool) (*SnapshotFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	file, err := openMapping(f)
	if err != nil {
		return nil, err
	}
	var check io.ReaderAt
	if verify {
		check = f
	}
	sf, err := newSnapshotFile(file, check)
	if err != nil {
		file.close() //nolint:errcheck // already failing
	}
	return sf, err
}

// newSnapshotFile parses the container in file and opens its column
// runs; check, when not nil, holds the same bytes, and every section's
// checksum is checked against it first.
func newSnapshotFile(file *mapping, check io.ReaderAt) (*SnapshotFile, error) {
	c, err := parseContainer(file.data)
	if err != nil {
		return nil, err
	}
	if check != nil {
		if err := c.verify(check); err != nil {
			return nil, err
		}
	}
	c.file = file
	runs := &encCols{n: int(c.nData + c.nTypes + c.nSchema), src: c}
	for o, id := range colSectionIDs {
		sec, err := c.section(id)
		if err != nil {
			return nil, err
		}
		if runs.cols[o], err = openCol(Order(o), sec.raw, runs.n, file); err != nil {
			return nil, err
		}
	}
	return &SnapshotFile{c: c, runs: runs}, nil
}

// Runs returns the snapshot's column run — the base level of a tiered
// index, served without materialization.
func (sf *SnapshotFile) Runs() RunCols { return sf.runs }

// Close releases the mapping now instead of when the last view over it is
// collected. The caller must ensure no Graph, Index or Dict view over this
// file is still in use.
func (sf *SnapshotFile) Close() error { return sf.c.file.close() }

// graph decodes the snapshot's vocabulary and derives its three
// components from one checked walk of the SPO column (splitSPO), into a
// graph whose dictionary is a layer over the mapped one, indexed and
// checked now (dict.WithBase): O(|G|), 12 B a triple and 8 B a term on
// the heap, plus the SPO column's fences. A file without a vocabulary
// section is corrupt — every version 2 writer wrote one. The caller has
// checked the checksums.
func (sf *SnapshotFile) graph() (*Graph, error) {
	c := sf.c
	sec, err := c.section(secVocab)
	if err != nil {
		return nil, err
	}
	v, err := decodeVocabSec(sec.raw, c.nTerms)
	if err != nil {
		return nil, err
	}
	md, err := mappedDict(c)
	if err != nil {
		return nil, err
	}
	md.Owner = c // keeps c.file mapped; checkSources finds the checksums here
	d, err := dict.WithBase(md)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	g := &Graph{dict: d, vocab: v}
	if err := sf.splitSPO(g); err != nil {
		return nil, err
	}
	return g, nil
}

// mappedDict wraps c's three dictionary sections.
func mappedDict(c *container) (*dict.Mapped, error) {
	var raw [3][]byte
	for i, id := range []byte{secDictPages, secDictDir, secDictSyms} {
		sec, err := c.section(id)
		if err != nil {
			return nil, err
		}
		raw[i] = sec.raw
	}
	md, err := dict.NewMapped(raw[0], raw[1], raw[2], int(c.nTerms))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return md, nil
}

// splitSPO fills g's three components, each in SPO order, from one walk
// of the SPO column that routes each triple by Vocab.ComponentOf,
// checking the column's framing, varints and IDs on the way, and keeps
// the fences the walk derives for the column's range lookups. The walk
// must find the header's count of each component.
func (sf *SnapshotFile) splitSPO(g *Graph) error {
	c, col := sf.c, sf.runs.cols[OrderSPO]
	// The three counts sum to the column's length (newSnapshotFile), so
	// with none of them above the length the sum cannot wrap around, and
	// the presizes below are bounded by the column's bytes (openCol).
	if n := uint64(col.n); c.nData > n || c.nTypes > n || c.nSchema > n {
		return fmt.Errorf("%w: %d data, %d type and %d schema triples claimed by a column of %d",
			ErrSnapshotCorrupt, c.nData, c.nTypes, c.nSchema, n)
	}
	g.Data = make([]Triple, 0, c.nData)
	g.Types = make([]Triple, 0, c.nTypes)
	g.Schema = make([]Triple, 0, c.nSchema)
	fs, err := col.walk(dict.ID(c.nTerms), func(t Triple) {
		switch g.vocab.ComponentOf(t.P) {
		case CompTypes:
			g.Types = append(g.Types, t)
		case CompSchema:
			g.Schema = append(g.Schema, t)
		default:
			g.Data = append(g.Data, t)
		}
	})
	if err != nil {
		return err
	}
	if uint64(len(g.Data)) != c.nData || uint64(len(g.Types)) != c.nTypes || uint64(len(g.Schema)) != c.nSchema {
		return fmt.Errorf("%w: column %v holds %d data, %d type and %d schema triples, header says %d, %d and %d",
			ErrSnapshotCorrupt, OrderSPO, len(g.Data), len(g.Types), len(g.Schema), c.nData, c.nTypes, c.nSchema)
	}
	col.fences.Store(&fs)
	return nil
}

// OpenGraphFile maps a snapshot file, checks every section's checksum,
// and decodes its graph (see graph). The column runs — what the returned
// SnapshotFile serves as an index's base — stay on the file's pages.
func OpenGraphFile(path string) (*Graph, *SnapshotFile, error) {
	sf, err := OpenSnapshotFile(path, true)
	if err != nil {
		return nil, nil, err
	}
	g, err := sf.graph()
	if err != nil {
		sf.Close() //nolint:errcheck // already failing
		return nil, nil, err
	}
	snapshotOpensV2.Inc()
	return g, sf, nil
}

// ReadGraph reads a snapshot stream into one buffer and serves it in
// place, as OpenGraphFile serves a mapped file: the graph's dictionary is
// a layer over the buffer's, and the SnapshotFile's column runs can be an
// index's base. The bytes come from outside, so it also checks what the
// store trusts its own files with: it walks the POS column once too (the
// graph's decode walked the SPO column), keeping the fences the walk
// derives. Errors wrap the ErrSnapshot* sentinels.
func ReadGraph(r io.Reader) (*Graph, *SnapshotFile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, truncatedOr(err)
	}
	sf, err := newSnapshotFile(heapMapping(data), bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	g, err := sf.graph()
	if err != nil {
		return nil, nil, err
	}
	for _, col := range sf.runs.cols[OrderSPO+1:] {
		fs, err := col.walk(dict.ID(sf.c.nTerms), nil)
		if err != nil {
			return nil, nil, err
		}
		col.fences.Store(&fs)
	}
	return g, sf, nil
}

// SectionInfo describes one TOC entry, for inspection tooling.
type SectionInfo struct {
	Name string
	Off  uint64
	Len  uint64
	CRC  uint32
}

// SnapshotInfo is the parsed header/TOC of a snapshot file, as shown by
// `rdfsum inspect`.
type SnapshotInfo struct {
	Version  int
	FileSize int64
	PageSize int
	NTerms   uint64
	NData    uint64
	NTypes   uint64
	NSchema  uint64
	Sections []SectionInfo
	Mmap     bool // whether this build serves snapshots from mapped pages
	// The dictionary's symbol table: how many symbols it holds, and how
	// many of the NTerms terms are packed.
	DictSymbols int
	DictPacked  uint64
}

// InspectSnapshot parses path's header and TOC and reports its layout,
// and walks the dictionary's pages to count the packed terms.
func InspectSnapshot(path string) (*SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, closeFn, err := mapFile(f)
	if err != nil {
		return nil, err
	}
	defer closeFn() //nolint:errcheck // read-only mapping
	c, err := parseContainer(data)
	if err != nil {
		return nil, err
	}
	info := &SnapshotInfo{
		Version:  snapshotVersion,
		FileSize: int64(len(data)),
		PageSize: v2PageSize,
		NTerms:   c.nTerms,
		NData:    c.nData,
		NTypes:   c.nTypes,
		NSchema:  c.nSchema,
		Mmap:     usingMmap,
	}
	for _, s := range c.secOrder {
		info.Sections = append(info.Sections, SectionInfo{
			Name: sectionName(s.id), Off: s.off, Len: s.n, CRC: s.crc,
		})
	}
	md, err := mappedDict(c)
	if err != nil {
		return nil, err
	}
	packed, err := md.Packed()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	info.DictSymbols, info.DictPacked = md.Symbols(), uint64(packed)
	return info, nil
}
