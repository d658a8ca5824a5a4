package store

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"rdfsum/internal/dict"
)

// Snapshot format v2 content, inside the container of container.go:
//
//   - secDictPages/DictDir/DictSorted: the front-coded dictionary
//     (internal/dict, WriteFrontCoded), terms in ID order, so every term
//     keeps its ID across a reopen.
//   - secCompData/Types/Schema: the three graph components in INSERTION
//     order (summary node numbering depends on it), three uvarint IDs
//     per triple, back to back; counts live in the header.
//   - secColSPO/POS/OSP: the full triple multiset (all components,
//     duplicates preserved) sorted three ways as varint-delta columns
//     (colenc.go) — the zero-copy base run of the tiered index.

// WriteSnapshotV2 serializes the graph to f in snapshot format v2,
// streaming: a section passes through the container writer's one chunk
// buffer on its way to f, so writing holds O(terms) of its own (the
// dictionary's directory and sorted permutation), not the file. The
// header is placed last — what f holds before WriteSnapshotV2 returns nil
// is not a snapshot, and callers publish it (rename) only then.
//
// buf must hold exactly g's triple multiset, in any order (g.All(), say).
// The writer sorts it in place into SPO, POS and OSP order in turn,
// encoding each column section before the next sort, so the columns cost
// buf plus one scratch buffer: 24 B a triple. scratch may be nil, and is
// then allocated when the sort needs it. The dictionary section lists
// terms 1..Len, so g must not be over an overlay dictionary — re-encode
// with Dense first (SaveFile does).
func WriteSnapshotV2(f File, g *Graph, buf, scratch []Triple) error {
	if g.Dict().IsOverlay() {
		return errors.New("store: snapshot of a graph over an overlay dictionary (re-encode it with Dense)")
	}
	g.Ensure()
	if len(buf) != g.NumEdges() {
		return fmt.Errorf("store: snapshot buffer holds %d triples, graph %d", len(buf), g.NumEdges())
	}
	if len(buf) >= radixCutoff && len(scratch) < len(buf) {
		scratch = make([]Triple, len(buf))
	}
	w := newContainerWriter(f, fileKindSnapshot)
	w.begin()
	nTerms, dir, sorted, err := g.Dict().WriteFrontCoded(w)
	if err != nil {
		return err
	}
	w.end(secDictPages)
	w.section(secDictDir, dir)
	w.section(secDictSorted, sorted)
	for _, c := range []struct {
		id byte
		ts []Triple
	}{{secCompData, g.Data}, {secCompTypes, g.Types}, {secCompSchema, g.Schema}} {
		w.begin()
		writeComp(w, c.ts)
		w.end(c.id)
	}
	for o, id := range colSectionIDs {
		sortTriples(Order(o), buf, scratch)
		w.begin()
		writeCol(w, Order(o), buf)
		w.end(id)
	}
	w.section(secVocab, encodeVocabSec(g.Vocab()))
	return w.finish([4]uint64{uint64(nTerms), uint64(len(g.Data)), uint64(len(g.Types)), uint64(len(g.Schema))})
}

// colSectionIDs maps each sort order to its column section.
var colSectionIDs = [NumOrders]byte{OrderSPO: secColSPO, OrderPOS: secColPOS, OrderOSP: secColOSP}

// encodeVocabSec serializes the five interpreted-vocabulary IDs. The
// vocabulary is interned into every dictionary at graph construction,
// so resolving these at open time through the mapped dictionary would
// force its full CRC — this ~10-byte section keeps cold open O(1).
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

// Vocab returns the snapshot's interpreted-vocabulary IDs, when the file
// carries the vocab section (all current writers do).
func (sf *SnapshotFile) Vocab() (Vocab, bool) {
	sec, ok := sf.c.secs[secVocab]
	if !ok {
		return Vocab{}, false
	}
	sec.verifyLazy()
	v, err := decodeVocabSec(sec.raw, sf.c.nTerms)
	if err != nil {
		panic(corruptionPanic(err))
	}
	return v, true
}

// writeComp streams triples as back-to-back uvarint ID triples; the
// count lives in the container header.
func writeComp(w *containerWriter, ts []Triple) {
	var tmp [3 * binary.MaxVarintLen64]byte
	for _, t := range ts {
		n := binary.PutUvarint(tmp[:], uint64(t.S))
		n += binary.PutUvarint(tmp[n:], uint64(t.P))
		n += binary.PutUvarint(tmp[n:], uint64(t.O))
		w.Write(tmp[:n]) //nolint:errcheck // sticky
	}
}

// decodeComp parses an insertion-order component section.
func decodeComp(raw []byte, n int, maxID uint64) ([]Triple, error) {
	out := make([]Triple, 0, n)
	pos := 0
	for i := 0; i < n; i++ {
		var ids [3]uint64
		for j := range ids {
			v, w := binary.Uvarint(raw[pos:])
			if w <= 0 {
				return nil, fmt.Errorf("component triple %d: %w", i, ErrSnapshotTruncated)
			}
			if v == 0 || v > maxID {
				return nil, fmt.Errorf("%w: triple references unknown term id %d", ErrSnapshotCorrupt, v)
			}
			ids[j] = v
			pos += w
		}
		out = append(out, Triple{dict.ID(ids[0]), dict.ID(ids[1]), dict.ID(ids[2])})
	}
	return out, nil
}

// SnapshotFile is an open v2 snapshot: the mmap'd (or, under the nommap
// build tag, eagerly read) container plus lazily constructed views over
// it. Opening one is O(header + TOC); nothing else is read until
// touched. Safe for concurrent readers. The file stays mapped while the
// SnapshotFile, its runs or its dictionary are reachable, and is unmapped
// once none is; Close unmaps at once.
type SnapshotFile struct {
	c    *container
	path string
	md   *dict.Mapped
	runs RunCols

	matOnce          sync.Once
	matD, matT, matS []Triple
	matErr           error
}

// OpenSnapshotFile maps path and validates its header and TOC. With
// verify set, every section CRC is checked now; otherwise sections
// verify lazily on first touch.
func OpenSnapshotFile(path string, verify bool) (*SnapshotFile, error) {
	file, err := openMapping(path)
	if err != nil {
		return nil, err
	}
	sf, err := newSnapshotFile(file, verify)
	if err != nil {
		file.close() //nolint:errcheck // already failing
		return nil, err
	}
	sf.path = path
	return sf, nil
}

// parseSnapshot is parseContainer for a file that must be a snapshot:
// an index run (a spill file) is refused.
func parseSnapshot(data []byte, verify bool) (*container, error) {
	c, err := parseContainer(data, verify)
	if err == nil && c.kind != fileKindSnapshot {
		return nil, fmt.Errorf("%w: file is an index run, not a snapshot", ErrSnapshotCorrupt)
	}
	return c, err
}

func newSnapshotFile(file *mapping, verify bool) (*SnapshotFile, error) {
	c, err := parseSnapshot(file.data, verify)
	if err != nil {
		return nil, err
	}
	c.file = file
	sf := &SnapshotFile{c: c}
	pages, err := c.section(secDictPages)
	if err != nil {
		return nil, err
	}
	dirSec, err := c.section(secDictDir)
	if err != nil {
		return nil, err
	}
	sortedSec, err := c.section(secDictSorted)
	if err != nil {
		return nil, err
	}
	sf.md, err = dict.NewMapped(pages.raw, dirSec.raw, sortedSec.raw, int(c.nTerms))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	sf.md.Touch = func() {
		pages.verifyLazy()
		dirSec.verifyLazy()
	}
	sf.md.TouchSorted = sortedSec.verifyLazy
	sf.md.Owner = file
	sf.runs, err = openContainerCols(c, int(c.nData+c.nTypes+c.nSchema))
	if err != nil {
		return nil, err
	}
	return sf, nil
}

// openContainerCols builds the three mapped column views of a container
// (snapshot or spill run).
func openContainerCols(c *container, wantLen int) (*mappedCols, error) {
	m := &mappedCols{n: wantLen}
	for o, id := range colSectionIDs {
		sec, err := c.section(id)
		if err != nil {
			return nil, err
		}
		m.cols[o], err = openCol(Order(o), sec, wantLen, c.file)
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Path returns the file the snapshot was opened from.
func (sf *SnapshotFile) Path() string { return sf.path }

// Counts returns the term and per-component triple counts from the
// header — no section is touched.
func (sf *SnapshotFile) Counts() (nTerms, nData, nTypes, nSchema int) {
	return int(sf.c.nTerms), int(sf.c.nData), int(sf.c.nTypes), int(sf.c.nSchema)
}

// MappedDict returns the zero-copy dictionary view.
func (sf *SnapshotFile) MappedDict() *dict.Mapped { return sf.md }

// Runs returns the snapshot's column run — the base level of a tiered
// index, served without materialization.
func (sf *SnapshotFile) Runs() RunCols { return sf.runs }

// Components decodes (once) and returns the three insertion-order
// components. Structural errors after the CRC passed indicate a writer
// bug or memory corruption and panic with a corruption error.
func (sf *SnapshotFile) Components() (data, types, schema []Triple) {
	if err := sf.decodeComponents(); err != nil {
		panic(corruptionPanic(err))
	}
	return sf.matD, sf.matT, sf.matS
}

// decodeComponents decodes the three components once and reports the
// first structural error.
func (sf *SnapshotFile) decodeComponents() error {
	sf.matOnce.Do(func() {
		decode := func(id byte, n uint64) []Triple {
			sec, err := sf.c.section(id)
			var ts []Triple
			if err == nil {
				sec.verifyLazy()
				ts, err = decodeComp(sec.raw, int(n), sf.c.nTerms)
			}
			sf.matErr = cmp.Or(sf.matErr, err)
			return ts
		}
		sf.matD = decode(secCompData, sf.c.nData)
		sf.matT = decode(secCompTypes, sf.c.nTypes)
		sf.matS = decode(secCompSchema, sf.c.nSchema)
	})
	return sf.matErr
}

// Close releases the mapping now instead of when the last view over it is
// collected. The caller must ensure no Graph, Index or Dict view over this
// file is still in use.
func (sf *SnapshotFile) Close() error { return sf.c.file.close() }

// OpenGraphFile maps a snapshot file. The returned graph carries the
// snapshot as an unmaterialized base — component slices and the
// in-memory dictionary layer start empty and promote lazily via Ensure —
// and the SnapshotFile handle exposes the zero-copy column runs for
// index construction. With verify set, section CRCs are all checked now
// instead of lazily.
func OpenGraphFile(path string, verify bool) (*Graph, *SnapshotFile, error) {
	sf, err := OpenSnapshotFile(path, verify)
	if err != nil {
		return nil, nil, err
	}
	snapshotOpensV2.Inc()
	return graphOver(sf, dict.WithBase(sf.MappedDict())), sf, nil
}

// ReadGraph reads a snapshot stream into one buffer and serves it in
// place, as OpenGraphFile serves a mapped file (the SnapshotFile is built
// by the same constructor). The bytes come from outside, so it also
// checks what the store trusts its own files with: every section
// checksum, every vocabulary and component ID, and that no term is listed
// twice. Errors wrap the ErrSnapshot* sentinels.
func ReadGraph(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, truncatedOr(err)
	}
	sf, err := newSnapshotFile(heapMapping(data), true)
	if err != nil {
		return nil, err
	}
	if sec, ok := sf.c.secs[secVocab]; ok {
		if _, err := decodeVocabSec(sec.raw, sf.c.nTerms); err != nil {
			return nil, err
		}
	}
	if err := sf.decodeComponents(); err != nil {
		return nil, err
	}
	d := dict.WithBase(sf.MappedDict())
	if err := d.IndexBase(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return graphOver(sf, d), nil
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
	Kind     string
	FileSize int64
	PageSize int
	NTerms   uint64
	NData    uint64
	NTypes   uint64
	NSchema  uint64
	Sections []SectionInfo
	Mmap     bool // whether this build serves snapshots from mapped pages
}

// InspectSnapshot parses path's header and TOC and reports its layout.
func InspectSnapshot(path string) (*SnapshotInfo, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	data, closeFn, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	defer closeFn() //nolint:errcheck // read-only mapping
	c, err := parseContainer(data, false)
	if err != nil {
		return nil, err
	}
	info := &SnapshotInfo{
		Version:  snapshotVersion,
		Kind:     "snapshot",
		FileSize: st.Size(),
		PageSize: v2PageSize,
		NTerms:   c.nTerms,
		NData:    c.nData,
		NTypes:   c.nTypes,
		NSchema:  c.nSchema,
		Mmap:     usingMmap,
	}
	if c.kind == fileKindRun {
		info.Kind = "run"
	}
	for _, s := range c.secOrder {
		info.Sections = append(info.Sections, SectionInfo{
			Name: sectionName(s.id), Off: s.off, Len: s.n, CRC: s.crc,
		})
	}
	return info, nil
}
