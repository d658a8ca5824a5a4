package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// v2Sample builds a graph spanning all components and term kinds and
// returns it with its v2 serialization.
func v2Sample(t testing.TB) (*Graph, []byte) {
	t.Helper()
	g := FromTriples([]rdf.Triple{
		rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/b")),
		rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/C")),
		rdf.NewTriple(rdf.NewIRI("http://x/C"), rdf.NewIRI(rdf.RDFSSubClassOf), rdf.NewIRI("http://x/D")),
		rdf.NewTriple(rdf.NewBlank("b0"), rdf.NewIRI("http://x/q"), rdf.NewLangLiteral("hi", "en")),
		rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/q"), rdf.NewTypedLiteral("3", "http://www.w3.org/2001/XMLSchema#int")),
	})
	var f memFile
	if err := WriteSnapshotV2(&f, g, g.All(), nil); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	return g, f.b
}

// memFile is an in-memory File: what a test that wants the bytes hands
// the snapshot writer in place of an *os.File.
type memFile struct{ b []byte }

func (m *memFile) Write(p []byte) (int, error) {
	m.b = append(m.b, p...)
	return len(p), nil
}

func (m *memFile) WriteAt(p []byte, off int64) (int, error) {
	if grow := int(off) + len(p) - len(m.b); grow > 0 {
		m.b = append(m.b, make([]byte, grow)...)
	}
	return copy(m.b[off:], p), nil
}

// v2RandomGraph builds a graph with duplicate-free but skewed random
// triples, enough to span multiple column blocks and dictionary pages.
func v2RandomGraph(t *testing.T, seed uint64, n int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 7))
	g := NewGraph()
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://x/n%d", rng.IntN(n/2+1)))
		p := rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.IntN(8)))
		var o rdf.Term
		switch rng.IntN(4) {
		case 0:
			o = rdf.NewLiteral(fmt.Sprintf("lit-%d", rng.IntN(n)))
		case 1:
			o = rdf.NewLangLiteral(fmt.Sprintf("v%d", rng.IntN(n)), "en")
		default:
			o = rdf.NewIRI(fmt.Sprintf("http://x/n%d", rng.IntN(n/2+1)))
		}
		g.Add(rdf.Triple{S: s, P: p, O: o})
		if rng.IntN(10) == 0 {
			g.Add(rdf.Triple{S: s, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI(fmt.Sprintf("http://x/C%d", rng.IntN(5)))})
		}
	}
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/C0"), rdf.NewIRI(rdf.RDFSSubClassOf), rdf.NewIRI("http://x/C1")))
	return g
}

// identicalGraphs requires bit-identity: same dictionary (every ID maps
// to the same term) and same component slices in the same order.
func identicalGraphs(t *testing.T, want, got *Graph) {
	t.Helper()
	if w, g := want.Dict().Len(), got.Dict().Len(); w != g {
		t.Fatalf("dict size changed: %d -> %d", w, g)
	}
	for id := 1; id <= want.Dict().Len(); id++ {
		w := want.Dict().Term(dict.ID(id))
		g := got.Dict().Term(dict.ID(id))
		if w != g {
			t.Fatalf("dict id %d changed: %v -> %v", id, w, g)
		}
	}
	comps := [][2][]Triple{{want.Data, got.Data}, {want.Types, got.Types}, {want.Schema, got.Schema}}
	for ci, c := range comps {
		if len(c[0]) != len(c[1]) {
			t.Fatalf("component %d size changed: %d -> %d", ci, len(c[0]), len(c[1]))
		}
		for i := range c[0] {
			if c[0][i] != c[1][i] {
				t.Fatalf("component %d triple %d changed: %v -> %v", ci, i, c[0][i], c[1][i])
			}
		}
	}
}

// asOpened returns the graph an open of g's snapshot decodes: g's
// dictionary as it is, its three components in SPO order, the order the
// open derives them in from the SPO column.
func asOpened(g *Graph) *Graph {
	h := g.CloneStructure()
	slices.SortFunc(h.Data, OrderSPO.compare)
	slices.SortFunc(h.Types, OrderSPO.compare)
	slices.SortFunc(h.Schema, OrderSPO.compare)
	return h
}

func TestSnapshotV2RoundTripStream(t *testing.T) {
	g, data := v2Sample(t)
	got, _, err := ReadGraph(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	identicalGraphs(t, asOpened(g), got)
}

func TestSnapshotV2RoundTripMapped(t *testing.T) {
	for _, n := range []int{3, 50, 3000} { // spans 1 and many column blocks
		g := v2RandomGraph(t, uint64(n), n)
		path := filepath.Join(t.TempDir(), "g.rdfsum")
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("SaveFile: %v", err)
		}
		got, sf, err := OpenGraphFile(path)
		if err != nil {
			t.Fatalf("OpenGraphFile: %v", err)
		}
		if sf == nil {
			t.Fatal("OpenGraphFile on v2 returned no SnapshotFile")
		}
		identicalGraphs(t, asOpened(g), got)
		// The open walked the SPO column to derive the components, and
		// kept the fences the walk derived.
		if sf.runs.cols[OrderSPO].fences.Load() == nil {
			t.Fatal("OpenGraphFile did not keep the SPO column's fences")
		}
		if err := sf.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestSnapshotV2IndexFromBase: an index served zero-copy from the mapped
// snapshot answers every pattern exactly like one built from the decoded
// graph — with and without a mutation tail.
func TestSnapshotV2IndexFromBase(t *testing.T) {
	g := v2RandomGraph(t, 11, 2000)
	path := filepath.Join(t.TempDir(), "g.rdfsum")
	if err := SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	sf, err := OpenSnapshotFile(path, false)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}
	defer sf.Close()

	want := NewIndex(g)
	tail := []Triple{g.Data[0], g.Types[0], {S: 1, P: 2, O: 1}}
	for _, tc := range []struct {
		name string
		tail []Triple
	}{{"no-tail", nil}, {"tail", tail}} {
		got := NewIndexFromBase(sf.Runs()).Applied(tc.tail, nil)
		ref := want.Applied(tc.tail, nil)
		if got.Len() != ref.Len() {
			t.Fatalf("%s: index length %d, want %d", tc.name, got.Len(), ref.Len())
		}
		if !sameIterationOrder(got, ref) {
			t.Fatalf("%s: mapped-base index iteration diverges from in-memory index", tc.name)
		}
	}
}

// TestSnapshotVersionNegotiation: version 2 is the one format any open
// reads. Version 1 and an unknown future version are refused by every
// entry point with ErrSnapshotVersion, and the message names the version
// and the last build that reads version 1.
func TestSnapshotVersionNegotiation(t *testing.T) {
	_, v2data := v2Sample(t)
	dir := t.TempDir()
	for _, v := range []byte{1, 9} {
		bad := append([]byte(nil), v2data...)
		bad[len(snapshotMagic)] = v
		path := filepath.Join(dir, fmt.Sprintf("v%d.rdfsum", v))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		refused := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, ErrSnapshotVersion) ||
				!strings.Contains(err.Error(), fmt.Sprintf("version %d (this build reads only version 2", v)) ||
				!strings.Contains(err.Error(), "8801477") {
				t.Fatalf("%s of a version %d file: got %v, want ErrSnapshotVersion naming the version and the cutoff build", what, v, err)
			}
		}
		_, _, err := ReadGraph(bytes.NewReader(bad))
		refused("ReadGraph", err)
		g, sf, err := OpenGraphFile(path)
		refused("OpenGraphFile", err)
		if g != nil || sf != nil {
			t.Fatalf("OpenGraphFile of a version %d file returned a graph", v)
		}
		_, err = InspectSnapshot(path)
		refused("InspectSnapshot", err)
	}
}

// TestSnapshotRefusesOtherKinds: kind 1 is the one container kind. A file
// whose kind byte is anything else — 2, the retired index-run file, among
// them — is refused by every entry point with ErrSnapshotCorrupt naming
// the kind, even with a valid header checksum.
func TestSnapshotRefusesOtherKinds(t *testing.T) {
	_, data := v2Sample(t)
	dir := t.TempDir()
	for _, kind := range []byte{0, 2, 3, 255} {
		bad := append([]byte(nil), data...)
		bad[7] = kind
		binary.LittleEndian.PutUint32(bad[60:64], crc32.ChecksumIEEE(bad[:60]))
		path := filepath.Join(dir, fmt.Sprintf("kind%d.rdfsum", kind))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		refused := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, ErrSnapshotCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("file kind %d,", kind)) {
				t.Fatalf("%s of a kind %d file: got %v, want ErrSnapshotCorrupt naming the kind", what, kind, err)
			}
		}
		_, _, err := ReadGraph(bytes.NewReader(bad))
		refused("ReadGraph", err)
		_, err = OpenSnapshotFile(path, false)
		refused("OpenSnapshotFile", err)
		_, err = InspectSnapshot(path)
		refused("InspectSnapshot", err)
	}
}

// cutoffCases returns data, a file this build wrote, rebuilt as a file of
// each layout that commit 26fbe2b is the last build to read: with each
// retired section ID in turn added as a small section after col-pos, and
// with dict-symbols left out.
func cutoffCases(t testing.TB, data []byte) []spoCase {
	t.Helper()
	var out []spoCase
	for _, id := range []byte{3, 4, 5, 6, 7, 8, 9, 13} {
		out = append(out, spoCase{fmt.Sprintf("section %d", id), rebuilt(t, data, func(w *containerWriter, s *section) {
			w.section(s.id, s.raw)
			if s.id == secColPOS {
				w.section(id, []byte{1, 2, 3})
			}
		})})
	}
	return append(out, spoCase{"no dict-symbols", rebuilt(t, data, func(w *containerWriter, s *section) {
		if s.id != secDictSyms {
			w.section(s.id, s.raw)
		}
	})})
}

// TestRetiredLayoutsRefused: commit 26fbe2b is the last build that reads
// a file holding a section of a retired layout (IDs 3–9 and 13) or no
// dict-symbols. Each such file (cutoffCases) is refused by ReadGraph,
// OpenGraphFile and InspectSnapshot with ErrSnapshotVersion, the message
// naming that build and the migration, without a panic. Any other
// section ID this build does not write is ErrSnapshotCorrupt.
func TestRetiredLayoutsRefused(t *testing.T) {
	_, data := v2Sample(t)
	check := func(what string, file []byte, want error, says ...string) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "old.rdfsum")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		refused := func(entry string, err error) {
			t.Helper()
			if !errors.Is(err, want) {
				t.Fatalf("%s: %s got %v, want %v", what, entry, err, want)
			}
			for _, s := range says {
				if !strings.Contains(err.Error(), s) {
					t.Fatalf("%s: %s got %q, which does not name %q", what, entry, err, s)
				}
			}
		}
		g, sf, err := ReadGraph(bytes.NewReader(file))
		refused("ReadGraph", err)
		if g != nil || sf != nil {
			t.Fatalf("%s: ReadGraph returned a graph", what)
		}
		g, sf, err = OpenGraphFile(path)
		refused("OpenGraphFile", err)
		if g != nil || sf != nil {
			t.Fatalf("%s: OpenGraphFile returned a graph", what)
		}
		_, err = InspectSnapshot(path)
		refused("InspectSnapshot", err)
	}
	for _, tc := range cutoffCases(t, data) {
		check(tc.What, tc.Data, ErrSnapshotVersion, "26fbe2b", "/v1/compact", "rdfsum convert")
	}
	for _, id := range []byte{0, 15, 255} {
		unknown := rebuilt(t, data, func(w *containerWriter, s *section) {
			w.section(s.id, s.raw)
			if s.id == secVocab {
				w.section(id, []byte{1})
			}
		})
		check(fmt.Sprintf("section %d", id), unknown, ErrSnapshotCorrupt, fmt.Sprintf("unknown section %d", id))
	}
}

// parseVerified parses data as a container and checks every section's
// checksum, as a serving open does.
func parseVerified(data []byte) (*container, error) {
	c, err := parseContainer(data)
	if err == nil {
		err = c.verify(bytes.NewReader(data))
	}
	return c, err
}

// coveredRanges returns the byte ranges of a v2 file that some CRC
// protects: header, TOC, and every section payload. Alignment padding is
// dead bytes and deliberately unprotected.
func coveredRanges(t *testing.T, data []byte) [][2]int {
	t.Helper()
	c, err := parseVerified(data)
	if err != nil {
		t.Fatalf("parseContainer: %v", err)
	}
	tocOff := int(leU64(data[48:56]))
	ranges := [][2]int{
		{0, v2HeaderSize},
		{tocOff, tocOff + len(c.secOrder)*v2TocEntrySize},
	}
	for _, s := range c.secOrder {
		ranges = append(ranges, [2]int{int(s.off), int(s.off) + len(s.raw)})
	}
	return ranges
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// TestSnapshotV2BitFlipsEager flips every CRC-covered byte and demands a
// classified error from the eager (fully verifying) read path.
func TestSnapshotV2BitFlipsEager(t *testing.T) {
	_, data := v2Sample(t)
	for _, r := range coveredRanges(t, data) {
		for i := r[0]; i < r[1]; i++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x40
			_, _, err := ReadGraph(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("flip at byte %d: corrupt v2 snapshot read succeeded", i)
			}
			if !errors.Is(err, ErrSnapshotChecksum) &&
				!errors.Is(err, ErrSnapshotCorrupt) &&
				!errors.Is(err, ErrSnapshotTruncated) &&
				!errors.Is(err, ErrSnapshotVersion) &&
				!errors.Is(err, ErrSnapshotMagic) {
				t.Fatalf("flip at byte %d: unclassified error %v", i, err)
			}
		}
	}
}

// TestSnapshotV2BitFlips corrupts one payload byte of each section. An
// open that serves a snapshot checks every section's checksum, so
// OpenSnapshotFile(path, true) and OpenGraphFile refuse each flip with
// ErrSnapshotChecksum.
func TestSnapshotV2BitFlips(t *testing.T) {
	_, data := v2Sample(t)
	c, err := parseVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, s := range c.secOrder {
		if len(s.raw) == 0 {
			t.Fatalf("the sample's %s section is empty", sectionName(s.id))
		}
		bad := append([]byte(nil), data...)
		bad[int(s.off)+len(s.raw)/2] ^= 0x40
		path := filepath.Join(dir, fmt.Sprintf("bad-%d.rdfsum", s.id))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if sf, err := OpenSnapshotFile(path, true); !errors.Is(err, ErrSnapshotChecksum) || sf != nil {
			t.Fatalf("section %s: OpenSnapshotFile got %v, want ErrSnapshotChecksum", sectionName(s.id), err)
		}
		if g, sf, err := OpenGraphFile(path); !errors.Is(err, ErrSnapshotChecksum) || g != nil || sf != nil {
			t.Fatalf("section %s: OpenGraphFile got %v, want ErrSnapshotChecksum and no graph", sectionName(s.id), err)
		}
	}
}

// TestReadGraphRefusesMalformedSections: a follower serves the snapshot
// bytes it bootstraps from in place, and a sender can reseal every
// checksum, so ReadGraph checks what serving them relies on: the
// dictionary's directory, page framing and symbol table, and the columns' block
// offsets, varints and IDs. Bytes of those sections changed one at a
// time, every checksum resealed, are refused with ErrSnapshotCorrupt or
// served — every term decoded, every column scanned, every triple
// counted, the graph written again — without a panic. A directory entry
// that is not where its block begins, a block offset or an ID past the
// dictionary are refused.
func TestReadGraphRefusesMalformedSections(t *testing.T) {
	g := v2RandomGraph(t, 3, 600) // dozens of dictionary blocks, two column blocks
	var f memFile
	if err := WriteSnapshotV2(&f, g, g.All(), nil); err != nil {
		t.Fatal(err)
	}
	data := f.b
	c, err := parseVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	read := func(id byte, at int, b []byte) (*Graph, *SnapshotFile, error) {
		bad := append([]byte(nil), data...)
		copy(bad[int(c.secs[id].off)+at:], b)
		reseal(bad, len(c.secOrder))
		return ReadGraph(bytes.NewReader(bad))
	}
	for _, id := range []byte{secDictPages, secDictDir, secDictSyms, secColSPO, secColPOS} {
		n := len(c.secs[id].raw)
		for _, at := range []int{0, 4, 8, 20, n / 3, 2 * n / 3, n - 1} {
			for _, v := range []byte{0x00, 0x7f, 0x80, 0xff} {
				g, sf, err := read(id, at, []byte{v})
				if err != nil {
					if !errors.Is(err, ErrSnapshotCorrupt) {
						t.Fatalf("%s byte %d set to %#x: %v, want ErrSnapshotCorrupt", sectionName(id), at, v, err)
					}
					continue
				}
				serveAll(g, sf)
			}
		}
	}
	le32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	le64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	pages := uint64(len(c.secs[secDictPages].raw))
	for _, tc := range []struct {
		what string
		id   byte
		at   int
		b    []byte
	}{
		{"a directory entry past the pages", secDictDir, 8, le64(pages + 1)},
		{"a directory entry behind its predecessor", secDictDir, 8, le64(0)},
		{"the last directory entry inside its block", secDictDir, len(c.secs[secDictDir].raw) - 8, le64(pages - 1)},
		{"a block offset past the column", secColSPO, 8 + 12, le64(1 << 40)},
		{"a block offset inside the skip index", secColPOS, 8 + colSkipEntryBytes + 12, le64(8)},
		{"an ID past the dictionary", secColPOS, 8, le32(uint32(c.nTerms) + 1)},
		{"a zero ID", secColSPO, 8 + 4, le32(0)},
	} {
		if _, _, err := read(tc.id, tc.at, tc.b); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: ReadGraph got %v, want ErrSnapshotCorrupt", tc.what, err)
		}
	}
}

// reseal recomputes what a test's edit of a snapshot invalidated: the
// checksum of every section in the TOC, the TOC's in the header, and the
// header's own. count is the header's section count.
func reseal(data []byte, count int) {
	tocOff := binary.LittleEndian.Uint64(data[48:56])
	toc := data[tocOff : tocOff+uint64(count)*v2TocEntrySize]
	for e := toc; len(e) > 0; e = e[v2TocEntrySize:] {
		off, n := binary.LittleEndian.Uint64(e[1:9]), binary.LittleEndian.Uint64(e[9:17])
		binary.LittleEndian.PutUint32(e[17:21], crc32.ChecksumIEEE(data[off:off+n]))
	}
	binary.LittleEndian.PutUint32(data[12:16], uint32(count))
	binary.LittleEndian.PutUint32(data[56:60], crc32.ChecksumIEEE(toc))
	binary.LittleEndian.PutUint32(data[60:64], crc32.ChecksumIEEE(data[:60]))
}

// refusedBoth writes data to a file and requires OpenGraphFile and
// ReadGraph to refuse it with want.
func refusedBoth(t *testing.T, what string, data []byte, want error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.rdfsum")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if g, sf, err := OpenGraphFile(path); !errors.Is(err, want) || g != nil || sf != nil {
		t.Fatalf("%s: OpenGraphFile got %v, want %v and no graph", what, err, want)
	}
	if g, sf, err := ReadGraph(bytes.NewReader(data)); !errors.Is(err, want) || g != nil || sf != nil {
		t.Fatalf("%s: ReadGraph got %v, want %v and no graph", what, err, want)
	}
}

// spoCase is a snapshot with one fault, named.
type spoCase struct {
	What string
	Data []byte
}

// withFreshSubjects adds n data triples about subjects no other triple
// names, so that the last blocks of g's SPO column — the highest subject
// IDs — hold data triples only.
func withFreshSubjects(g *Graph, n int) *Graph {
	for i := 0; i < n; i++ {
		g.Add(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/fresh%d", i)), rdf.NewIRI("http://x/p"), rdf.NewLiteral(fmt.Sprint(i))))
	}
	return g
}

// spoCheckCases returns data — a snapshot whose SPO column spans at least
// two blocks, the last of them holding no type triple (withFreshSubjects)
// — resealed with one fault each that, of everything an open checks,
// only the walk of the SPO column it derives the components by finds: a
// varint cut by its block's end; IDs past the dictionary, in the last
// block, which moves no triple between components; and the header
// counting a data triple as schema, and a type triple as data.
func spoCheckCases(t testing.TB, data []byte) []spoCase {
	t.Helper()
	c, err := parseVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	spo := c.secs[secColSPO]
	col, err := openCol(OrderSPO, spo.raw, int(c.nData+c.nTypes+c.nSchema), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := decodeVocabSec(c.secs[secVocab].raw, c.nTerms)
	if err != nil {
		t.Fatal(err)
	}
	last := col.nBlocks - 1
	if last < 1 || c.nTypes < 1 || slices.ContainsFunc(col.window(last*colBlockTriples, col.n, nil),
		func(t Triple) bool { return v.ComponentOf(t.P) == CompTypes }) {
		t.Fatalf("the snapshot's SPO column has %d blocks and %d type triples, or type triples in its last block", col.nBlocks, c.nTypes)
	}
	edited := func(at int, b []byte) []byte {
		bad := append([]byte(nil), data...)
		copy(bad[int(spo.off)+at:], b)
		reseal(bad, len(c.secOrder))
		return bad
	}
	counted := func(bad []byte, nData, nTypes, nSchema uint64) []byte {
		binary.LittleEndian.PutUint64(bad[24:32], nData)
		binary.LittleEndian.PutUint64(bad[32:40], nTypes)
		binary.LittleEndian.PutUint64(bad[40:48], nSchema)
		reseal(bad, len(c.secOrder))
		return bad
	}
	return []spoCase{
		{"a varint cut by its block's end", edited(col.blockOff(1)-1, []byte{spo.raw[col.blockOff(1)-1] | 0x80})},
		{"IDs past the dictionary", edited(8+last*colSkipEntryBytes, binary.LittleEndian.AppendUint32(nil, uint32(c.nTerms)+1))},
		{"a data triple counted as schema", counted(append([]byte(nil), data...), c.nData-1, c.nTypes, c.nSchema+1)},
		{"a type triple counted as data", counted(append([]byte(nil), data...), c.nData+1, c.nTypes-1, c.nSchema)},
	}
}

// TestOpenChecksSPOColumn: an open derives the three components from one
// walk of the SPO column, so every open — of the store's own file too —
// checks that column's framing, varints and IDs and its count of each
// component: each fault of spoCheckCases is refused by OpenGraphFile and
// ReadGraph with ErrSnapshotCorrupt, without a panic. An OpenGraphFile
// that did not walk the column served the IDs past the dictionary.
func TestOpenChecksSPOColumn(t *testing.T) {
	g := withFreshSubjects(v2RandomGraph(t, 3, 600), 600)
	var f memFile
	if err := WriteSnapshotV2(&f, g, g.All(), nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range spoCheckCases(t, f.b) {
		refusedBoth(t, tc.What, tc.Data, ErrSnapshotCorrupt)
	}
}

// TestSnapshotWithoutVocabRefused: every version 2 writer wrote the
// vocabulary section, so a file whose TOC lacks it — every checksum
// resealed — is corrupt, not a graph whose vocabulary is looked up in its
// dictionary.
func TestSnapshotWithoutVocabRefused(t *testing.T) {
	_, data := v2Sample(t)
	bad := append([]byte(nil), data...)
	c, err := parseVerified(bad)
	if err != nil {
		t.Fatal(err)
	}
	tocOff := binary.LittleEndian.Uint64(bad[48:56])
	var toc []byte
	for i, s := range c.secOrder {
		if s.id != secVocab {
			e := bad[tocOff+uint64(i)*v2TocEntrySize:]
			toc = append(toc, e[:v2TocEntrySize]...)
		}
	}
	copy(bad[tocOff:], toc)
	reseal(bad, len(c.secOrder)-1)
	if _, err := parseVerified(bad); err != nil {
		t.Fatalf("the container without its vocab entry does not parse: %v", err)
	}
	refusedBoth(t, "no vocab section", bad, ErrSnapshotCorrupt)
}

// TestSnapshotComponentCountsChecked: a header whose component counts
// wrap around to the column count keeps every checksum valid. The decode
// must refuse a count the column cannot hold — before allocating for it,
// since a follower reads the header off the network.
func TestSnapshotComponentCountsChecked(t *testing.T) {
	_, data := v2Sample(t)
	c, err := parseVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		delta uint64 // added to nData, taken from nTypes
	}{{"wrapped", 1 << 62}, {"off by one", 1}, {"negative", ^uint64(0)}} {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(bad[24:32], c.nData+tc.delta)
		binary.LittleEndian.PutUint64(bad[32:40], c.nTypes-tc.delta)
		reseal(bad, len(c.secOrder))
		refusedBoth(t, tc.name, bad, ErrSnapshotCorrupt)
	}
}

func TestInspectSnapshotV2(t *testing.T) {
	g, _ := v2Sample(t)
	path := filepath.Join(t.TempDir(), "g.rdfsum")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	info, err := InspectSnapshot(path)
	if err != nil {
		t.Fatalf("InspectSnapshot: %v", err)
	}
	if info.Version != 2 {
		t.Fatalf("got v%d, want v2", info.Version)
	}
	if info.PageSize != v2PageSize {
		t.Fatalf("page size %d, want %d", info.PageSize, v2PageSize)
	}
	var names []string
	for _, s := range info.Sections {
		names = append(names, s.Name)
	}
	if want := []string{"dict-pages", "dict-dir", "dict-symbols", "col-spo", "col-pos", "vocab"}; !slices.Equal(names, want) {
		t.Fatalf("sections %v, want %v", names, want)
	}
	if info.DictSymbols <= 0 || info.DictPacked == 0 || info.DictPacked > info.NTerms {
		t.Fatalf("a table of %d symbols packs %d of %d terms", info.DictSymbols, info.DictPacked, info.NTerms)
	}
	if info.NTerms != uint64(g.Dict().Len()) ||
		info.NData != uint64(len(g.Data)) ||
		info.NTypes != uint64(len(g.Types)) ||
		info.NSchema != uint64(len(g.Schema)) {
		t.Fatalf("header counts diverge from graph: %+v", info)
	}
	for _, s := range info.Sections {
		if s.Off%v2PageSize != 0 {
			t.Fatalf("section %s not page aligned: offset %d", s.Name, s.Off)
		}
	}
}

// golden is the length and SHA-256 of a snapshot file.
type golden struct {
	n   int
	sha string
}

func (want golden) check(t *testing.T, what string, got []byte) {
	t.Helper()
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); len(got) != want.n || sum != want.sha {
		t.Fatalf("%s: %d bytes, sha256 %s; want %d bytes, sha256 %s",
			what, len(got), sum, want.n, want.sha)
	}
}

// The files this writer produces.
var (
	goldenV2Sample = golden{28798, "4a8438054ac8a174e5ede8f872af22990d465a8ed5af165d6f22ee85ea413df4"}
	// v2RandomGraph(seed n+1, n) plus a duplicate of its first triple.
	goldenRandom = map[int]golden{
		0:               {28798, "c837d2e72b9488e89f820fa5fae48edbfd05edbf3be7c8b0c1ffe06ac0e39911"},
		3:               {28798, "a0efb6f6e13d351a673a723139382b4ff1869c86dfadab19c9fb84ed33d9ae46"},
		50:              {28798, "7831b2988a30ba6c98e0e58b1f0527d783a36967180874a1fae8798730c269fa"},
		radixCutoff * 3: {28798, "a40e66c7e85f3cefb4d24f5cbb44ec3fcdb53a2c4408bcaa045011a56ec04727"},
		3000:            {61566, "ca7bc23c3f4391be738a34c8ed0fe95c6870d04a198d3bd89637e6a7dee4008d"},
	}
)

// rebuilt writes data's container again through containerWriter, with
// its header's counts: each section, in file order, goes through put,
// which writes it — and whatever else it likes — to w.
func rebuilt(t testing.TB, data []byte, put func(w *containerWriter, s *section)) []byte {
	t.Helper()
	c, err := parseVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	var f memFile
	w := newContainerWriter(&f)
	for _, s := range c.secOrder {
		put(w, s)
	}
	if err := w.finish([4]uint64{c.nTerms, c.nData, c.nTypes, c.nSchema}); err != nil {
		t.Fatal(err)
	}
	return f.b
}

// TestWriteSnapshotV2ByteIdentical: whatever order the writer is handed a
// graph's triples in — the graph's own, reversed, the SPO scan of the
// snapshot's mapped base, the scan of a tiered index fed them in slices —
// the file is the same, byte for byte, and a second write of the same
// graph writes it again.
func TestWriteSnapshotV2ByteIdentical(t *testing.T) {
	write := func(g *Graph, buf []Triple) []byte {
		t.Helper()
		var f memFile
		if err := WriteSnapshotV2(&f, g, buf, nil); err != nil {
			t.Fatal(err)
		}
		return f.b
	}
	_, sample := v2Sample(t)
	goldenV2Sample.check(t, "v2Sample", sample)
	for _, n := range []int{0, 3, 50, radixCutoff * 3, 3000} {
		g := v2RandomGraph(t, uint64(n)+1, n)
		// Duplicate triples: the multiset, not the set, is stored.
		dup := g.All()[0]
		g.AddEncoded(dup.S, dup.P, dup.O)
		want := goldenRandom[n]

		file := write(g, g.All())
		want.check(t, fmt.Sprintf("n=%d: graph order", n), file)
		want.check(t, fmt.Sprintf("n=%d: written again", n), write(g, g.All()))
		reversed := g.All()
		slices.Reverse(reversed)
		want.check(t, fmt.Sprintf("n=%d: reversed", n), write(g, reversed))
		path := filepath.Join(t.TempDir(), "g.rdfsum")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := OpenSnapshotFile(path, true)
		if err != nil {
			t.Fatal(err)
		}
		want.check(t, fmt.Sprintf("n=%d: mapped base scan", n), write(g, scanAll(NewIndexFromBase(sf.Runs()))))
		sf.Close()

		// A tiered index fed the same triples in slices, with a delete
		// and re-add on the way, scans to the same multiset.
		all := g.All()
		ix := newIndexWidth(NewRunCols(nil), 3)
		for lo := 0; lo < len(all); lo += 97 {
			ix = ix.Applied(all[lo:min(lo+97, len(all))], nil)
		}
		ix = ix.Applied(nil, []Triple{all[0]})
		ix = ix.Applied(naiveMatch(all, all[0].S, all[0].P, all[0].O), nil)
		want.check(t, fmt.Sprintf("n=%d: tiered index scan", n), write(g, scanAll(ix)))
	}
	g, _ := v2Sample(t)
	if err := WriteSnapshotV2(&memFile{}, g, g.All()[1:], nil); err == nil {
		t.Fatal("a buffer that does not hold the graph's triples was accepted")
	}
}

// TestWriteSnapshotV2OverMappedBase: compacting a graph reopened onto its
// mapped snapshot writes a file of the same graph as the snapshot of the
// same graph held on the heap after the same writes: the same terms under
// the same IDs and the same triples. How its dictionary is written
// depends on the base's size:
//
//   - more than sampleBlocks blocks (random 3000): the base's complete
//     blocks are copied byte for byte, and its symbol table codes the new
//     terms, which pack;
//   - smaller: the table saw every term the base had, so it is trained
//     anew and every block re-coded — the file is the heap graph's, byte
//     for byte.
//
// The bases end inside a dictionary block and on a block boundary (16
// and 32 terms); the writes add no new term, one, or dozens of every kind.
func TestWriteSnapshotV2OverMappedBase(t *testing.T) {
	// chain holds 5 vocabulary terms + p + 2m: 16 terms for m = 5, 32 for m = 13.
	chain := func(m int) *Graph {
		g := NewGraph()
		for i := 0; i < m; i++ {
			g.Add(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/s%d", i)), rdf.NewIRI("http://x/p"), rdf.NewIRI(fmt.Sprintf("http://x/o%d", i))))
		}
		return g
	}
	writes := func(k int) []rdf.Triple {
		var out []rdf.Triple
		for i := 0; i < k; i++ {
			s := rdf.NewIRI(fmt.Sprintf("http://x/new%d", i))
			out = append(out,
				rdf.NewTriple(s, rdf.NewIRI("http://x/p"), rdf.NewLangLiteral(fmt.Sprintf("v%d", i), "en")),
				rdf.NewTriple(rdf.NewBlank(fmt.Sprintf("nb%d", i)), rdf.NewIRI("http://x/q"), rdf.NewTypedLiteral(fmt.Sprint(i), "http://www.w3.org/2001/XMLSchema#int")),
				rdf.NewTriple(s, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/C1")))
		}
		return append(out, rdf.NewTriple(rdf.NewIRI("http://x/s0"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/n1")))
	}
	bases := []struct {
		name  string
		g     func() *Graph
		reuse bool // its file keeps its table
	}{
		{"16 terms", func() *Graph { return chain(5) }, false},
		{"32 terms", func() *Graph { return chain(13) }, false},
		{"random 50", func() *Graph { return v2RandomGraph(t, 50, 50) }, false},
		{"random 3000", func() *Graph { return v2RandomGraph(t, 3000, 3000) }, true},
	}
	// packedOf counts the packed terms of a file.
	packedOf := func(file []byte) uint64 {
		t.Helper()
		path := filepath.Join(t.TempDir(), "packed.rdfsum")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := InspectSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.DictPacked
	}
	for _, base := range bases {
		for _, k := range []int{0, 1, 40} {
			what := fmt.Sprintf("%s + %d writes", base.name, k)
			heap := base.g()
			path := filepath.Join(t.TempDir(), "g.rdfsum")
			if err := SaveFile(path, heap); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			reopened, sf, err := OpenGraphFile(path)
			if err != nil {
				t.Fatal(err)
			}
			baseLen := reopened.Dict().Len()
			for _, tr := range writes(k) {
				heap.Add(tr)
				reopened.Add(tr)
			}
			var want, got memFile
			if err := WriteSnapshotV2(&want, heap, heap.All(), nil); err != nil {
				t.Fatal(err)
			}
			if err := WriteSnapshotV2(&got, reopened, reopened.All(), nil); err != nil {
				t.Fatal(err)
			}
			sf.Close()
			wantG, _, err := ReadGraph(bytes.NewReader(want.b))
			if err != nil {
				t.Fatal(err)
			}
			gotG, _, err := ReadGraph(bytes.NewReader(got.b))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			identicalGraphs(t, wantG, gotG)
			if !base.reuse {
				if !bytes.Equal(got.b, want.b) {
					t.Errorf("%s: the snapshot over the mapped base (%d bytes) differs from the heap graph's (%d bytes)",
						what, len(got.b), len(want.b))
				}
				continue
			}
			// The base's complete blocks and its table are kept, and the
			// new terms pack.
			bc, err := parseVerified(file)
			if err != nil {
				t.Fatal(err)
			}
			gc, err := parseVerified(got.b)
			if err != nil {
				t.Fatal(err)
			}
			basePages, baseDir := bc.secs[secDictPages].raw, bc.secs[secDictDir].raw
			full := baseLen / dict.BlockTerms
			cut := len(basePages)
			if full*dict.BlockTerms < baseLen {
				cut = int(binary.LittleEndian.Uint64(baseDir[full*8:]))
			}
			pages, dir := gc.secs[secDictPages].raw, gc.secs[secDictDir].raw
			if len(pages) < cut || !bytes.Equal(pages[:cut], basePages[:cut]) || !bytes.Equal(dir[:full*8], baseDir[:full*8]) {
				t.Errorf("%s: the base's %d complete blocks (%d bytes) are not copied as they are", what, full, cut)
			}
			if !bytes.Equal(gc.secs[secDictSyms].raw, bc.secs[secDictSyms].raw) {
				t.Errorf("%s: the base's symbol table is not kept", what)
			}
			if n, baseN := packedOf(got.b), packedOf(file); k > 1 && n <= baseN {
				t.Errorf("%s: %d terms packed, the base packed %d: the new terms do not pack", what, n, baseN)
			}
		}
	}
}

// failFile is a memFile whose k-th operation (Write and WriteAt counted
// together) fails.
type failFile struct {
	memFile
	ops, failAt int
}

var errInjected = errors.New("injected write failure")

func (f *failFile) Write(p []byte) (int, error) {
	if f.ops++; f.ops == f.failAt {
		return 0, errInjected
	}
	return f.memFile.Write(p)
}

func (f *failFile) WriteAt(p []byte, off int64) (int, error) {
	if f.ops++; f.ops == f.failAt {
		return 0, errInjected
	}
	return f.memFile.WriteAt(p, off)
}

// TestSectionWriterFailsClean: whichever write of a snapshot fails — any
// chunk, or the header placed at the end — WriteSnapshotV2 returns that
// error, and what reached the file does not parse as a container: the
// header is the last thing written, so a file without it starts with
// zeros.
func TestSectionWriterFailsClean(t *testing.T) {
	g := v2RandomGraph(t, 5, 60000) // several chunks
	buf := g.All()
	var whole failFile
	if err := WriteSnapshotV2(&whole, g, buf, nil); err != nil {
		t.Fatal(err)
	}
	if whole.ops < 4 {
		t.Fatalf("the sample writes in %d operations: too few to exercise a mid-file failure", whole.ops)
	}
	if _, err := parseVerified(whole.b); err != nil {
		t.Fatalf("unfailed write: %v", err)
	}
	for k := 1; k <= whole.ops; k++ {
		f := failFile{failAt: k}
		if err := WriteSnapshotV2(&f, g, buf, nil); !errors.Is(err, errInjected) {
			t.Fatalf("operation %d of %d failed, WriteSnapshotV2 returned %v", k, whole.ops, err)
		}
		if f.ops != k {
			t.Fatalf("operation %d failed, yet the writer went on to operation %d", k, f.ops)
		}
		if len(f.b) < v2HeaderSize {
			continue
		}
		if _, err := parseContainer(f.b); !errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("operation %d failed: the partial file parses with %v, want ErrSnapshotMagic", k, err)
		}
	}
}
