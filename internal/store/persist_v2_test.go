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
// dictionary's directory and page framing, and the columns' block
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
	for _, id := range []byte{secDictPages, secDictDir, secColSPO, secColPOS} {
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
	// A retired col-osp section is checksummed, not read: whatever it
	// holds, resealed, the file serves the graph.
	old := withOSPColumn(t, data)
	oc, err := parseVerified(old)
	if err != nil {
		t.Fatal(err)
	}
	osp := oc.secs[secColOSP]
	for i := range osp.n {
		old[osp.off+i] = 0xff
	}
	reseal(old, len(oc.secOrder))
	got, sf, err := ReadGraph(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("a file whose col-osp section is garbage: %v", err)
	}
	identicalGraphs(t, asOpened(g), got)
	serveAll(got, sf)
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
		if s.Retired {
			t.Errorf("section %s is marked retired", s.Name)
		}
	}
	if want := []string{"dict-pages", "dict-dir", "dict-symbols", "col-spo", "col-pos", "vocab"}; !slices.Equal(names, want) {
		t.Fatalf("sections %v, want %v", names, want)
	}
	if info.DictSymbols <= 0 || info.DictPacked == 0 || info.DictPacked > info.NTerms {
		t.Fatalf("a table of %d symbols packs %d of %d terms", info.DictSymbols, info.DictPacked, info.NTerms)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withUnpackedDict(t, file), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := InspectSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if old.DictSymbols != -1 || old.DictPacked != 0 {
		t.Fatalf("a file without a table: %d symbols, %d terms packed; want -1 and 0", old.DictSymbols, old.DictPacked)
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

// The same graphs' files as every writer wrote them before the OSP
// column's retirement: recorded from the writer of commit 23921e9.
// withOSPColumn rebuilds them from this writer's files, which proves
// those are these bytes with col-osp left out.
var (
	goldenOSPV2Sample = golden{32915, "d38e94a03a15072aaddbc7a20ebe1a0f2bb2ecd93d7d0af07db02d81156bab79"}
	goldenOSPRandom   = map[int]golden{
		0:               {32915, "f5359f35e44d356fb3cfe868f76522691895a36ab2c73666531454f874bc34b3"},
		3:               {32915, "36629a0986d7b23dff75a89418a9d26406a7497eaad58b2a3eb1abdf6ab3017b"},
		50:              {32915, "bef874e390aa611a59bd536e9bed95370d41e656aa12b779ceaa92dc7f85df74"},
		radixCutoff * 3: {32915, "e7cfccac316ca1ead0ef0a06a642c25aed3e7be701848588d7647f32d3b318e6"},
		3000:            {73875, "ef480187f1be47a1605d525940e5e593f076f083e1d54c5b843961fe9270eb9e"},
	}
)

// The same graphs' files as every writer wrote them before the
// dictionary's symbol table: recorded from the writer of commit 30dc72e.
// withUnpackedDict rebuilds them from this writer's files, which proves
// those are these bytes with no suffix packed.
var (
	goldenUnpackedV2Sample = golden{28798, "c442c6265e742e4f4b02cb14b4fd272e45cdafab98c9de0c459edad8dff46a9a"}
	goldenUnpackedRandom   = map[int]golden{
		0:               {28798, "f6e09a80308cbb49f60f74395bdf60e48ea30df3d2a7771a18d734898b829393"},
		3:               {28798, "bb48ccc56a0e4ff6e50f138bee051b75846f25e84e133a8c2fb305d385780e01"},
		50:              {28798, "9baa9fc222ac0df3f36ba027e4a27721ccd5247132ad67468e918a1f3d0bf64d"},
		radixCutoff * 3: {28798, "177309a2727d7db4293f72ffa0a270a1f455b04f95e1dd66ddc31b1dce141a47"},
		3000:            {73854, "e4b10dfead51b705f734d6f430d4f5b9a4a4044fd991b00f17b052efc0eda464"},
	}
)

// The same graphs' files as every writer wrote them before the column
// steps were tagged: recorded from the writer of commit 736fe37.
// withOldColumns rebuilds them from this writer's files, which proves
// those are these bytes with the columns coded anew.
var (
	goldenUntaggedV2Sample = golden{28798, "cc08817c170518edd2577a84cccf806970300e936b457d9d03179b3f716f6d5d"}
	goldenUntaggedRandom   = map[int]golden{
		0:               {28798, "d0410cc967a6c59445e95c4bbafbca299870040f86664ff956970a62e7dbcf57"},
		3:               {28798, "7bcad9485000a722963b1ca058882e71813c63031bfe80e9e2d4561541724a12"},
		50:              {28798, "d7172469debb7e6ed1febcefa34e38049774fe2cf17d843e4716dda965a77740"},
		radixCutoff * 3: {28798, "635016f46d4c39871ccbe4c820f268a9955b62fba4b2f260f77966533eb46cda"},
		3000:            {86142, "100816ab961c65c535e626e38ef991dc866e40022f621b801cc9c133fc5fbe2a"},
	}
)

// The same graphs' files as every writer wrote them before the
// dictionary's kind byte carried flags: recorded from the writer of
// commit 9327bce. withOldCoding rebuilds them from the files
// withOldColumns rebuilds, which proves those are these bytes with the
// dictionary coded anew.
var (
	goldenOldCodingV2Sample = golden{28798, "5ba11f4d5aae0b0ca2cead356c505c6254bd615fcf0e3fb3f0f374956b5ea21d"}
	goldenOldCodingRandom   = map[int]golden{
		0:               {28798, "8ce684e91d3930dfd5d3ac463782f01cf0a253a9e6b3418751c3d5c631a94f46"},
		3:               {28798, "ee332a02a762f440f48bed1e50f721ebfc837c39fffb215b1005b161d2af332e"},
		50:              {28798, "5f6eb51ac70f4a43068e973fd81464f13d0fb82102dab79f6301bf3796880716"},
		radixCutoff * 3: {28798, "fc95fd80234c60be603ab86b87b905b0da3e16f5e39938040ebdf84fdd7ab7b5"},
		3000:            {94334, "abd2194e5658aa1fedbbda8122d78d5260e34a98f088c782ce3d9c81981b0da7"},
	}
)

// The same graphs' files as every writer wrote them while snapshots
// carried the comp-types section: recorded from the writer of commit
// 82e8d0d. withTypeSection rebuilds them from the files withOldCoding
// rebuilds and the graphs' type components, which proves those are
// these bytes with section 5 left out.
var (
	goldenTypesV2Sample = golden{32915, "cdf70f67c402dba7c9be1a688284360a0f3d53565c10a8ca89d228b24ecf2aed"}
	goldenTypesRandom   = map[int]golden{
		0:               {28819, "0b6d15b54ccd4f8d6dbb507e8541377219b2babdc23697a95d2addd7f4b620e3"},
		3:               {32915, "e60c48ef5ed3abc3ee633f77981aeec5dd8fa740e249d3e13ab6a2c6bcb4ee18"},
		50:              {32915, "4b06505168581b10a6da327c913a7fa4e271c3c09549de4a7a95564fd021bb3a"},
		radixCutoff * 3: {32915, "ec06fef5872171147e6cf4edd3cf94c346f22acb444fb015e9378f0a147895ce"},
		3000:            {98451, "7785928edadee933d4fb011c54f1684816967abd0b05e89909f9c1e6b256ed2f"},
	}
)

// The same graphs' files as every writer wrote them while snapshots
// carried the comp-data and comp-schema sections too: recorded from the
// writer of commit 8484cf6. withComponentSections puts sections 4 and 6
// back into the files withTypeSection rebuilds.
var (
	goldenCompV2Sample = golden{41149, "2fe880af82e7bd225fffee18fe0181b173c452a372430f8a6f9125d10d337155"}
	goldenCompRandom   = map[int]golden{
		0:               {32957, "090bbe1c77198441df3937c3c0c877608efe4b278a078f1b81d1adaefe6bc2c0"},
		3:               {41149, "9c0879e52a121d6be385c7e2975469ca084c7a34c53e110dcd3d2c25f75c2190"},
		50:              {41149, "5ada1cead3bd80e5332b3acd432c0a89e94ef7d12f6497a594afe6b6c5892d48"},
		radixCutoff * 3: {41149, "e159c018b0e9a4c9c139e069f9f0c965ff42dfc3d76de43c42843d7e16ef9c54"},
		3000:            {118973, "612d3d39a0c008df3c63d3dec3c8993c8c346ffa26d122fa494c7c3864b5f514"},
	}
)

// The same graphs' files as every writer wrote them while snapshots
// carried the dict-sorted section too: recorded from the whole-buffer
// writer of commit 9f022f1 (every section built whole in memory, then
// writeContainer) before it was deleted. withSortedSection puts section 3
// back into the files withComponentSections rebuilds.
var (
	goldenSortedV2Sample = golden{45266, "45bc23ad5e66497e791e6a2a6a1ca067aa3c0d160082ca33db64e4db6f06901e"}
	goldenSortedRandom   = map[int]golden{
		0:               {37074, "dff00de9852f3eeff8bd595f194c70dd061b60716f377995c14d8425232c5e53"},
		3:               {45266, "90f1f47884759791c3f1ecd8029fb6033a66afe2144a81e95e7346ed6bd6807e"},
		50:              {45266, "061fde6e37bb433a6c128689bbd009e074df318c7955cc9e3b8bab405a6774ec"},
		radixCutoff * 3: {45266, "cd34a80306b47906fdd869dffd41f9882455f1e4acf6353a1d029967ff05ad2b"},
		3000:            {131282, "d16aac3b35c4de181794cae7706f7d578f78488c81ae29bf062bb7c0d619e1aa"},
	}
)

// withUnpackedDict rebuilds the file a build before the dictionary's
// symbol table (commit 30dc72e and earlier) made of the same graph:
// data's sections in their order, with dict-pages and dict-dir holding
// data's terms as unpackedDict codes them and no dict-symbols, resealed
// through containerWriter.
func withUnpackedDict(t testing.TB, data []byte) []byte {
	t.Helper()
	g, _, err := ReadGraph(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	terms := make([]rdf.Term, g.Dict().Len())
	for i := range terms {
		terms[i] = g.Dict().Term(dict.ID(i + 1))
	}
	pages, dir := unpackedDict(terms)
	return rebuilt(t, data, func(w *containerWriter, s *section) {
		switch s.id {
		case secDictPages:
			w.section(s.id, pages)
		case secDictDir:
			w.section(s.id, dir)
		case secDictSyms:
		default:
			w.section(s.id, s.raw)
		}
	})
}

// unpackedDict returns the dictionary sections the builds between the
// kind byte's flags and the symbol table wrote of terms (IDs 1, 2, …):
// each term front-coded against the block's previous term of its own
// kind (sameKind) or else the previous term, a literal with the
// datatype and language of the block's previous literal flagged so
// (sameTags), and no suffix packed.
func unpackedDict(terms []rdf.Term) (pages, dir []byte) {
	const sameKind, sameTags = 0x10, 0x20
	var last [rdf.Literal + 1]string
	var have uint8
	var prev rdf.TermKind
	var dt, lang string
	for i, t := range terms {
		k, head := t.Kind, i%dict.BlockTerms == 0
		if head {
			dir = binary.LittleEndian.AppendUint64(dir, uint64(len(pages)))
			have = 0
		}
		kind, ref := byte(k), prev
		if have&(1<<k) != 0 {
			kind, ref = kind|sameKind, k
		}
		tags := k == rdf.Literal && have&(1<<rdf.Literal) != 0 && dt == t.Datatype && lang == t.Lang
		if tags {
			kind |= sameTags
		}
		pages = append(pages, kind)
		lcp := 0
		if !head {
			for lcp < len(last[ref]) && lcp < len(t.Value) && last[ref][lcp] == t.Value[lcp] {
				lcp++
			}
			pages = binary.AppendUvarint(pages, uint64(lcp))
		}
		pages = binary.AppendUvarint(pages, uint64(len(t.Value)-lcp))
		pages = append(pages, t.Value[lcp:]...)
		if k == rdf.Literal && !tags {
			pages = binary.AppendUvarint(pages, uint64(len(t.Datatype)))
			pages = append(pages, t.Datatype...)
			pages = binary.AppendUvarint(pages, uint64(len(t.Lang)))
			pages = append(pages, t.Lang...)
			dt, lang = t.Datatype, t.Lang
		}
		last[k], prev = t.Value, k
		have |= 1 << k
	}
	return pages, dir
}

// withOldCoding rebuilds the file a build before the dictionary's kind
// flags (commit 9327bce and earlier) made of the same graph: data's
// sections in their order, with dict-pages and dict-dir holding data's
// terms as oldCodedDict codes them, resealed through containerWriter.
func withOldCoding(t testing.TB, data []byte) []byte {
	t.Helper()
	g, _, err := ReadGraph(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	terms := make([]rdf.Term, g.Dict().Len())
	for i := range terms {
		terms[i] = g.Dict().Term(dict.ID(i + 1))
	}
	pages, dir := oldCodedDict(terms)
	return rebuilt(t, data, func(w *containerWriter, s *section) {
		switch s.id {
		case secDictPages:
			w.section(s.id, pages)
		case secDictDir:
			w.section(s.id, dir)
		case secDictSyms: // no build before the flags wrote a table
		default:
			w.section(s.id, s.raw)
		}
	})
}

// oldCodedDict returns the dictionary sections every build before the
// kind byte's flags wrote of terms (IDs 1, 2, …): each term front-coded
// against the immediately previous term of its block, whatever their
// kinds, and every literal with its datatype and language in full.
func oldCodedDict(terms []rdf.Term) (pages, dir []byte) {
	var prev string
	for i, t := range terms {
		lcp := 0
		if i%dict.BlockTerms == 0 {
			dir = binary.LittleEndian.AppendUint64(dir, uint64(len(pages)))
			pages = append(pages, byte(t.Kind))
		} else {
			for lcp < len(prev) && lcp < len(t.Value) && prev[lcp] == t.Value[lcp] {
				lcp++
			}
			pages = append(pages, byte(t.Kind))
			pages = binary.AppendUvarint(pages, uint64(lcp))
		}
		pages = binary.AppendUvarint(pages, uint64(len(t.Value)-lcp))
		pages = append(pages, t.Value[lcp:]...)
		if t.Kind == rdf.Literal {
			pages = binary.AppendUvarint(pages, uint64(len(t.Datatype)))
			pages = append(pages, t.Datatype...)
			pages = binary.AppendUvarint(pages, uint64(len(t.Lang)))
			pages = append(pages, t.Lang...)
		}
		prev = t.Value
	}
	return pages, dir
}

// withSortedSection rebuilds the file a build that wrote the retired
// dict-sorted section made of the same graph: data's sections in their
// order, with, right after dict-dir, a section 3 holding the IDs of
// data's dictionary sorted by rdf.Term.Compare (one little-endian u32
// each), resealed through containerWriter.
func withSortedSection(t testing.TB, data []byte) []byte {
	t.Helper()
	c, err := parseVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := ReadGraph(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	terms := make([]rdf.Term, c.nTerms+1)
	ids := make([]dict.ID, c.nTerms)
	for i := range ids {
		ids[i] = dict.ID(i + 1)
		terms[i+1] = g.Dict().Term(ids[i])
	}
	slices.SortFunc(ids, func(a, b dict.ID) int { return terms[a].Compare(terms[b]) })
	sorted := make([]byte, 0, 4*len(ids))
	for _, id := range ids {
		sorted = binary.LittleEndian.AppendUint32(sorted, uint32(id))
	}
	return rebuilt(t, data, func(w *containerWriter, s *section) {
		if s.id == secDictSorted {
			t.Fatal("the file already holds a dict-sorted section")
		}
		w.section(s.id, s.raw)
		if s.id == secDictDir {
			w.section(secDictSorted, sorted)
		}
	})
}

// encodeComp is a retired component section's payload: ts in their
// order, three uvarint IDs each, back to back.
func encodeComp(ts []Triple) []byte {
	var out []byte
	for _, t := range ts {
		out = binary.AppendUvarint(out, uint64(t.S))
		out = binary.AppendUvarint(out, uint64(t.P))
		out = binary.AppendUvarint(out, uint64(t.O))
	}
	return out
}

// withTypeSection rebuilds the file a build that wrote the retired
// comp-types section made of g, whose snapshot data is: data's sections
// in their order, with g's type component, in g's order, right after
// dict-dir, resealed through containerWriter.
func withTypeSection(t testing.TB, data []byte, g *Graph) []byte {
	t.Helper()
	return rebuilt(t, data, func(w *containerWriter, s *section) {
		if s.id == secCompTypes {
			t.Fatal("the file already holds a comp-types section")
		}
		w.section(s.id, s.raw)
		if s.id == secDictDir {
			w.section(secCompTypes, encodeComp(g.Types))
		}
	})
}

// withComponentSections rebuilds the file a build that wrote the retired
// comp-data and comp-schema sections made of g, whose snapshot data (with
// comp-types, see withTypeSection) is: data's sections in their order,
// with g's data component (in g's order, encoded as the type component
// is) right before comp-types and its schema component right after it,
// resealed through containerWriter.
func withComponentSections(t testing.TB, data []byte, g *Graph) []byte {
	t.Helper()
	return rebuilt(t, data, func(w *containerWriter, s *section) {
		if s.id == secCompData || s.id == secCompSchema {
			t.Fatalf("the file already holds a %s section", sectionName(s.id))
		}
		if s.id == secCompTypes {
			w.section(secCompData, encodeComp(g.Data))
		}
		w.section(s.id, s.raw)
		if s.id == secCompTypes {
			w.section(secCompSchema, encodeComp(g.Schema))
		}
	})
}

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
// graph writes it again; and it is the file of the writer before the OSP
// column's retirement, with that column put back; of the writer before
// the symbol table, with no suffix packed too; of the writer
// that wrote untagged column steps, with the columns coded so too; of the
// writer before the dictionary's kind flags, with the dictionary coded
// so too; of the writer that still wrote comp-types, with that section
// left out; of the writer that wrote comp-data and comp-schema besides,
// with those left out too; and of the writer that wrote dict-sorted as
// well.
func TestWriteSnapshotV2ByteIdentical(t *testing.T) {
	write := func(g *Graph, buf []Triple) []byte {
		t.Helper()
		var f memFile
		if err := WriteSnapshotV2(&f, g, buf, nil); err != nil {
			t.Fatal(err)
		}
		return f.b
	}
	g, sample := v2Sample(t)
	goldenV2Sample.check(t, "v2Sample", sample)
	sample = withOSPColumn(t, sample)
	goldenOSPV2Sample.check(t, "v2Sample with col-osp", sample)
	sample = withUnpackedDict(t, sample)
	goldenUnpackedV2Sample.check(t, "v2Sample with no suffix packed", sample)
	sample = withOldColumns(t, sample)
	goldenUntaggedV2Sample.check(t, "v2Sample with untagged columns", sample)
	sample = withOldCoding(t, sample)
	goldenOldCodingV2Sample.check(t, "v2Sample in the old coding", sample)
	typed := withTypeSection(t, sample, g)
	goldenTypesV2Sample.check(t, "v2Sample with comp-types", typed)
	goldenCompV2Sample.check(t, "v2Sample with comp-data, comp-types and comp-schema", withComponentSections(t, typed, g))
	goldenSortedV2Sample.check(t, "v2Sample with dict-sorted, comp-data, comp-types and comp-schema",
		withSortedSection(t, withComponentSections(t, typed, g)))
	for _, n := range []int{0, 3, 50, radixCutoff * 3, 3000} {
		g := v2RandomGraph(t, uint64(n)+1, n)
		// Duplicate triples: the multiset, not the set, is stored.
		dup := g.All()[0]
		g.AddEncoded(dup.S, dup.P, dup.O)
		want := goldenRandom[n]

		file := write(g, g.All())
		want.check(t, fmt.Sprintf("n=%d: graph order", n), file)
		want.check(t, fmt.Sprintf("n=%d: written again", n), write(g, g.All()))
		withOSP := withOSPColumn(t, file)
		goldenOSPRandom[n].check(t, fmt.Sprintf("n=%d: with col-osp", n), withOSP)
		unpacked := withUnpackedDict(t, withOSP)
		goldenUnpackedRandom[n].check(t, fmt.Sprintf("n=%d: with no suffix packed", n), unpacked)
		untagged := withOldColumns(t, unpacked)
		goldenUntaggedRandom[n].check(t, fmt.Sprintf("n=%d: with untagged columns", n), untagged)
		oldCoded := withOldCoding(t, untagged)
		goldenOldCodingRandom[n].check(t, fmt.Sprintf("n=%d: in the old coding", n), oldCoded)
		typed := withTypeSection(t, oldCoded, g)
		goldenTypesRandom[n].check(t, fmt.Sprintf("n=%d: with comp-types", n), typed)
		old := withComponentSections(t, typed, g)
		goldenCompRandom[n].check(t, fmt.Sprintf("n=%d: with comp-data and comp-schema besides", n), old)
		goldenSortedRandom[n].check(t, fmt.Sprintf("n=%d: with dict-sorted besides", n), withSortedSection(t, old))
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
	g, _ = v2Sample(t)
	if err := WriteSnapshotV2(&memFile{}, g, g.All()[1:], nil); err == nil {
		t.Fatal("a buffer that does not hold the graph's triples was accepted")
	}
}

// TestSnapshotWithSortedSectionServed: a file that holds retired
// sections — col-osp, which every build before its retirement wrote,
// comp-types with it, which the builds before that wrote, comp-data and
// comp-schema with those, which the builds before that wrote, and
// dict-sorted with those, which the builds before that wrote — opens
// through OpenGraphFile and ReadGraph to the graph of the same file
// without them (types in SPO order, whatever order comp-types lists them
// in) and serves the same index, and inspect still names them, marked
// retired. Their checksums are checked with every other section's: a
// flipped byte in one fails the open with ErrSnapshotChecksum. Written
// again, the graph's file holds none of them.
func TestSnapshotWithSortedSectionServed(t *testing.T) {
	sample, _ := v2Sample(t)
	olds := []struct {
		name     string
		build    func(file []byte, g *Graph) []byte
		sections []string
	}{
		{"col-osp", func(file []byte, g *Graph) []byte { return file },
			[]string{"dict-pages", "dict-dir", "dict-symbols", "col-spo", "col-pos", "col-osp", "vocab"}},
		{"comp-types", func(file []byte, g *Graph) []byte { return withTypeSection(t, file, g) },
			[]string{"dict-pages", "dict-dir", "comp-types", "dict-symbols", "col-spo", "col-pos", "col-osp", "vocab"}},
		{"comp-data and comp-schema too", func(file []byte, g *Graph) []byte {
			return withComponentSections(t, withTypeSection(t, file, g), g)
		}, []string{"dict-pages", "dict-dir", "comp-data", "comp-types", "comp-schema", "dict-symbols", "col-spo", "col-pos", "col-osp", "vocab"}},
		{"dict-sorted too", func(file []byte, g *Graph) []byte {
			return withSortedSection(t, withComponentSections(t, withTypeSection(t, file, g), g))
		}, []string{"dict-pages", "dict-dir", "dict-sorted", "comp-data", "comp-types", "comp-schema", "dict-symbols", "col-spo", "col-pos", "col-osp", "vocab"}},
	}
	for _, g := range []*Graph{sample, v2RandomGraph(t, 3001, 3000)} {
		var f memFile
		if err := WriteSnapshotV2(&f, g, g.All(), nil); err != nil {
			t.Fatal(err)
		}
		want, _, err := ReadGraph(bytes.NewReader(f.b))
		if err != nil {
			t.Fatal(err)
		}
		identicalGraphs(t, asOpened(g), want)
		for _, o := range olds {
			old := o.build(withOSPColumn(t, f.b), g)
			path := filepath.Join(t.TempDir(), "old.rdfsum")
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			got, sf, err := OpenGraphFile(path)
			if err != nil {
				t.Fatalf("OpenGraphFile of a file with %s: %v", o.name, err)
			}
			identicalGraphs(t, want, got)
			if !sameIterationOrder(NewIndexFromBase(sf.Runs()), NewIndex(want)) {
				t.Fatalf("%s: the file's columns serve another index", o.name)
			}
			var again memFile
			if err := WriteSnapshotV2(&again, got, got.All(), nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.b, f.b) {
				t.Fatalf("the graph of a file with %s writes another file than the same graph without them", o.name)
			}
			sf.Close()
			if got, _, err = ReadGraph(bytes.NewReader(old)); err != nil {
				t.Fatalf("ReadGraph of a file with %s: %v", o.name, err)
			}
			identicalGraphs(t, want, got)
			info, err := InspectSnapshot(path)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, s := range info.Sections {
				names = append(names, s.Name)
				if retired := s.Name == "dict-sorted" || s.Name == "col-osp" || strings.HasPrefix(s.Name, "comp-"); s.Retired != retired {
					t.Errorf("%s: inspect marks section %s retired: %v", o.name, s.Name, s.Retired)
				}
			}
			if !slices.Equal(names, o.sections) {
				t.Fatalf("%s: inspect lists %v, want %v", o.name, names, o.sections)
			}
			for _, sec := range info.Sections {
				if sec.Retired {
					bad := append([]byte(nil), old...)
					bad[sec.Off+sec.Len/2] ^= 0x40
					refusedBoth(t, fmt.Sprintf("%s: a flipped byte in %s", o.name, sec.Name), bad, ErrSnapshotChecksum)
				}
			}
		}
	}
}

// TestWriteSnapshotV2OverMappedBase: compacting a graph reopened onto its
// mapped snapshot writes a file of the same graph as the snapshot of the
// same graph held on the heap after the same writes: with no suffix
// packed (withUnpackedDict), the two files are the same, byte for byte,
// so the new one holds the same terms under the same IDs and the same
// triples. How its dictionary is written depends on the base's:
//
//   - this build's, of more than sampleBlocks blocks (random 3000): the
//     base's complete blocks are copied byte for byte, and its symbol
//     table codes the new terms, which pack;
//   - this build's, smaller: the table saw every term the base had, so it
//     is trained anew and every block re-coded — the file is the heap
//     graph's, byte for byte;
//   - of a build before the table, 30dc72e (withUnpackedDict) or before
//     the kind byte's flags too (withOldCoding): it packs no term, so
//     whatever its size the table is trained anew and every block
//     re-coded — the file is the heap graph's, byte for byte, and packs
//     terms; a second compaction of a base of more than sampleBlocks
//     blocks keeps the table and the complete blocks that one wrote.
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
		reuse bool // this build's file of it keeps its table
	}{
		{"16 terms", func() *Graph { return chain(5) }, false},
		{"32 terms", func() *Graph { return chain(13) }, false},
		{"random 50", func() *Graph { return v2RandomGraph(t, 50, 50) }, false},
		{"random 3000", func() *Graph { return v2RandomGraph(t, 3000, 3000) }, true},
	}
	codings := []struct {
		name string
		file func([]byte) []byte // the base's file as that build wrote it
	}{
		{"this build", func(b []byte) []byte { return b }},
		{"30dc72e", func(b []byte) []byte { return withUnpackedDict(t, b) }},
		{"9327bce", func(b []byte) []byte { return withOldCoding(t, b) }},
	}
	// dictSections returns a file's dict-pages, dict-dir and dict-symbols
	// (nil without one) sections.
	dictSections := func(file []byte) (pages, dir, syms []byte) {
		t.Helper()
		c, err := parseVerified(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range c.secOrder {
			switch s.id {
			case secDictPages:
				pages = s.raw
			case secDictDir:
				dir = s.raw
			case secDictSyms:
				syms = s.raw
			}
		}
		return pages, dir, syms
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
			for _, coding := range codings {
				what := fmt.Sprintf("%s + %d writes over a base of %s", base.name, k, coding.name)
				heap := base.g()
				path := filepath.Join(t.TempDir(), "g.rdfsum")
				if err := SaveFile(path, heap); err != nil {
					t.Fatal(err)
				}
				file, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				file = coding.file(file)
				if err := os.WriteFile(path, file, 0o644); err != nil {
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
				if !bytes.Equal(withUnpackedDict(t, got.b), withUnpackedDict(t, want.b)) {
					t.Errorf("%s: the file, with no suffix packed, differs from the heap graph's", what)
				}
				if coding.name != "this build" || !base.reuse {
					if !bytes.Equal(got.b, want.b) {
						t.Errorf("%s: the snapshot over the mapped base (%d bytes) differs from the heap graph's (%d bytes)",
							what, len(got.b), len(want.b))
					}
					if coding.name == "this build" || !base.reuse {
						continue
					}
					// The base was coded anew, once: the next compaction
					// keeps what this one wrote.
					if n := packedOf(got.b); n == 0 {
						t.Errorf("%s: no term packed after a compaction", what)
					}
					path = filepath.Join(t.TempDir(), "once.rdfsum")
					if err := os.WriteFile(path, got.b, 0o644); err != nil {
						t.Fatal(err)
					}
					if reopened, sf, err = OpenGraphFile(path); err != nil {
						t.Fatal(err)
					}
					baseLen = reopened.Dict().Len()
					reopened.Add(rdf.NewTriple(rdf.NewIRI("http://x/again"), rdf.NewIRI("http://x/p"), rdf.NewLiteral("again")))
					file, got = got.b, memFile{}
					if err := WriteSnapshotV2(&got, reopened, reopened.All(), nil); err != nil {
						t.Fatal(err)
					}
					sf.Close()
					what += ", compacted again"
				}
				// The base's complete blocks and its table, as its build
				// wrote them, are kept, and the new terms pack.
				basePages, baseDir, baseSyms := dictSections(file)
				full := baseLen / dict.BlockTerms
				cut := len(basePages)
				if full*dict.BlockTerms < baseLen {
					cut = int(binary.LittleEndian.Uint64(baseDir[full*8:]))
				}
				pages, dir, syms := dictSections(got.b)
				if len(pages) < cut || !bytes.Equal(pages[:cut], basePages[:cut]) || !bytes.Equal(dir[:full*8], baseDir[:full*8]) {
					t.Errorf("%s: the base's %d complete blocks (%d bytes) are not copied as they are", what, full, cut)
				}
				if !bytes.Equal(syms, baseSyms) {
					t.Errorf("%s: the base's symbol table is not kept", what)
				}
				if n, baseN := packedOf(got.b), packedOf(file); k > 1 && coding.name == "this build" && n <= baseN {
					t.Errorf("%s: %d terms packed, the base packed %d: the new terms do not pack", what, n, baseN)
				}
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
