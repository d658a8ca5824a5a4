package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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

func TestSnapshotV2RoundTripStream(t *testing.T) {
	g, data := v2Sample(t)
	got, _, err := ReadGraph(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	identicalGraphs(t, g, got)
}

func TestSnapshotV2RoundTripMapped(t *testing.T) {
	for _, n := range []int{3, 50, 3000} { // spans 1 and many column blocks
		g := v2RandomGraph(t, uint64(n), n)
		path := filepath.Join(t.TempDir(), "g.rdfsum")
		if err := SaveFile(path, g); err != nil {
			t.Fatalf("SaveFile: %v", err)
		}
		for _, verify := range []bool{false, true} {
			got, sf, err := OpenGraphFile(path, verify)
			if err != nil {
				t.Fatalf("OpenGraphFile(verify=%v): %v", verify, err)
			}
			if sf == nil {
				t.Fatal("OpenGraphFile on v2 returned no SnapshotFile")
			}
			identicalGraphs(t, g, got)
			if err := sf.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
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
		g, sf, err := OpenGraphFile(path, false)
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

// coveredRanges returns the byte ranges of a v2 file that some CRC
// protects: header, TOC, and every section payload. Alignment padding is
// dead bytes and deliberately unprotected.
func coveredRanges(t *testing.T, data []byte) [][2]int {
	t.Helper()
	c, err := parseContainer(data, true)
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

// TestSnapshotV2BitFlipsLazy corrupts one payload byte of each section.
// A graph open decodes the vocabulary and the three components, so a flip
// in one of those fails OpenGraphFile with ErrSnapshotChecksum. Any other
// section is left for its first touch: the unverified open succeeds (as
// does OpenGraphFile's), and reading through every section must panic
// with the classified checksum error.
func TestSnapshotV2BitFlipsLazy(t *testing.T) {
	_, data := v2Sample(t)
	c, err := parseContainer(data, true)
	if err != nil {
		t.Fatal(err)
	}
	decoded := map[byte]bool{secVocab: true, secCompData: true, secCompTypes: true, secCompSchema: true}
	dir := t.TempDir()
	for _, s := range c.secOrder {
		id := s.id
		if len(s.raw) == 0 {
			continue
		}
		bad := append([]byte(nil), data...)
		bad[int(s.off)+len(s.raw)/2] ^= 0x40
		path := filepath.Join(dir, fmt.Sprintf("bad-%d.rdfsum", id))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}

		// Eager open refuses outright.
		if _, err := OpenSnapshotFile(path, true); !errors.Is(err, ErrSnapshotChecksum) {
			t.Fatalf("section %s: eager open got %v, want ErrSnapshotChecksum", sectionName(id), err)
		}

		g, gsf, err := OpenGraphFile(path, false)
		if decoded[id] {
			if !errors.Is(err, ErrSnapshotChecksum) || g != nil || gsf != nil {
				t.Fatalf("section %s: OpenGraphFile got %v, want ErrSnapshotChecksum and no graph", sectionName(id), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("section %s: OpenGraphFile: %v", sectionName(id), err)
		}
		gsf.Close()

		// Lazy open succeeds; reading through every section must then
		// panic with the classified checksum error.
		sf, err := OpenSnapshotFile(path, false)
		if err != nil {
			t.Fatalf("section %s: lazy open: %v", sectionName(id), err)
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("section %s: corrupt section served without detection", sectionName(id))
				}
				err, ok := r.(error)
				if !ok || !errors.Is(err, ErrSnapshotChecksum) {
					t.Fatalf("section %s: panic %v, want ErrSnapshotChecksum", sectionName(id), r)
				}
			}()
			touchEverything(sf)
		}()
		sf.Close()
	}
}

// touchEverything forces a read through every section an open leaves
// lazy: dictionary pages and directory (every term decoded, then looked
// up through the index over them), the sorted permutation (the merge of a
// compaction that interned one term), and the three sorted columns.
func touchEverything(sf *SnapshotFile) {
	md := sf.MappedDict()
	d := dict.WithBase(md)
	for id := 1; id <= md.Len(); id++ {
		d.Lookup(md.Term(dict.ID(id)))
	}
	d.EncodeIRI("http://x/a-term-no-snapshot-holds")
	if _, _, _, err := d.WriteFrontCoded(io.Discard); err != nil {
		panic(err)
	}
	for ord := Order(0); ord < NumOrders; ord++ {
		col := sf.Runs().col(ord)
		cur := col.Cursor(0, col.Len())
		for cur.Valid() {
			cur.Next()
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
	if g, sf, err := OpenGraphFile(path, false); !errors.Is(err, want) || g != nil || sf != nil {
		t.Fatalf("%s: OpenGraphFile got %v, want %v and no graph", what, err, want)
	}
	if g, sf, err := ReadGraph(bytes.NewReader(data)); !errors.Is(err, want) || g != nil || sf != nil {
		t.Fatalf("%s: ReadGraph got %v, want %v and no graph", what, err, want)
	}
}

// TestSnapshotWithoutVocabRefused: every version 2 writer wrote the
// vocabulary section, so a file whose TOC lacks it — every checksum
// resealed — is corrupt, not a graph whose vocabulary is looked up in its
// dictionary.
func TestSnapshotWithoutVocabRefused(t *testing.T) {
	_, data := v2Sample(t)
	bad := append([]byte(nil), data...)
	c, err := parseContainer(bad, true)
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
	if _, err := parseContainer(bad, true); err != nil {
		t.Fatalf("the container without its vocab entry does not parse: %v", err)
	}
	refusedBoth(t, "no vocab section", bad, ErrSnapshotCorrupt)
}

// TestSnapshotComponentCountsChecked: a header whose component counts
// wrap around to the column count keeps every checksum valid. The decode
// must refuse a count its section cannot hold — before allocating for
// it, since a follower reads the header off the network.
func TestSnapshotComponentCountsChecked(t *testing.T) {
	_, data := v2Sample(t)
	c, err := parseContainer(data, true)
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
	if len(info.Sections) != 10 {
		t.Fatalf("%d sections, want 10", len(info.Sections))
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

// golden is the length and SHA-256 of a file the parent of the streaming
// writer (commit 9f022f1: every section built whole in memory, then
// writeContainer) produced — recorded from that code before it was
// deleted, so byte identity is asserted against the parent itself.
type golden struct {
	n   int
	sha string
}

func (want golden) check(t *testing.T, what string, got []byte) {
	t.Helper()
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); len(got) != want.n || sum != want.sha {
		t.Fatalf("%s: %d bytes, sha256 %s; the parent's writer produced %d bytes, sha256 %s",
			what, len(got), sum, want.n, want.sha)
	}
}

var (
	goldenV2Sample = golden{45266, "45bc23ad5e66497e791e6a2a6a1ca067aa3c0d160082ca33db64e4db6f06901e"}
	// v2RandomGraph(seed n+1, n) plus a duplicate of its first triple.
	goldenRandom = map[int]golden{
		0:               {37074, "dff00de9852f3eeff8bd595f194c70dd061b60716f377995c14d8425232c5e53"},
		3:               {45266, "90f1f47884759791c3f1ecd8029fb6033a66afe2144a81e95e7346ed6bd6807e"},
		50:              {45266, "061fde6e37bb433a6c128689bbd009e074df318c7955cc9e3b8bab405a6774ec"},
		radixCutoff * 3: {45266, "cd34a80306b47906fdd869dffd41f9882455f1e4acf6353a1d029967ff05ad2b"},
		3000:            {131282, "d16aac3b35c4de181794cae7706f7d578f78488c81ae29bf062bb7c0d619e1aa"},
	}
)

// TestWriteSnapshotV2ByteIdentical: whatever order the writer is handed a
// graph's triples in — the graph's own, reversed, the SPO scan of the
// snapshot's mapped base, the scan of a tiered index fed them in slices —
// the file is the parent writer's, byte for byte.
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
// mapped snapshot writes, byte for byte, the snapshot of the same graph
// held on the heap after the same writes — though the first streams the
// base's dictionary blocks and merges its sorted permutation, and the
// second encodes and sorts every term. The bases end inside a dictionary
// block and on a block boundary (16 and 32 terms); the writes add no new
// term, one, or dozens of every kind.
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
		name string
		g    func() *Graph
	}{
		{"16 terms", func() *Graph { return chain(5) }},
		{"32 terms", func() *Graph { return chain(13) }},
		{"random 50", func() *Graph { return v2RandomGraph(t, 50, 50) }},
		{"random 3000", func() *Graph { return v2RandomGraph(t, 3000, 3000) }},
	}
	for _, base := range bases {
		for _, k := range []int{0, 1, 40} {
			heap := base.g()
			path := filepath.Join(t.TempDir(), "g.rdfsum")
			if err := SaveFile(path, heap); err != nil {
				t.Fatal(err)
			}
			reopened, sf, err := OpenGraphFile(path, false)
			if err != nil {
				t.Fatal(err)
			}
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
			if !bytes.Equal(got.b, want.b) {
				t.Errorf("%s + %d writes: the snapshot over the mapped base (%d bytes) differs from the heap graph's (%d bytes)",
					base.name, k, len(got.b), len(want.b))
			}
			sf.Close()
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
	g := v2RandomGraph(t, 5, 20000) // several chunks
	buf := g.All()
	var whole failFile
	if err := WriteSnapshotV2(&whole, g, buf, nil); err != nil {
		t.Fatal(err)
	}
	if whole.ops < 4 {
		t.Fatalf("the sample writes in %d operations: too few to exercise a mid-file failure", whole.ops)
	}
	if _, err := parseContainer(whole.b, true); err != nil {
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
		if _, err := parseContainer(f.b, false); !errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("operation %d failed: the partial file parses with %v, want ErrSnapshotMagic", k, err)
		}
	}
}
