package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// TestReadSnapshotRoundTrip: the streamed path reads a snapshot however
// the stream delivers it — here one byte per Read, as a slow socket
// might — and passes a read error that is not an early end through
// unclassified.
func TestReadSnapshotRoundTrip(t *testing.T) {
	g, data := v2Sample(t)
	got, _, err := ReadGraph(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("ReadGraph: %v", err)
	}
	identicalGraphs(t, asOpened(g), got)

	errNet := errors.New("connection reset")
	_, _, err = ReadGraph(io.MultiReader(bytes.NewReader(data[:100]), iotest.ErrReader(errNet)))
	if !errors.Is(err, errNet) || errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("stream error: got %v, want the reader's own error", err)
	}
}

// TestReadSnapshotTruncated cuts the snapshot at every prefix length of
// its header and TOC, and at a stride in between, and requires a
// classified error — ErrSnapshotTruncated for a cut past the magic (never
// a panic, never a silent partial graph).
func TestReadSnapshotTruncated(t *testing.T) {
	_, data := v2Sample(t)
	for cut := 0; cut < len(data); cut++ {
		if cut > 2*v2HeaderSize && cut < len(data)-512 && cut%61 != 0 {
			continue
		}
		_, _, err := ReadGraph(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("cut at %d of %d bytes: truncated snapshot read succeeded", cut, len(data))
		}
		if !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrSnapshotTruncated", cut, err)
		}
	}
	// A cut inside the magic itself is a truncation, not a foreign file.
	_, _, err := ReadGraph(bytes.NewReader(data[:3]))
	if !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("cut inside magic: got %v, want ErrSnapshotTruncated", err)
	}
}

// TestReadSnapshotRefusesDuplicateTerm: a stream is outside input, so the
// streamed read checks what a file the store wrote is trusted with. A
// dictionary that lists one term under two IDs — every checksum resealed
// over it — is refused by ReadGraph with ErrSnapshotCorrupt.
func TestReadSnapshotRefusesDuplicateTerm(t *testing.T) {
	_, data := v2Sample(t)
	bad := append([]byte(nil), data...)
	c, err := parseVerified(bad)
	if err != nil {
		t.Fatal(err)
	}
	// Term 8, <http://x/b>, is front-coded against term 7, <http://x/p>:
	// 9 shared bytes, then the 1-byte suffix "b". Make the suffix "p".
	pages := c.secs[secDictPages]
	at := bytes.Index(pages.raw, []byte{9, 1, 'b'})
	if at < 0 || bytes.Count(pages.raw, []byte{9, 1, 'b'}) != 1 {
		t.Fatal("the sample's dictionary pages no longer code <http://x/b> as expected")
	}
	pages.raw[at+2] = 'p'
	reseal(bad, len(c.secOrder))

	if _, _, err := ReadGraph(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("ReadGraph of a dictionary listing <http://x/p> twice: got %v, want ErrSnapshotCorrupt", err)
	}
}

func TestReadSnapshotBadMagic(t *testing.T) {
	_, data := v2Sample(t)
	bad := append([]byte("NOTRDF"), data[6:]...)
	if _, _, err := ReadGraph(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotMagic) {
		t.Fatalf("bad magic: got %v, want ErrSnapshotMagic", err)
	}
	// Shorter than a header, or than the magic itself, and foreign from
	// the first byte.
	for _, short := range []string{"garbage-that-is-not-a-snapshot", "NOT", "RDx"} {
		if _, _, err := ReadGraph(bytes.NewReader([]byte(short))); !errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("%q: got %v, want ErrSnapshotMagic", short, err)
		}
	}
}

func TestReadSnapshotBadVersion(t *testing.T) {
	_, data := v2Sample(t)
	bad := append([]byte(nil), data...)
	bad[len(snapshotMagic)] = snapshotVersion + 9
	if _, _, err := ReadGraph(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("bad version: got %v, want ErrSnapshotVersion", err)
	}
}

// TestReadSnapshotBitFlips flips bytes across the whole file, padding
// included. A flip in a byte some CRC covers must be refused with a
// classified error (TestSnapshotV2BitFlipsEager flips every one of
// those); a flip in the zero padding between sections changes nothing
// the reader sees, so it must read back the identical graph.
func TestReadSnapshotBitFlips(t *testing.T) {
	g, data := v2Sample(t)
	ranges := coveredRanges(t, data)
	covered := func(i int) bool {
		for _, r := range ranges {
			if i >= r[0] && i < r[1] {
				return true
			}
		}
		return false
	}
	padding := 0
	for i := len(snapshotMagic) + 1; i < len(data); i += 7 {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		got, _, err := ReadGraph(bytes.NewReader(bad))
		if !covered(i) {
			if err != nil {
				t.Fatalf("flip in padding at byte %d: %v", i, err)
			}
			identicalGraphs(t, asOpened(g), got)
			padding++
			continue
		}
		if err == nil {
			t.Fatalf("flip at byte %d: corrupt snapshot read succeeded", i)
		}
		if !errors.Is(err, ErrSnapshotChecksum) &&
			!errors.Is(err, ErrSnapshotCorrupt) &&
			!errors.Is(err, ErrSnapshotTruncated) &&
			!errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("flip at byte %d: unclassified error %v", i, err)
		}
	}
	if padding == 0 {
		t.Fatal("no flip landed in padding: the sample exercises only covered bytes")
	}
}

func TestSnapshotViewIsolation(t *testing.T) {
	g := NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/a"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/b")))
	view := g.SnapshotView()
	n := view.NumEdges()
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/c"), rdf.NewIRI("http://x/p"), rdf.NewIRI("http://x/d")))
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/c"), rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/C")))
	if view.NumEdges() != n {
		t.Fatalf("snapshot view grew with its parent: %d -> %d edges", n, view.NumEdges())
	}
	if g.NumEdges() != n+2 {
		t.Fatalf("parent graph has %d edges, want %d", g.NumEdges(), n+2)
	}
}

func TestIndexMerged(t *testing.T) {
	g := NewGraph()
	iri := func(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
	g.Add(rdf.NewTriple(iri("a"), iri("p"), iri("b")))
	g.Add(rdf.NewTriple(iri("b"), iri("q"), iri("c")))
	base := NewIndex(g)

	g.Add(rdf.NewTriple(iri("a"), iri("q"), iri("c")))
	g.Add(rdf.NewTriple(iri("c"), iri("p"), iri("a")))
	delta := g.All()[2:]
	merged := base.Applied(delta, nil)
	want := NewIndex(g)

	if merged.Len() != want.Len() {
		t.Fatalf("merged index has %d triples, want %d", merged.Len(), want.Len())
	}
	if !sameIterationOrder(merged, want) {
		t.Fatal("merged index iteration diverges from rebuilt index")
	}
	// The base index must be untouched.
	if base.Len() != 2 {
		t.Fatalf("base index mutated by Applied: %d triples", base.Len())
	}
}

// TestSnapshotOfOverlayGraphHoldsReferencedTerms: a graph over an overlay
// dictionary (what a summary is) saves as the triples it
// holds over a dictionary of exactly the terms they reference plus the
// interpreted vocabulary — not the dictionary it extends.
func TestSnapshotOfOverlayGraphHoldsReferencedTerms(t *testing.T) {
	in, _ := v2Sample(t)
	for i := 0; i < 500; i++ { // terms the overlay graph never references
		in.Dict().EncodeIRI(fmt.Sprintf("http://x/unreferenced%d", i))
	}
	names := dict.Overlay(in.Dict())
	sum := NewGraphWithDict(names)
	p, _ := in.Dict().LookupIRI("http://x/p")
	c, _ := in.Dict().LookupIRI("http://x/C")
	n := names.EncodeIRI("rdfsum:w?in=&out=<http://x/p>")
	sum.AddEncoded(n, p, n)
	sum.AddEncoded(n, in.Vocab().Type, c)
	sum.Schema = append(sum.Schema, in.Schema...)
	if before := in.Dict().Len(); sum.Dense().Dict().Len() != 5+4 || in.Dict().Len() != before {
		t.Fatalf("Dense dictionary holds %d terms, want the vocabulary and n, p, C, D; input went %d -> %d",
			sum.Dense().Dict().Len(), before, in.Dict().Len())
	}
	if in.Dense() != in {
		t.Error("Dense must return a graph over a dense dictionary unchanged")
	}

	path := filepath.Join(t.TempDir(), "sum.snap")
	if err := SaveFile(path, sum); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.CanonicalStrings(), sum.CanonicalStrings()) {
		t.Errorf("round trip: got %v, want %v", got.CanonicalStrings(), sum.CanonicalStrings())
	}
	if got.Dict().Len() != 9 {
		t.Errorf("reloaded dictionary holds %d terms, want 9", got.Dict().Len())
	}
	if err := WriteSnapshotV2(&memFile{}, sum, sum.All(), nil); err == nil {
		t.Error("WriteSnapshotV2 must refuse a graph over an overlay dictionary: its triples are in overlay IDs")
	}
}
