package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

const v1SamplePath = "testdata/v1-sample.rdfsum"

// persistSample returns v2Sample's graph — all three components, every
// term kind — with its legacy v1 serialization: testdata/v1-sample.rdfsum,
// written once by the v1 encoder before that was removed (PR 18). The v1
// decoder is read-only; this file is what its checks are exercised on.
func persistSample(t *testing.T) (*Graph, []byte) {
	t.Helper()
	g, _ := v2Sample(t)
	data, err := os.ReadFile(v1SamplePath)
	if err != nil {
		t.Fatal(err)
	}
	return g, data
}

func TestReadSnapshotRoundTrip(t *testing.T) {
	g, data := persistSample(t)
	got, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	want := g.CanonicalStrings()
	have := got.CanonicalStrings()
	if len(want) != len(have) {
		t.Fatalf("round trip changed triple count: %d -> %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("round trip changed triple %d: %q -> %q", i, want[i], have[i])
		}
	}
}

// TestReadSnapshotTruncated cuts the snapshot at every prefix length and
// requires a classified error — ErrSnapshotTruncated for a clean cut
// (never a panic, never a silent partial graph). A cut can also surface as
// a checksum or corruption error when the truncated tail happens to parse
// as a shorter, self-consistent prefix; what it must never be is success.
func TestReadSnapshotTruncated(t *testing.T) {
	_, data := persistSample(t)
	for cut := 0; cut < len(data); cut++ {
		_, err := ReadSnapshot(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("cut at %d of %d bytes: truncated snapshot read succeeded", cut, len(data))
		}
		if !errors.Is(err, ErrSnapshotTruncated) &&
			!errors.Is(err, ErrSnapshotChecksum) &&
			!errors.Is(err, ErrSnapshotCorrupt) &&
			!errors.Is(err, ErrSnapshotMagic) {
			t.Fatalf("cut at %d: unclassified error %v", cut, err)
		}
	}
	// A cut inside the magic itself is a truncation, not a foreign file.
	_, err := ReadSnapshot(bytes.NewReader(data[:3]))
	if !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("cut inside magic: got %v, want ErrSnapshotTruncated", err)
	}
}

func TestReadSnapshotBadMagic(t *testing.T) {
	_, data := persistSample(t)
	bad := append([]byte("NOTRDF"), data[6:]...)
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotMagic) {
		t.Fatalf("bad magic: got %v, want ErrSnapshotMagic", err)
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte("garbage-that-is-not-a-snapshot"))); !errors.Is(err, ErrSnapshotMagic) {
		t.Fatalf("garbage: got %v, want ErrSnapshotMagic", err)
	}
}

func TestReadSnapshotBadVersion(t *testing.T) {
	_, data := persistSample(t)
	bad := append([]byte(nil), data...)
	bad[len(snapshotMagic)] = snapshotVersion + 9
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("bad version: got %v, want ErrSnapshotVersion", err)
	}
}

// TestReadSnapshotBitFlips flips each byte of the payload in turn; every
// flip must be rejected with a classified error. Most flips survive
// parsing and die at the checksum; some corrupt the structure first — both
// classifications are correct, silence is not.
func TestReadSnapshotBitFlips(t *testing.T) {
	_, data := persistSample(t)
	for i := len(snapshotMagic) + 1; i < len(data); i++ {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		_, err := ReadSnapshot(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at byte %d: corrupt snapshot read succeeded", i)
		}
		if !errors.Is(err, ErrSnapshotChecksum) &&
			!errors.Is(err, ErrSnapshotCorrupt) &&
			!errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("flip at byte %d: unclassified error %v", i, err)
		}
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
	in, _ := persistSample(t)
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
	if err := WriteSnapshotV2(&memFile{}, sum, NewRunCols(sum.All())); err == nil {
		t.Error("WriteSnapshotV2 must refuse a graph over an overlay dictionary: its run is in overlay IDs")
	}
}
