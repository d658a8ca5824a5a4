package rdfsum_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rdfsum"
	"rdfsum/internal/dict"
)

// TestStreamingBuilderFacade: a builder fed one triple at a time matches
// Summarize — the same builder seeded with the graph — through the public
// API.
func TestStreamingBuilderFacade(t *testing.T) {
	g := rdfsum.GenerateBSBM(60)
	batch, err := rdfsum.Summarize(g, rdfsum.Weak)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rdfsum.NewBuilder(rdfsum.Weak)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range g.Decode() {
		b.Add(tr)
	}
	inc := b.Summary()
	if !reflect.DeepEqual(batch.Graph.CanonicalStrings(), inc.Graph.CanonicalStrings()) {
		t.Error("streaming builder differs from Summarize")
	}
	if inc.Stats != batch.Stats {
		t.Errorf("stats differ: streamed %+v, Summarize %+v", inc.Stats, batch.Stats)
	}
}

// TestLoadFacade: the loader, reached through the public API, yields the
// graph NewGraph builds from the parsed triples — same dictionary, same
// component slices — from a file and from a reader.
func TestLoadFacade(t *testing.T) {
	src := rdfsum.GenerateBSBM(60)
	var buf bytes.Buffer
	if err := rdfsum.WriteNTriples(&buf, src.Decode()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	triples, err := rdfsum.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := rdfsum.NewGraph(triples)

	path := filepath.Join(t.TempDir(), "data.nt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := rdfsum.LoadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	fromReader, err := rdfsum.Load(bytes.NewReader(data), &rdfsum.LoadOptions{Format: rdfsum.FormatNTriples})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*rdfsum.Graph{"LoadFile": fromFile, "Load": fromReader} {
		if want.Dict().Len() != got.Dict().Len() {
			t.Fatalf("%s: dictionaries differ: %d vs %d terms", name, want.Dict().Len(), got.Dict().Len())
		}
		for i := 1; i <= want.Dict().Len(); i++ {
			if want.Dict().Term(dict.ID(i)) != got.Dict().Term(dict.ID(i)) {
				t.Fatalf("%s: dictionary id %d differs", name, i)
			}
		}
		if !reflect.DeepEqual(want.Data, got.Data) ||
			!reflect.DeepEqual(want.Types, got.Types) ||
			!reflect.DeepEqual(want.Schema, got.Schema) {
			t.Fatalf("%s: component slices differ from NewGraph of the parsed triples", name)
		}
	}
}

// TestWeightsFacade: cardinalities power summary-only query estimation.
func TestWeightsFacade(t *testing.T) {
	g := rdfsum.GenerateBSBM(80)
	s, err := rdfsum.Summarize(g, rdfsum.Weak)
	if err != nil {
		t.Fatal(err)
	}
	w := s.ComputeWeights()
	total := 0
	for _, c := range w.EdgeCard {
		total += c
	}
	if total != len(g.Data) {
		t.Errorf("edge cardinalities sum to %d, want |D_G| = %d", total, len(g.Data))
	}
	price, ok := g.Dict().LookupIRI("http://bsbm.example.org/vocabulary/price")
	if !ok {
		t.Fatal("price property missing")
	}
	if w.PropertyCount(price) != 80*3 { // 3 offers per product, 1 price each
		t.Errorf("PropertyCount(price) = %d, want %d", w.PropertyCount(price), 80*3)
	}
}

// TestTurtleRoundTripFacade: a summary graph written as Turtle (with its
// content-addressed node URIs) reloads to the identical triple set.
func TestTurtleRoundTripFacade(t *testing.T) {
	g := rdfsum.GenerateBSBM(30)
	s, err := rdfsum.Summarize(g, rdfsum.TypedWeak)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rdfsum.WriteTurtle(&buf, s.Graph.Decode()); err != nil {
		t.Fatal(err)
	}
	back, err := rdfsum.ParseTurtle(&buf)
	if err != nil {
		t.Fatalf("reparse of summary Turtle failed: %v", err)
	}
	h := rdfsum.NewGraph(back)
	if !reflect.DeepEqual(s.Graph.CanonicalStrings(), h.CanonicalStrings()) {
		t.Error("Turtle round trip changed the summary triple set")
	}
}

// TestGenerateLUBMFacade: the LUBM workload is reachable and summarizable
// through the public API, and saturation grows it substantially.
func TestGenerateLUBMFacade(t *testing.T) {
	g := rdfsum.GenerateLUBM(1)
	if g.NumEdges() < 1000 {
		t.Fatalf("LUBM(1) only %d triples", g.NumEdges())
	}
	inf := rdfsum.Saturate(g)
	if inf.NumEdges() <= g.NumEdges() {
		t.Error("LUBM saturation added nothing; hierarchy not exercised")
	}
	for _, kind := range allKinds {
		if _, err := rdfsum.Summarize(g, kind); err != nil {
			t.Fatalf("Summarize(%v) on LUBM: %v", kind, err)
		}
	}
	// Representativeness spot-check on the second workload.
	if !checkRepresentative(t, g, 3, 10, 3) {
		t.Error("representativeness violated on LUBM")
	}
}

// TestQuotientEngineFacade: the kind-generic incremental builder and the
// one-pass SummarizeAll match batch summarization through the public API.
func TestQuotientEngineFacade(t *testing.T) {
	g := rdfsum.GenerateBSBM(40)
	all, err := rdfsum.SummarizeAll(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != rdfsum.NumKinds {
		t.Fatalf("SummarizeAll built %d kinds, want %d", len(all), rdfsum.NumKinds)
	}
	for _, kind := range rdfsum.Kinds {
		batch, err := rdfsum.Summarize(g, kind)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch.Graph.CanonicalStrings(), all[kind].Graph.CanonicalStrings()) {
			t.Errorf("%v: SummarizeAll differs from Summarize", kind)
		}
		b, err := rdfsum.NewBuilder(kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range g.Decode() {
			b.Add(tr)
		}
		inc := b.Summary()
		if !reflect.DeepEqual(batch.Graph.CanonicalStrings(), inc.Graph.CanonicalStrings()) {
			t.Errorf("%v: incremental builder differs from batch", kind)
		}
	}
}

// TestLiveMaintainingFacade: a live store maintaining every kind serves
// each one current with no lazy rebuilds.
func TestLiveMaintainingFacade(t *testing.T) {
	lv := rdfsum.NewLive(nil, &rdfsum.LiveOptions{Maintain: rdfsum.Kinds})
	defer lv.Close()
	if err := lv.AddBatch(rdfsum.GenerateBSBM(20).Decode()); err != nil {
		t.Fatal(err)
	}
	for _, kind := range rdfsum.Kinds {
		if !lv.Maintained(kind) {
			t.Errorf("%v: not maintained", kind)
		}
		if _, epoch, err := lv.Summary(kind, 0); err != nil || epoch != lv.Epoch() {
			t.Errorf("%v: epoch %d err %v, want current %d", kind, epoch, err, lv.Epoch())
		}
	}
	for _, st := range lv.Status() {
		if st.LazyBuilds != 0 {
			t.Errorf("%v: %d lazy builds, want 0", st.Kind, st.LazyBuilds)
		}
	}
}
