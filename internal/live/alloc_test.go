package live

import (
	"path/filepath"
	"runtime"
	"testing"

	"rdfsum/internal/bsbm"
	"rdfsum/internal/core"
	"rdfsum/internal/dict"
	"rdfsum/internal/lubm"
	"rdfsum/internal/rdf"
)

// allocated returns the bytes and the allocations f made.
func allocated(f func()) (bytes, allocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestReopenedStoreAllocBound holds a store reopened onto its mapped
// snapshot — what a restarted rdfsumd serves from — to what the same
// graph costs on the heap: LUBM-52, seeded, closed and reopened under the
// default maintenance (weak). Once the first probe has indexed the mapped
// dictionary, a lookup or an encode of a base term allocates nothing and
// decoding a base IRI allocates its one string, as does decoding a long
// base literal of a reopened BSBM store; a type-based summary (one
// minted name per untyped node, each a miss) allocates at most twice what
// it does on the seeded heap store; and a compaction does not decode the
// base term by term.
func TestReopenedStoreAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own account")
	}
	dir := filepath.Join(t.TempDir(), "store")
	l, err := Open(dir, &Options{NoSync: true, Seed: lubm.GenerateGraph(lubm.DefaultConfig(52))})
	if err != nil {
		t.Fatal(err)
	}
	summarize := func(l *Live) uint64 {
		b, _ := allocated(func() {
			if _, _, err := l.Summary(core.TypeBased, 0); err != nil {
				t.Fatal(err)
			}
		})
		return b
	}
	heapBytes := summarize(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, &Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := l.Snapshot().Graph.Dict()
	// A base IRI that is not the head of its block, so that decoding it
	// walks predecessors.
	var iri rdf.Term
	var iriID dict.ID
	for id := dict.ID(dict.BlockTerms); int(id) <= d.Len(); id += dict.BlockTerms {
		if iri = d.Term(id); iri.Kind == rdf.IRI {
			iriID = id
			break
		}
	}
	if iriID == 0 {
		t.Fatal("no IRI at the end of a dictionary block")
	}
	// Base terms none of which has been probed for yet, each asked for once.
	var terms []rdf.Term
	for id := iriID + 1; len(terms) < 2*101; id++ {
		terms = append(terms, d.Term(id))
	}
	if _, ok := d.Lookup(d.Term(1)); !ok { // the first probe indexes the base
		t.Fatalf("Lookup(%v) missed on the reopened store", d.Term(1))
	}
	next := 0
	if allocs := testing.AllocsPerRun(100, func() { d.Lookup(terms[next]); next++ }); allocs != 0 {
		t.Errorf("Lookup of a base term: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { d.Encode(terms[next]); next++ }); allocs != 0 {
		t.Errorf("Encode of a base term: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { d.Term(iriID) }); allocs != 1 {
		t.Errorf("Term of a base IRI: %v allocs/op, want 1", allocs)
	}
	reopenedBSBMLiteralAllocs(t)

	mappedBytes := summarize(l)
	if mappedBytes > 2*heapBytes {
		t.Errorf("type-based summary allocated %d bytes on the reopened store, %d on the heap store: %.1f×, want at most 2×",
			mappedBytes, heapBytes, float64(mappedBytes)/float64(heapBytes))
	}
	if err := l.AddBatch(mkBatch(0, 500)); err != nil {
		t.Fatal(err)
	}
	var compactErr error
	_, compactAllocs := allocated(func() { compactErr = l.Compact() })
	if compactErr != nil {
		t.Fatal(compactErr)
	}
	if compactAllocs > 150_000 {
		t.Errorf("Compact of the reopened store made %d allocations, want at most 150 000", compactAllocs)
	}
	t.Logf("type-based summary: %d B reopened, %d B on the heap (%.2f×); compaction: %d allocations",
		mappedBytes, heapBytes, float64(mappedBytes)/float64(heapBytes), compactAllocs)
}

// reopenedBSBMLiteralAllocs: on a BSBM store reopened onto its mapped
// snapshot, decoding a long base literal that is not its block's head —
// a product description, whose value is rebuilt along a chain of earlier
// terms — allocates its one string.
func reopenedBSBMLiteralAllocs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bsbm")
	l, err := Open(dir, &Options{NoSync: true, Seed: bsbm.GenerateGraph(bsbm.DefaultConfig(300))})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(dir, &Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := l.Snapshot().Graph.Dict()
	var lit rdf.Term
	var litID dict.ID
	for id := dict.ID(2); int(id) <= d.Len(); id++ {
		if lit = d.Term(id); (id-1)%dict.BlockTerms != 0 && lit.Kind == rdf.Literal && len(lit.Value) >= 100 {
			litID = id
			break
		}
	}
	if litID == 0 {
		t.Fatal("no literal of 100 bytes or more inside a dictionary block")
	}
	if allocs := testing.AllocsPerRun(100, func() { d.Term(litID) }); allocs != 1 {
		t.Errorf("Term of a %d-byte base literal: %v allocs/op, want 1", len(lit.Value), allocs)
	}
}
