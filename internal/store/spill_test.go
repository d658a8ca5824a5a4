package store

import (
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"rdfsum/internal/dict"
)

// randTriples draws n triples (duplicates allowed — the multiset matters)
// from a small ID universe so patterns hit often.
func randTriples(rng *rand.Rand, n int) []Triple {
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = Triple{
			S: dict.ID(rng.IntN(int(idUniverse)) + 1),
			P: dict.ID(rng.IntN(6) + 1),
			O: dict.ID(rng.IntN(int(idUniverse)) + 1),
		}
	}
	return ts
}

// TestMappedColsMatchMemCols: a run written to a column file and mapped
// back serves exactly the same Search results and cursor sequences as its
// in-memory source, for every order.
func TestMappedColsMatchMemCols(t *testing.T) {
	dir := t.TempDir()
	fileSeq := 0
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := rng.IntN(3 * colBlockTriples)
		mem := newMemCols(randTriples(rng, n))
		fileSeq++
		path := filepath.Join(dir, "run-"+string(rune('a'+fileSeq%26))+".col")
		if _, err := writeRunFile(path, mem); err != nil {
			t.Fatalf("writeRunFile: %v", err)
		}
		mapped, err := openRunFile(path)
		if err != nil {
			t.Fatalf("openRunFile: %v", err)
		}
		if mapped.length() != mem.length() {
			return false
		}
		for ord := Order(0); ord < NumOrders; ord++ {
			mc, pc := mem.col(ord), mapped.col(ord)
			if mc.Len() != pc.Len() {
				return false
			}
			// Same full iteration.
			a, b := mc.Cursor(0, mc.Len()), pc.Cursor(0, pc.Len())
			for a.Valid() || b.Valid() {
				if a.Valid() != b.Valid() || a.Peek() != b.Peek() {
					return false
				}
				a.Next()
				b.Next()
			}
			// Same Search boundaries for random predicates.
			for trial := 0; trial < 12; trial++ {
				bound := Triple{
					S: dict.ID(rng.IntN(int(idUniverse) + 2)),
					P: dict.ID(rng.IntN(8)),
					O: dict.ID(rng.IntN(int(idUniverse) + 2)),
				}
				pred := func(tr Triple) bool { return !ord.less(tr, bound) }
				if mc.Search(pred) != pc.Search(pred) {
					return false
				}
			}
			// Same sub-range cursors.
			if n > 0 {
				lo := rng.IntN(n)
				hi := lo + rng.IntN(n-lo)
				a, b := mc.Cursor(lo, hi), pc.Cursor(lo, hi)
				for a.Valid() || b.Valid() {
					if a.Valid() != b.Valid() || a.Peek() != b.Peek() {
						return false
					}
					a.Next()
					b.Next()
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIndexSpillOracle: an index that spills every folded run to disk
// behaves identically to the in-memory index across inserts, deletes and
// every pattern shape.
func TestIndexSpillOracle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		dir := t.TempDir()
		spill := &SpillConfig{Dir: dir, MinBytes: 1} // spill everything foldable
		g := NewGraph()
		base := randTriples(rng, rng.IntN(200)+20)
		g.Data = append(g.Data, base...)
		g.SortDedup()

		mem := NewIndexWithOptions(g, IndexOptions{Fanout: 3})
		disk := NewIndexWithOptions(g, IndexOptions{Fanout: 3, Spill: spill})

		for round := 0; round < 6; round++ {
			if rng.IntN(3) == 0 {
				dels := randTriples(rng, rng.IntN(8)+1)
				mem = mem.Applied(nil, dels)
				disk = disk.Applied(nil, dels)
			} else {
				adds := randTriples(rng, rng.IntN(40)+1)
				mem = mem.Applied(adds, nil)
				disk = disk.Applied(adds, nil)
			}
			if mem.Len() != disk.Len() {
				return false
			}
			if !sameIterationOrder(mem, disk) {
				return false
			}
		}
		// The big folded runs must actually live on disk.
		if disk.SpilledRuns() == 0 {
			t.Logf("seed %d: no runs spilled (len=%d)", seed, disk.Len())
		}
		compM, compD := mem.Compacted(), disk.Compacted()
		return compM.Len() == compD.Len() && sameIterationOrder(compM, compD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestIndexSpillUnlinksSuperseded: folding spilled runs into a bigger run
// removes the source files; the directory never accumulates garbage.
func TestIndexSpillUnlinksSuperseded(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	dir := t.TempDir()
	spill := &SpillConfig{Dir: dir, MinBytes: 1}
	g := NewGraph()
	g.Data = randTriples(rng, 300)
	g.SortDedup()
	ix := NewIndexWithOptions(g, IndexOptions{Fanout: 2, Spill: spill})
	for i := 0; i < 12; i++ {
		adds := randTriples(rng, 30)
		ix = ix.Applied(adds, nil)
	}
	ix = ix.Compacted()
	if got := ix.SpilledRuns(); got != 1 {
		t.Fatalf("compacted index has %d spilled runs, want 1", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("spill dir holds %d files after compaction, want 1: %v", len(ents), names)
	}
}

// TestSpillErrorFallsBack: an unwritable spill directory degrades to
// memory runs instead of failing the fold.
func TestSpillErrorFallsBack(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	g := NewGraph()
	g.Data = randTriples(rng, 100)
	g.SortDedup()
	spill := &SpillConfig{Dir: filepath.Join(t.TempDir(), "missing", "nested"), MinBytes: 1}
	ix := NewIndexWithOptions(g, IndexOptions{Fanout: 2, Spill: spill})
	if ix.SpilledRuns() != 0 {
		t.Fatal("spill unexpectedly succeeded into a missing directory")
	}
	want := NewIndexWithOptions(g, IndexOptions{Fanout: 2})
	if ix.Len() != want.Len() || !sameIterationOrder(ix, want) {
		t.Fatal("fallback index diverges from memory index")
	}
}
