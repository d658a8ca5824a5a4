package store

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

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
// back serves exactly the same Range results and cursor sequences as its
// in-memory source, for every order: every prefix length (0 included),
// bounds inside and outside the column's ID space (empty ranges), narrow
// keys (IDs up to 40) and heavy ties (IDs up to 6), and cursors whose
// ends sit on, next to and between fence, block and column boundaries.
func TestMappedColsMatchMemCols(t *testing.T) {
	dir := t.TempDir()
	fileSeq := 0
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := rng.IntN(3*colBlockTriples + fenceTriples)
		universe := []uint32{idUniverse, 40}[seed%2]
		mem := newMemCols(randTriplesBelow(rng, n, universe))
		fileSeq++
		path := filepath.Join(dir, fmt.Sprintf("run-%d.col", fileSeq))
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
		same := func(a, b Cursor) bool {
			for a.Valid() || b.Valid() {
				if a.Valid() != b.Valid() || a.Peek() != b.Peek() {
					return false
				}
				a.Next()
				b.Next()
			}
			return true
		}
		// Cursor ends: the column's ends, each fence and block boundary
		// of the first two blocks and its neighbours, and random points.
		var ends []int
		for _, at := range []int{0, fenceTriples, 3 * fenceTriples, colBlockTriples, 2 * colBlockTriples, n} {
			for _, e := range []int{at - 1, at, at + 1} {
				if e >= 0 && e <= n {
					ends = append(ends, e)
				}
			}
		}
		for range 4 {
			ends = append(ends, rng.IntN(n+1))
		}
		for ord := Order(0); ord < NumOrders; ord++ {
			mc, pc := mem.col(ord), mapped.col(ord)
			if mc.Len() != pc.Len() {
				return false
			}
			for _, lo := range ends {
				for _, hi := range ends {
					if lo <= hi && !same(mc.Cursor(lo, hi), pc.Cursor(lo, hi)) {
						t.Logf("seed %d %v: cursor [%d, %d) differs", seed, ord, lo, hi)
						return false
					}
				}
			}
			// Range, for bounds taken from the column and drawn around it.
			for trial := 0; trial < 24; trial++ {
				bound := Triple{
					S: dict.ID(rng.Uint32N(universe + 2)),
					P: dict.ID(rng.Uint32N(universe + 2)),
					O: dict.ID(rng.Uint32N(universe + 2)),
				}
				if trial%2 == 0 && n > 0 {
					bound = mem.cols[ord].ts[rng.IntN(n)]
				}
				for k := 0; k <= 3; k++ {
					ml, mh := mc.Range(bound, k)
					pl, ph := pc.Range(bound, k)
					want := 0
					for _, tr := range mem.cols[ord].ts {
						if prefixEqual(ord, tr, bound, k) {
							want++
						}
					}
					if ml != pl || mh != ph || mh-ml != want {
						t.Logf("seed %d %v: Range(%v, %d) heap [%d, %d) mapped [%d, %d), %d matches",
							seed, ord, bound, k, ml, mh, pl, ph, want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// prefixEqual reports whether t and bound agree on their first n key
// components in ord.
func prefixEqual(ord Order, t, bound Triple, n int) bool {
	t1, t2, t3 := ord.key(t)
	b1, b2, b3 := ord.key(bound)
	tk, bk := [3]dict.ID{t1, t2, t3}, [3]dict.ID{b1, b2, b3}
	return slices.Equal(tk[:n], bk[:n])
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// spilledIndex builds an index that spills every folded run into dir and
// folds a dozen times.
func spilledIndex(dir string) *Index {
	rng := rand.New(rand.NewPCG(5, 5))
	g := NewGraph()
	g.Data = randTriples(rng, 300)
	g.SortDedup()
	ix := NewIndexWithOptions(g, IndexOptions{Fanout: 2, Spill: &SpillConfig{Dir: dir, MinBytes: 1}})
	for i := 0; i < 12; i++ {
		ix = ix.Applied(randTriples(rng, 30), nil)
	}
	return ix
}

// TestIndexSpillUnlinksSuperseded: folding spilled runs into a bigger run
// removes the source files; the directory holds exactly the files of the
// runs the index serves.
func TestIndexSpillUnlinksSuperseded(t *testing.T) {
	dir := t.TempDir()
	ix := spilledIndex(dir)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ix.SpilledRuns() == 0 || len(ents) != ix.SpilledRuns() {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("spill dir holds %d files for %d spilled runs: %v", len(ents), ix.SpilledRuns(), names)
	}
}

// TestIndexSpillUnmapsSuperseded: a superseded spill file is unlinked at
// its fold and unmapped once no index reads its run, so its disk blocks
// are given back; no mapping of a deleted spill file outlives a
// collection.
func TestIndexSpillUnmapsSuperseded(t *testing.T) {
	if !usingMmap {
		t.Skip("this build reads spill files into the heap")
	}
	dir := t.TempDir()
	ix := spilledIndex(dir)
	deleted := func() []string {
		return mappedFiles(t, func(line string) bool {
			return strings.Contains(line, dir) && strings.HasSuffix(line, ".col (deleted)")
		})
	}
	if len(mappedFiles(t, func(line string) bool { return strings.Contains(line, dir) })) == 0 {
		t.Fatal("the index maps no spill file: the test would prove nothing")
	}
	if left := awaitCollection(deleted); len(left) > 0 {
		t.Fatalf("%d unlinked spill files are still mapped after collection: %v", len(left), left)
	}
	runtime.KeepAlive(ix)
}

// mappedFiles returns the lines of /proc/self/maps that keep says to,
// skipping the test where the file does not exist.
func mappedFiles(t *testing.T, keep func(string) bool) []string {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	var out []string
	for _, line := range strings.Split(string(raw), "\n") {
		if keep(line) {
			out = append(out, line)
		}
	}
	return out
}

// awaitCollection runs collections until left reports nothing or two
// seconds pass (cleanups run on their own goroutine after the cycle that
// found their object unreachable), and returns left's last report.
func awaitCollection(left func() []string) []string {
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		l := left()
		if len(l) == 0 || time.Now().After(deadline) {
			return l
		}
		time.Sleep(10 * time.Millisecond)
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
