package store

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"rdfsum/internal/dict"
)

// mappedRun writes ts as the data component of a snapshot at path and
// returns the snapshot's column run, mapped. The dictionary holds maxID
// terms, so every ID of ts names one.
func mappedRun(t *testing.T, path string, ts []Triple, maxID uint32) *mappedCols {
	t.Helper()
	g := NewGraph()
	for i := g.Dict().Len(); i < int(maxID); i++ {
		g.Dict().EncodeIRI(fmt.Sprintf("http://x/t%d", i))
	}
	g.Data = append(g.Data, ts...)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotV2(f, g, g.All(), nil); err != nil {
		t.Fatalf("WriteSnapshotV2: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sf, err := OpenSnapshotFile(path, false)
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}
	return sf.Runs().(*mappedCols)
}

// TestMappedColsMatchMemCols: a run written as a snapshot's column
// sections and mapped back serves exactly the same Range results and cursor sequences as its
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
		ts := randTriplesBelow(rng, n, universe)
		mem := newMemCols(slices.Clone(ts))
		fileSeq++
		mapped := mappedRun(t, filepath.Join(dir, fmt.Sprintf("run-%d.rdfsum", fileSeq)), ts, universe)
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
