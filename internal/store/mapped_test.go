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
func mappedRun(t *testing.T, path string, ts []Triple, maxID uint32) *encCols {
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
	return sf.Runs().(*encCols)
}

// TestMappedColsMatchMemCols: a run written as a snapshot's column
// sections and mapped back, and a fold output above encodeCutoff, encoded
// on the heap, serve exactly the same Range results and cursor sequences
// as the same triples in memCols, for every order: every prefix length
// (0 included), bounds inside and outside the column's ID space (empty
// ranges), narrow keys (IDs up to 40) and heavy ties (IDs up to 6), and
// cursors whose ends sit on, next to and between fence, block and column
// boundaries.
func TestMappedColsMatchMemCols(t *testing.T) {
	dir := t.TempDir()
	fileSeq := 0
	mapped := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := rng.IntN(3*colBlockTriples + fenceTriples)
		universe := []uint32{idUniverse, 40}[seed%2]
		ts := randTriplesBelow(rng, n, universe)
		mem := newMemCols(slices.Clone(ts))
		fileSeq++
		enc := mappedRun(t, filepath.Join(dir, fmt.Sprintf("run-%d.rdfsum", fileSeq)), ts, universe)
		return colsMatch(t, seed, rng, mem, enc, universe)
	}
	if err := quick.Check(mapped, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	// The heap arm: eight runs folded into one past the cutoff.
	heap := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 4))
		n := encodeCutoff + rng.IntN(3*colBlockTriples+fenceTriples)
		universe := []uint32{idUniverse, 40, 60_000}[seed%3]
		ts := randTriplesBelow(rng, n, universe)
		var window []*run
		for i := range foldWidth {
			window = append(window, newRun(newMemCols(slices.Clone(ts[i*n/foldWidth:(i+1)*n/foldWidth])), nil, 0))
		}
		enc, ok := mergeRuns(window, true, 1).cols.(*encCols)
		if !ok || enc.fileBytes() != 0 {
			t.Logf("seed %d: a %d-triple fold is not encoded on the heap", seed, n)
			return false
		}
		return colsMatch(t, seed, rng, newMemCols(ts), enc, universe)
	}
	if err := quick.Check(heap, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// colsMatch compares an encoded run with the same triples in memCols:
// cursors between every pair of interesting ends, and Range and Lead for
// bounds taken from the column and drawn around its ID space (IDs below
// universe).
func colsMatch(t *testing.T, seed uint64, rng *rand.Rand, mem *memCols, enc *encCols, universe uint32) bool {
	t.Helper()
	n := mem.length()
	if enc.length() != n {
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
	// Cursor ends: the column's ends, each fence and block boundary of
	// the first two blocks and of the last, their neighbours, and random
	// points.
	var ends []int
	last := n - n%colBlockTriples
	for _, at := range []int{0, fenceTriples, 3 * fenceTriples, colBlockTriples, 2 * colBlockTriples, last - fenceTriples, last, last + fenceTriples, n - fenceTriples, n} {
		for _, e := range []int{at - 1, at, at + 1} {
			if e >= 0 && e <= n && !slices.Contains(ends, e) {
				ends = append(ends, e)
			}
		}
	}
	for range 4 {
		ends = append(ends, rng.IntN(n+1))
	}
	for ord := Order(0); ord < NumOrders; ord++ {
		mc, pc := mem.col(ord), enc.col(ord)
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
					t.Logf("seed %d %v: Range(%v, %d) heap [%d, %d) encoded [%d, %d), %d matches",
						seed, ord, bound, k, ml, mh, pl, ph, want)
					return false
				}
			}
			// Lead: the first leading key at or past bound's, and past
			// it by one (the skip scan's next seek).
			b1, _, _ := ord.key(bound)
			for _, k1 := range []dict.ID{b1, b1 + 1} {
				want, wantOK := dict.ID(0), false
				for _, tr := range mem.cols[ord].ts {
					if lead, _, _ := ord.key(tr); lead >= k1 {
						want, wantOK = lead, true
						break
					}
				}
				ml, mok := mc.Lead(k1)
				pl, pok := pc.Lead(k1)
				if ml != want || mok != wantOK || pl != want || pok != wantOK {
					t.Logf("seed %d %v: Lead(%d) heap (%d, %v) encoded (%d, %v), want (%d, %v)",
						seed, ord, k1, ml, mok, pl, pok, want, wantOK)
					return false
				}
			}
		}
	}
	return true
}

// prefixEqual reports whether t and bound agree on their first n key
// components in ord.
func prefixEqual(ord Order, t, bound Triple, n int) bool {
	t1, t2, t3 := ord.key(t)
	b1, b2, b3 := ord.key(bound)
	tk, bk := [3]dict.ID{t1, t2, t3}, [3]dict.ID{b1, b2, b3}
	return slices.Equal(tk[:n], bk[:n])
}
