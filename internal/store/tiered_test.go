package store

import (
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
)

// idUniverse is the small ID pool the tiered-index property tests draw
// from — small enough that duplicate adds, re-adds after deletion and
// dense pattern collisions all happen constantly.
const idUniverse = 6

func randTriple(rng *rand.Rand) Triple {
	return Triple{
		S: dict.ID(1 + rng.IntN(idUniverse)),
		P: dict.ID(1 + rng.IntN(idUniverse)),
		O: dict.ID(1 + rng.IntN(idUniverse)),
	}
}

// survivors applies set-delete semantics: delete removes every copy.
func deleteAll(ts []Triple, dead []Triple) []Triple {
	set := make(map[Triple]bool, len(dead))
	for _, t := range dead {
		set[t] = true
	}
	out := ts[:0:0]
	for _, t := range ts {
		if !set[t] {
			out = append(out, t)
		}
	}
	return out
}

// newIndexWidth is NewIndexFromBase folding at width instead of
// foldWidth: narrow widths fold constantly, so short op sequences reach
// deep cascades.
func newIndexWidth(base RunCols, width int) *Index {
	ix := NewIndexFromBase(base)
	ix.width = width
	ix.runs[0].level = levelFor(base.length(), width)
	return ix
}

// scanAll collects a full wildcard scan (SPO order).
func scanAll(ix *Index) []Triple {
	var out []Triple
	ix.ForEach(dict.None, dict.None, dict.None, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// scanPattern collects the triples ForEach yields for one pattern.
func scanPattern(ix *Index, s, p, o dict.ID) []Triple {
	var out []Triple
	ix.ForEach(s, p, o, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// sortedBy returns a copy of ts sorted under less.
func sortedBy(ts []Triple, less func(a, b Triple) bool) []Triple {
	out := append([]Triple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// naiveMatch filters ts by the pattern.
func naiveMatch(ts []Triple, s, p, o dict.ID) []Triple {
	var out []Triple
	for _, t := range ts {
		if (s == dict.None || t.S == s) && (p == dict.None || t.P == p) && (o == dict.None || t.O == o) {
			out = append(out, t)
		}
	}
	return out
}

// sameIterationOrder reports whether two indexes yield identical triple
// sequences for a representative set of patterns covering all three
// maintained orders.
func sameIterationOrder(a, b *Index) bool {
	if !reflect.DeepEqual(scanAll(a), scanAll(b)) {
		return false
	}
	for id := dict.ID(1); id <= idUniverse; id++ {
		if !reflect.DeepEqual(scanPattern(a, id, dict.None, dict.None), scanPattern(b, id, dict.None, dict.None)) ||
			!reflect.DeepEqual(scanPattern(a, dict.None, id, dict.None), scanPattern(b, dict.None, id, dict.None)) ||
			!reflect.DeepEqual(scanPattern(a, dict.None, dict.None, id), scanPattern(b, dict.None, dict.None, id)) {
			return false
		}
	}
	return true
}

// checkAgainstOracle verifies every read path of ix against the surviving
// multiset: Len, full-order iteration, Count and
// ForEach for every bound-position combination over the universe, and
// Contains for every triple of the universe.
func checkAgainstOracle(t *testing.T, ix *Index, surviving []Triple) bool {
	t.Helper()
	if ix.Len() != len(surviving) {
		t.Logf("Len = %d, want %d", ix.Len(), len(surviving))
		return false
	}
	held := make(map[Triple]bool, len(surviving))
	for _, tr := range surviving {
		held[tr] = true
	}
	for s := dict.ID(1); s <= idUniverse; s++ {
		for p := dict.ID(1); p <= idUniverse; p++ {
			for o := dict.ID(1); o <= idUniverse; o++ {
				if tr := (Triple{S: s, P: p, O: o}); ix.Contains(tr) != held[tr] {
					t.Logf("Contains(%v) = %v, want %v", tr, !held[tr], held[tr])
					return false
				}
			}
		}
	}
	if got, want := scanAll(ix), sortedBy(surviving, OrderSPO.less); !reflect.DeepEqual(got, want) {
		t.Logf("full scan = %v, want %v", got, want)
		return false
	}
	wildcards := []dict.ID{dict.None, 1, 2, 3, 4, 5, 6}
	for _, s := range wildcards {
		for _, p := range wildcards {
			for _, o := range wildcards {
				want := naiveMatch(surviving, s, p, o)
				if n := ix.Count(s, p, o); n != len(want) {
					t.Logf("Count(%d,%d,%d) = %d, want %d", s, p, o, n, len(want))
					return false
				}
				got := scanPattern(ix, s, p, o)
				if !reflect.DeepEqual(sortedBy(got, OrderSPO.less), sortedBy(want, OrderSPO.less)) {
					t.Logf("ForEach(%d,%d,%d) = %v, want %v", s, p, o, got, want)
					return false
				}
				// The yielded sequence must follow the serving order: POS
				// for a skip scan (property free, object bound).
				less := servingOrder(s, p, o).less
				for i := 1; i < len(got); i++ {
					if less(got[i], got[i-1]) {
						t.Logf("ForEach(%d,%d,%d) out of order at %d: %v", s, p, o, i, got)
						return false
					}
				}
			}
		}
	}
	return true
}

// TestTieredIndexOracle is the tiered index's property test: a random
// interleaving of add batches, delete batches (tombstones) and full
// compactions must read bit-identically — triples, iteration order,
// counts — to an index built from scratch over the surviving multiset.
// Snapshots taken mid-stream are re-verified at the end: later deletes,
// folds and compactions must not disturb an already-published index.
func TestTieredIndexOracle(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x7ee5))
		width := 2 + rng.IntN(4) // narrow widths fold constantly
		ix := newIndexWidth(NewRunCols(nil), width)
		var oracle []Triple

		type held struct {
			ix        *Index
			surviving []Triple
		}
		var snapshots []held

		ops := 30 + rng.IntN(30)
		for i := 0; i < ops; i++ {
			switch rng.IntN(10) {
			case 0: // compaction: a fresh base run over the survivors
				ix = newIndexWidth(NewRunCols(scanAll(ix)), width)
			case 1, 2, 3: // delete batch (often of absent triples)
				dead := make([]Triple, 1+rng.IntN(4))
				for j := range dead {
					dead[j] = randTriple(rng)
				}
				ix = ix.Applied(nil, dead)
				oracle = deleteAll(oracle, dead)
			default: // add batch (duplicates welcome)
				adds := make([]Triple, 1+rng.IntN(6))
				for j := range adds {
					adds[j] = randTriple(rng)
				}
				ix = ix.Applied(adds, nil)
				oracle = append(oracle, adds...)
			}
			if !checkAgainstOracle(t, ix, oracle) {
				t.Logf("seed %d: divergence after op %d", seed, i)
				return false
			}
			if rng.IntN(8) == 0 {
				snapshots = append(snapshots, held{ix: ix, surviving: append([]Triple(nil), oracle...)})
			}
		}
		for si, h := range snapshots {
			if !checkAgainstOracle(t, h.ix, h.surviving) {
				t.Logf("seed %d: held snapshot %d was disturbed by later operations", seed, si)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTieredIndexEncodedFolds: at the production width, add batches of
// 300–900 triples fold eight at a time into runs past encodeCutoff,
// encoded on the heap, and those folds fold again; with duplicates by the
// dozen (six IDs a position), tombstones of triples held in both slice and
// encoded runs, and snapshots held across later folds, every read path
// matches the surviving multiset (checkAgainstOracle: ForEach and Count
// on every pattern, Contains, iteration order).
func TestTieredIndexEncodedFolds(t *testing.T) {
	encoded := 0
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xe1c))
		ix := NewIndexFromBase(NewRunCols(nil))
		var oracle []Triple
		type held struct {
			ix        *Index
			surviving []Triple
		}
		var snapshots []held
		for i := 0; i < 40; i++ {
			if rng.IntN(4) == 0 {
				dead := make([]Triple, 1+rng.IntN(3))
				for j := range dead {
					dead[j] = randTriple(rng)
				}
				ix = ix.Applied(nil, dead)
				oracle = deleteAll(oracle, dead)
			} else {
				adds := make([]Triple, 300+rng.IntN(600))
				for j := range adds {
					adds[j] = randTriple(rng)
				}
				ix = ix.Applied(adds, nil)
				oracle = append(oracle, adds...)
			}
			for _, r := range ix.runs {
				if c, ok := r.cols.(*encCols); ok && c.fileBytes() == 0 {
					encoded++
				}
			}
			if i%4 == 3 && !checkAgainstOracle(t, ix, oracle) {
				t.Logf("seed %d: divergence after op %d", seed, i)
				return false
			}
			if rng.IntN(8) == 0 {
				snapshots = append(snapshots, held{ix: ix, surviving: append([]Triple(nil), oracle...)})
			}
		}
		for si, h := range snapshots {
			if !checkAgainstOracle(t, h.ix, h.surviving) {
				t.Logf("seed %d: held snapshot %d was disturbed by later operations", seed, si)
				return false
			}
		}
		return checkAgainstOracle(t, ix, oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
	if encoded == 0 {
		t.Error("no fold produced an encoded heap run")
	}
}

// TestTieredIndexMatchesFromScratch: after an op sequence, the index must
// iterate identically to NewIndex over a graph holding exactly the
// surviving multiset.
func TestTieredIndexMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	ix := newIndexWidth(NewRunCols(nil), 3)
	var oracle []Triple
	for i := 0; i < 200; i++ {
		if rng.IntN(4) == 0 && len(oracle) > 0 {
			dead := []Triple{oracle[rng.IntN(len(oracle))]}
			ix = ix.Applied(nil, dead)
			oracle = deleteAll(oracle, dead)
		} else {
			adds := []Triple{randTriple(rng)}
			ix = ix.Applied(adds, nil)
			oracle = append(oracle, adds...)
		}
	}
	fresh := &Index{width: foldWidth, live: len(oracle)}
	fresh.runs = []*run{newRun(newMemCols(append([]Triple(nil), oracle...)), nil, 0)}
	if !sameIterationOrder(ix, fresh) {
		t.Fatal("tiered index diverges from a from-scratch index over the survivors")
	}
	if ix.Len() != fresh.Len() {
		t.Fatalf("Len %d vs fresh %d", ix.Len(), fresh.Len())
	}
}

// TestIndexRunsBounded: sustained small batches keep the run count
// logarithmic (bounded by the width per level), not linear in the batch
// count — the read-amplification guarantee behind the fold policy.
func TestIndexRunsBounded(t *testing.T) {
	ix := newIndexWidth(NewRunCols(nil), 4)
	rng := rand.New(rand.NewPCG(1, 2))
	batches := 500
	maxRuns := 0
	for i := 0; i < batches; i++ {
		adds := make([]Triple, 4)
		for j := range adds {
			adds[j] = randTriple(rng)
		}
		ix = ix.Applied(adds, nil)
		if ix.Runs() > maxRuns {
			maxRuns = ix.Runs()
		}
	}
	// 4 levels of width 4 cover 4^5 runs; anything near `batches` means
	// the fold policy is broken.
	if maxRuns > 24 {
		t.Fatalf("run count reached %d over %d batches; folds are not happening", maxRuns, batches)
	}
}

// TestIndexRunsBoundedMixedSizes drives the trap behind the level-order
// invariant: alternating bulk and tiny batches place runs at different
// levels, and without the swallow rule the tiny runs would be buried
// under each bulk run where no trailing fold could ever reach them —
// unbounded run growth. Delete-only (tombstone) batches join the mix.
func TestIndexRunsBoundedMixedSizes(t *testing.T) {
	ix := newIndexWidth(NewRunCols(nil), 4)
	rng := rand.New(rand.NewPCG(3, 4))
	maxRuns := 0
	var recent []Triple
	for i := 0; i < 300; i++ {
		size := 1
		if i%2 == 0 {
			size = 64 // two levels above a 1-triple run at width 4
		}
		adds := make([]Triple, size)
		for j := range adds {
			adds[j] = randTriple(rng)
		}
		ix = ix.Applied(adds, nil)
		recent = adds
		if i%7 == 0 && len(recent) > 0 {
			ix = ix.Applied(nil, recent[:1])
		}
		if ix.Runs() > maxRuns {
			maxRuns = ix.Runs()
		}
	}
	if maxRuns > 30 {
		t.Fatalf("mixed-size batches reached %d runs; level ordering is broken", maxRuns)
	}
	// The level invariant itself: non-increasing oldest -> newest.
	for i := 1; i < len(ix.runs); i++ {
		if ix.runs[i].level > ix.runs[i-1].level {
			t.Fatalf("run %d (level %d) outranks its older neighbor (level %d)",
				i, ix.runs[i].level, ix.runs[i-1].level)
		}
	}
}

// TestIndexHeapBytesCountsEncodedRuns: after folds past encodeCutoff,
// HeapBytes is exactly what the runs hold on the heap — 24 B a triple of
// every slice run, and the payloads and built fences of every encoded
// heap run — and MappedBytes counts none of it.
func TestIndexHeapBytesCountsEncodedRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	ix := NewIndexFromBase(NewRunCols(nil))
	var last Triple
	for range 40 {
		adds := randTriplesBelow(rng, 600, 40)
		ix = ix.Applied(adds, nil)
		last = adds[0]
	}
	account := func() (want, folded int64) {
		for _, r := range ix.runs {
			switch c := r.cols.(type) {
			case *memCols:
				want += 24 * int64(c.length())
			case *encCols:
				folded += int64(c.length())
				for _, col := range c.cols {
					want += int64(len(col.payload)) + col.fenceBytes()
				}
			default:
				t.Fatalf("run of %T", c)
			}
		}
		return want, folded
	}
	check := func(what string, fenced bool) {
		t.Helper()
		want, folded := account()
		if folded == 0 {
			t.Fatalf("%s: no run is encoded after %d triples", what, ix.Len())
		}
		if got := ix.HeapBytes(); got != want {
			t.Errorf("%s: HeapBytes = %d, want slice runs at 24 B a triple + encoded payloads and fences = %d", what, got, want)
		}
		if got := ix.MappedBytes(); got != 0 {
			t.Errorf("%s: MappedBytes = %d over heap runs, want 0", what, got)
		}
		for _, r := range ix.runs {
			if c, ok := r.cols.(*encCols); ok {
				for _, col := range c.cols {
					if built := col.fenceBytes() > 0; built != fenced {
						t.Errorf("%s: %v fences built = %v, want %v", what, col.ord, built, fenced)
					}
				}
			}
		}
	}
	check("after folds", false)
	ix.Count(last.S, dict.None, dict.None)
	ix.Count(dict.None, last.P, dict.None)
	ix.Count(dict.None, dict.None, last.O)
	check("after a range lookup in every order", true)
}

// TestSkipScanOverMappedBase: a pattern with the property free and the
// object bound is a skip scan over POS, one seek a property a run; over a
// mapped snapshot base under Applied delta runs it must read as the
// surviving multiset does (checkAgainstOracle), in POS order — with a
// property held only in a delta run, a property whose every triple is
// tombstoned, and object IDs that are property IDs too — and so must
// every index a random interleaving of adds and deletes publishes on top.
func TestSkipScanOverMappedBase(t *testing.T) {
	g := NewGraph()
	g.Dict().Encode(rdf.NewIRI("http://x/6")) // IDs 1–5 are the vocabulary
	var base []Triple
	for s := dict.ID(1); s <= idUniverse; s++ {
		for _, p := range []dict.ID{2, 3, 4} {
			o := (s+p)%idUniverse + 1 // every ID is an object, 2–4 properties too
			g.AddEncoded(s, p, o)
			base = append(base, Triple{S: s, P: p, O: o})
		}
	}
	path := filepath.Join(t.TempDir(), "g.rdfsum")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	sf, err := OpenSnapshotFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	ix := NewIndexFromBase(sf.Runs())
	if !checkAgainstOracle(t, ix, base) {
		t.Fatal("the mapped base alone")
	}
	oracle := slices.Clone(base)

	// Property 6 is held only in a delta run.
	only := []Triple{{S: 1, P: 6, O: 2}, {S: 5, P: 6, O: 6}, {S: 5, P: 6, O: 6}}
	ix = ix.Applied(only, nil)
	oracle = append(oracle, only...)
	if !checkAgainstOracle(t, ix, oracle) {
		t.Fatal("a property held only in a delta run")
	}
	// Every triple of property 4 is tombstoned, yet the skip scan still
	// seeks it in the base.
	dead := naiveMatch(oracle, dict.None, 4, dict.None)
	ix = ix.Applied(nil, dead)
	oracle = deleteAll(oracle, dead)
	if !checkAgainstOracle(t, ix, oracle) {
		t.Fatal("a property whose every triple is tombstoned")
	}
	if n := ix.Count(dict.None, 4, dict.None); n != 0 {
		t.Fatalf("Count(?, 4, ?) = %d after deleting every triple of 4", n)
	}
	if got := slices.Collect(ix.props()); !slices.Equal(got, []dict.ID{2, 3, 4, 6}) {
		t.Fatalf("props = %v, want 2, 3, 4 (tombstoned) and 6", got)
	}

	rng := rand.New(rand.NewPCG(50, 1))
	held, heldOracle := ix, slices.Clone(oracle)
	for i := range 40 {
		if rng.IntN(3) == 0 {
			dead := []Triple{randTriple(rng), randTriple(rng)}
			ix = ix.Applied(nil, dead)
			oracle = deleteAll(oracle, dead)
		} else {
			adds := make([]Triple, 1+rng.IntN(5))
			for j := range adds {
				adds[j] = randTriple(rng)
			}
			ix = ix.Applied(adds, nil)
			oracle = append(oracle, adds...)
		}
		if !checkAgainstOracle(t, ix, oracle) {
			t.Fatalf("divergence after op %d", i)
		}
	}
	if ix.runs[0].cols != sf.Runs() {
		t.Fatal("the mapped base was folded away: the test no longer reads it under delta runs")
	}
	if !checkAgainstOracle(t, held, heldOracle) {
		t.Fatal("a held index was disturbed by later operations")
	}
}
