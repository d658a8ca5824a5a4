package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"rdfsum/internal/dict"
)

// columnCase is a named multiset of triples and the ID bound its Range
// bounds are drawn below.
type columnCase struct {
	name     string
	ts       []Triple
	universe uint32
}

// columnCases draws the multisets TestColumnRoundTrip codes: sizes on
// and around every fence and block edge, random IDs over a wide and a
// narrow universe, all-duplicate runs (every delta 0), and IDs near
// 2^32, so that leading deltas reach 2^31 and beyond.
func columnCases(rng *rand.Rand) []columnCase {
	sizes := []int{0, 1, 2, fenceTriples - 1, fenceTriples, fenceTriples + 1,
		colBlockTriples - 1, colBlockTriples, colBlockTriples + 1, 2*colBlockTriples + fenceTriples, 3*colBlockTriples + 5}
	high := []dict.ID{1, 2, 1<<31 - 1, 1 << 31, 1<<31 + 1, math.MaxUint32 - 1, math.MaxUint32}
	var cases []columnCase
	for _, n := range sizes {
		cases = append(cases,
			columnCase{fmt.Sprintf("random-%d", n), randTriplesBelow(rng, n, 60_000), 60_000},
			columnCase{fmt.Sprintf("narrow-%d", n), randTriplesBelow(rng, n, 6), 6})
		dup := make([]Triple, n)
		fillTriples(dup, Triple{S: 7, P: 3, O: 9})
		cases = append(cases, columnCase{fmt.Sprintf("duplicates-%d", n), dup, 10})
		far := make([]Triple, n)
		for i := range far {
			far[i] = Triple{S: high[rng.IntN(len(high))], P: high[rng.IntN(len(high))], O: high[rng.IntN(len(high))]}
		}
		cases = append(cases, columnCase{fmt.Sprintf("high-%d", n), far, math.MaxUint32 - 2})
	}
	return cases
}

// TestColumnRoundTrip: every multiset of columnCases, coded in each
// order by encodeCols, walks back to itself in that order, and its
// cursors and Range lookups (window, search, over the walk's fences)
// serve what the same triples in memCols serve.
func TestColumnRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 1))
	for i, tc := range columnCases(rng) {
		enc := encodeCols(slices.Clone(tc.ts))
		mem := newMemCols(slices.Clone(tc.ts))
		for o, col := range enc.cols {
			want := mem.cols[o].ts
			var got []Triple
			if _, err := col.walk(^dict.ID(0), func(tr Triple) { got = append(got, tr) }); err != nil {
				t.Fatalf("%s %v: walk: %v", tc.name, Order(o), err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s %v: the column walks back to other triples", tc.name, Order(o))
			}
		}
		if len(tc.ts) > 0 && !colsMatch(t, uint64(i), rng, mem, enc, tc.universe) {
			t.Fatalf("%s: the coded columns serve other ranges than memCols", tc.name)
		}
	}
}

// TestColumnTags: each step's first varint carries the tag of the first
// key that moved — 1 in its low bit when k1 moved, 2 in its low two bits
// when only k2 and k3 may have, 0 when only k3 may have (a duplicate
// included) — and appendStep writes the step stepLen sizes, in one byte
// when only k3 moved and by less than 32.
func TestColumnTags(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 2))
	seen := map[uint64]int{}
	for _, tc := range columnCases(rng) {
		for o := Order(0); o < NumOrders; o++ {
			ts := slices.Clone(tc.ts)
			slices.SortFunc(ts, o.compare)
			var b bytes.Buffer
			writeCol(&b, o, len(ts), slices.Values(ts)) //nolint:errcheck // a slice holds its length
			payload := b.Bytes()
			pos := 8 + (len(ts)+colBlockTriples-1)/colBlockTriples*colSkipEntryBytes
			for i := 1; i < len(ts); i++ {
				if i%colBlockTriples == 0 {
					continue // the block's first triple is in the skip index
				}
				p1, p2, p3 := o.key(ts[i-1])
				c1, c2, c3 := o.key(ts[i])
				v, next := readUvarint(payload, pos)
				tag, want := v&3, uint64(0)
				if v&1 == 1 {
					tag = 1
				}
				switch {
				case c1 != p1:
					want = 1
				case c2 != p2:
					want = 2
				}
				if tag != want {
					t.Fatalf("%s %v triple %d: %v after %v carries tag %d, want %d", tc.name, o, i, ts[i], ts[i-1], tag, want)
				}
				seen[want]++
				n := stepLen(p1, p2, p3, c1, c2, c3)
				step := appendStep(nil, p1, p2, p3, c1, c2, c3)
				if len(step) != n || !bytes.Equal(payload[pos:pos+n], step) {
					t.Fatalf("%s %v triple %d: step %x of %d bytes in the payload, appendStep %x, stepLen %d",
						tc.name, o, i, payload[pos:min(pos+n, len(payload))], next-pos, step, n)
				}
				if c1 == p1 && c2 == p2 && c3-p3 < 32 && n != 1 {
					t.Fatalf("%s %v triple %d: a step of k3 alone by %d takes %d bytes", tc.name, o, i, c3-p3, n)
				}
				pos += n
			}
		}
	}
	for _, tag := range []uint64{0, 1, 2} {
		if seen[tag] == 0 {
			t.Errorf("no step carried tag %d", tag)
		}
	}
}

// TestOpenColRefusesShortPayload: a column whose header claims more
// triples than its bytes can hold, at one byte a step, is refused by
// openCol's framing check, allocating nothing for the triples it claims
// (96 KB as triples, 16 KB as fences: under 1 KB a call is the error
// alone); one byte more passes that check and fails on its steps.
func TestOpenColRefusesShortPayload(t *testing.T) {
	const n, nBlocks = 16 * colBlockTriples, 16
	frame := func(steps int) []byte {
		p := binary.LittleEndian.AppendUint32(nil, n)
		p = binary.LittleEndian.AppendUint32(p, nBlocks)
		for b := 0; b < nBlocks; b++ {
			p = append(p, make([]byte, 12)...)
			p = binary.LittleEndian.AppendUint64(p, uint64(8+nBlocks*colSkipEntryBytes+b*(colBlockTriples-1)))
		}
		return append(p, bytes.Repeat([]byte{0x80}, steps)...)
	}
	short := frame(n - nBlocks - 1)
	open := func() error { _, err := openCol(OrderSPO, short, n, nil); return err }
	if err := open(); !errors.Is(err, ErrSnapshotCorrupt) || !bytes.Contains([]byte(err.Error()), []byte(fmt.Sprintf("of %d triples in %d bytes", n, len(short)))) {
		t.Fatalf("a payload a byte short of its steps: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 100 {
		open()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 1<<10 {
		t.Errorf("refusing a short payload allocated %d bytes a call, want the error's few", per)
	}
	if _, err := openCol(OrderSPO, frame(n-nBlocks), n, nil); !errors.Is(err, ErrSnapshotCorrupt) ||
		bytes.Contains([]byte(err.Error()), []byte("triples in")) {
		t.Fatalf("a payload of %d cut steps passed the framing check: %v", n-nBlocks, err)
	}
}

// FuzzColumn hands openCol and walk an arbitrary column payload claiming
// the triples its header claims. Each returns an ErrSnapshotCorrupt error
// or the claimed number of triples, every ID in 1..fuzzMaxID, never a
// panic; a column the walk accepts is then served — scanned by its cursor
// and searched by Range — without one. Seeded with a column of a few
// fences — small, so that the fuzzer's minimization of an input stays
// short; run with `make fuzz` or:
//
//	go test -fuzz=FuzzColumn -fuzztime=30s -run='^$' ./internal/store
func FuzzColumn(f *testing.F) {
	const fuzzMaxID = 1000
	rng := rand.New(rand.NewPCG(47, 3))
	ts := randTriplesBelow(rng, 3*fenceTriples+3, 40)
	ts = append(ts, ts[:4]...)
	slices.SortFunc(ts, OrderPOS.compare)
	var tagged bytes.Buffer
	writeCol(&tagged, OrderPOS, len(ts), slices.Values(ts)) //nolint:errcheck // a slice holds its length
	f.Add(tagged.Bytes())
	f.Fuzz(func(t *testing.T, payload []byte) {
		var n int
		if len(payload) >= 4 {
			n = int(binary.LittleEndian.Uint32(payload))
		}
		col, err := openCol(OrderPOS, payload, n, nil)
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		var got []Triple
		fs, err := col.walk(fuzzMaxID, func(tr Triple) { got = append(got, tr) })
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		if len(got) != n {
			t.Fatalf("the walk returned %d triples of %d", len(got), n)
		}
		for _, tr := range got {
			if tr.S-1 >= fuzzMaxID || tr.P-1 >= fuzzMaxID || tr.O-1 >= fuzzMaxID {
				t.Fatalf("the walk returned %v, outside 1..%d", tr, fuzzMaxID)
			}
		}
		col.fences.Store(&fs)
		if scanned := colTriples(col); !slices.Equal(scanned, got) {
			t.Fatal("the cursor scans other triples than the walk")
		}
		for _, tr := range got[:min(len(got), 8)] {
			for k := 0; k <= 3; k++ {
				if lo, hi := col.Range(tr, k); lo < 0 || lo > hi || hi > n {
					t.Fatalf("Range(%v, %d) = [%d, %d) in a column of %d", tr, k, lo, hi, n)
				}
			}
		}
	})
}
