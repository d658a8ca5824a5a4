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

// untaggedColumn is the column payload every build before the tagged
// steps wrote of ts, sorted in ord: writeCol's framing, each step three
// varints — uvarint Δk1, zigzag-svarint Δk2, zigzag-svarint Δk3.
func untaggedColumn(ord Order, ts []Triple) []byte {
	n := len(ts)
	nBlocks := (n + colBlockTriples - 1) / colBlockTriples
	out := binary.LittleEndian.AppendUint32(nil, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(nBlocks))
	var body []byte
	base := 8 + nBlocks*colSkipEntryBytes
	for b := 0; b < nBlocks; b++ {
		block := ts[b*colBlockTriples : min(n, (b+1)*colBlockTriples)]
		p1, p2, p3 := ord.key(block[0])
		out = binary.LittleEndian.AppendUint32(out, uint32(p1))
		out = binary.LittleEndian.AppendUint32(out, uint32(p2))
		out = binary.LittleEndian.AppendUint32(out, uint32(p3))
		out = binary.LittleEndian.AppendUint64(out, uint64(base+len(body)))
		for _, t := range block[1:] {
			c1, c2, c3 := ord.key(t)
			body = binary.AppendUvarint(body, uint64(c1-p1))
			body = binary.AppendUvarint(body, zigzag(int64(c2)-int64(p2)))
			body = binary.AppendUvarint(body, zigzag(int64(c3)-int64(p3)))
			p1, p2, p3 = c1, c2, c3
		}
	}
	return append(out, body...)
}

// withOSPColumn rebuilds the file a build that kept the OSP order
// (commit 23921e9 and earlier) made of the same graph: data's sections in
// their order, with, right after col-pos, a col-osp section holding
// data's triples in OSP order — each permuted to (O, S, P), sorted, and
// coded as an SPO column, whose keys are then the OSP order's — resealed
// through containerWriter.
func withOSPColumn(t testing.TB, data []byte) []byte {
	t.Helper()
	c, err := parseVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	ts := sectionTriples(t, c, c.secs[secColSPO], OrderSPO)
	for i, tr := range ts {
		ts[i] = Triple{S: tr.O, P: tr.S, O: tr.P}
	}
	slices.SortFunc(ts, OrderSPO.compare)
	var osp bytes.Buffer
	writeCol(&osp, OrderSPO, ts)
	return rebuilt(t, data, func(w *containerWriter, s *section) {
		if s.id == secColOSP {
			t.Fatal("the file already holds a col-osp section")
		}
		w.section(s.id, s.raw)
		if s.id == secColPOS {
			w.section(secColOSP, osp.Bytes())
		}
	})
}

// sectionTriples walks the tagged column section s of c as a column of
// ord and returns its triples in that order.
func sectionTriples(t testing.TB, c *container, s *section, ord Order) []Triple {
	t.Helper()
	n := int(c.nData + c.nTypes + c.nSchema)
	col, err := openCol(ord, s.raw, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]Triple, 0, n)
	if _, err := col.walk(dict.ID(c.nTerms), func(tr Triple) { ts = append(ts, tr) }); err != nil {
		t.Fatal(err)
	}
	return ts
}

// withOldColumns rebuilds the file a build before the tagged column
// steps (commit 736fe37 and earlier) made of the same graph: data's
// sections in their order, with each tagged column section replaced, in
// its place, by its triples as untaggedColumn codes them under that
// build's section ID (7–9), resealed through containerWriter. A col-osp
// section (withOSPColumn) is coded as the SPO column of its permuted
// triples, so it is walked and recoded as one.
func withOldColumns(t testing.TB, data []byte) []byte {
	t.Helper()
	c, err := parseVerified(data)
	if err != nil {
		t.Fatal(err)
	}
	return rebuilt(t, data, func(w *containerWriter, s *section) {
		var ord Order
		var untagged byte
		switch s.id {
		case secColSPO:
			ord, untagged = OrderSPO, secUntagSPO
		case secColPOS:
			ord, untagged = OrderPOS, secUntagPOS
		case secColOSP:
			ord, untagged = OrderSPO, secUntagOSP
		default:
			w.section(s.id, s.raw)
			return
		}
		w.section(untagged, untaggedColumn(ord, sectionTriples(t, c, s, ord)))
	})
}

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
			writeCol(&b, o, ts)
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
// alone); one byte more passes that check and fails on its steps. In the
// untagged coding, three bytes a step, untaggedCol refuses a payload one
// byte short of those as cheaply.
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
	refused := func(name string, open func([]byte) error, short []byte) {
		t.Helper()
		err := open(short)
		if !errors.Is(err, ErrSnapshotCorrupt) || !bytes.Contains([]byte(err.Error()), []byte(fmt.Sprintf("of %d triples in %d bytes", n, len(short)))) {
			t.Fatalf("%s: a payload a byte short of its steps: %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 100 {
			open(short)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 1<<10 {
			t.Errorf("%s: refusing a short payload allocated %d bytes a call, want the error's few", name, per)
		}
	}
	refused("openCol", func(p []byte) error { _, err := openCol(OrderSPO, p, n, nil); return err }, frame(n-nBlocks-1))
	refused("untaggedCol", func(p []byte) error { _, err := untaggedCol(OrderSPO, p, n); return err }, frame(3*(n-nBlocks)-1))
	if _, err := openCol(OrderSPO, frame(n-nBlocks), n, nil); !errors.Is(err, ErrSnapshotCorrupt) ||
		bytes.Contains([]byte(err.Error()), []byte("triples in")) {
		t.Fatalf("a payload of %d cut steps passed the framing check: %v", n-nBlocks, err)
	}
}

// FuzzColumn hands openCol and walk — and, with untagged set,
// untaggedCol, which converts a column in the coding before the tagged
// steps — an arbitrary column payload claiming the triples its header
// claims. Each returns an ErrSnapshotCorrupt error or the claimed number
// of triples, every ID in 1..fuzzMaxID, never a panic; a column the walk
// accepts is then served — scanned by its cursor and searched by Range —
// without one. Seeded with a column of a few fences in both codings —
// small, so that the fuzzer's minimization of an input stays short; run
// with `make fuzz` or:
//
//	go test -fuzz=FuzzColumn -fuzztime=30s -run='^$' ./internal/store
func FuzzColumn(f *testing.F) {
	const fuzzMaxID = 1000
	rng := rand.New(rand.NewPCG(47, 3))
	ts := randTriplesBelow(rng, 3*fenceTriples+3, 40)
	ts = append(ts, ts[:4]...)
	slices.SortFunc(ts, OrderPOS.compare)
	var tagged bytes.Buffer
	writeCol(&tagged, OrderPOS, ts)
	f.Add(tagged.Bytes(), false)
	f.Add(untaggedColumn(OrderPOS, ts), true)
	f.Fuzz(func(t *testing.T, payload []byte, untagged bool) {
		var n int
		if len(payload) >= 4 {
			n = int(binary.LittleEndian.Uint32(payload))
		}
		var col *encCol
		var err error
		if untagged {
			var ts []Triple
			if ts, err = untaggedCol(OrderPOS, payload, n); err == nil {
				if len(ts) != n {
					t.Fatalf("untaggedCol returned %d triples of %d", len(ts), n)
				}
				col = heapCol(OrderPOS, ts)
			}
		} else {
			col, err = openCol(OrderPOS, payload, n, nil)
		}
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
