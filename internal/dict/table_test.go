package dict

import (
	"slices"
	"testing"
)

// TestTableGrowthAndZeroValues: a write grows the table exactly to the
// written ID; the slots it skips and every ID past the end read as the
// zero value; Ptr writes through; Grow reserves without changing what the
// table holds.
func TestTableGrowthAndZeroValues(t *testing.T) {
	var tab Table[int32]
	if got := tab.Get(7); got != 0 {
		t.Errorf("empty table: Get(7) = %d", got)
	}
	if got := tab.Get(1 << 31); got != 0 {
		t.Errorf("empty table: Get(1<<31) = %d", got)
	}
	tab.Set(1000, 5)
	if len(tab.s) != 1001 {
		t.Errorf("after Set(1000): length %d, want 1001", len(tab.s))
	}
	for _, id := range []ID{0, 1, 999, 1001, 1 << 20} {
		if got := tab.Get(id); got != 0 {
			t.Errorf("Get(%d) = %d, want 0", id, got)
		}
	}
	*tab.Ptr(1000) += 2
	*tab.Ptr(3) = 9
	if tab.Get(1000) != 7 || tab.Get(3) != 9 {
		t.Errorf("Ptr writes: Get(1000) = %d, Get(3) = %d; want 7, 9", tab.Get(1000), tab.Get(3))
	}

	var grown Table[int32]
	grown.Grow(99)
	if len(grown.s) != 0 || cap(grown.s) < 100 {
		t.Errorf("Grow: length %d, capacity %d; want 0 and ≥ 100", len(grown.s), cap(grown.s))
	}
	grown.Grow(10) // smaller: no-op
	before := cap(grown.s)
	grown.Set(99, 1)
	if cap(grown.s) != before {
		t.Error("writing inside the reserved range reallocated the table")
	}
	if got := grown.Get(99); got != 1 {
		t.Errorf("Get after Grow + Set = %d, want 1", got)
	}
}

// TestTableAllOrder: All yields every slot — zero ones included — in
// ascending ID order, with addresses that write through, and stops when
// the loop does.
func TestTableAllOrder(t *testing.T) {
	var tab Table[int]
	ids := []ID{9, 4, 6, 1}
	for i, id := range ids {
		tab.Set(id, i+1)
	}
	var got []ID
	for id, v := range tab.All() {
		got = append(got, id)
		*v *= 10
	}
	want := []ID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !slices.Equal(got, want) {
		t.Errorf("All visited %v, want %v", got, want)
	}
	for i, id := range ids {
		if v := tab.Get(id); v != (i+1)*10 {
			t.Errorf("Get(%d) = %d after All wrote through, want %d", id, v, (i+1)*10)
		}
	}
	n := 0
	for range tab.All() {
		if n++; n == 3 {
			break
		}
	}
	if n != 3 {
		t.Errorf("break after 3 slots: visited %d", n)
	}
}
