package dict

import (
	"slices"
	"testing"

	"rdfsum/internal/rdf"
)

// TestTableLayers: IDs of a base dictionary and of overlays stacked one
// and two deep index their own layer's slice by their offset in it, so
// equal offsets in different layers are different slots.
func TestTableLayers(t *testing.T) {
	base := New()
	one := Overlay(base)
	two := Overlay(one)
	a := base.Encode(rdf.NewIRI("http://t/a"))
	b := one.Encode(rdf.NewIRI("http://t/b"))
	c := two.Encode(rdf.NewIRI("http://t/c"))
	if layerOf(a) != 0 || layerOf(b) != 1 || layerOf(c) != 2 {
		t.Fatalf("layers %d, %d, %d; want 0, 1, 2", layerOf(a), layerOf(b), layerOf(c))
	}
	var tab Table[string]
	tab.Set(a, "a")
	tab.Set(b, "b")
	tab.Set(c, "c")
	for id, want := range map[ID]string{a: "a", b: "b", c: "c"} {
		if got := tab.Get(id); got != want {
			t.Errorf("Get(%#x) = %q, want %q", uint32(id), got, want)
		}
	}
	// b and c are offset 0 of their layers, a is offset 1 of layer 0.
	if len(tab.layers) != 3 || len(tab.layers[0]) != 2 || len(tab.layers[1]) != 1 || len(tab.layers[2]) != 1 {
		t.Errorf("layer lengths = %v, want [2 1 1]", lens(&tab))
	}
}

// TestTableGrowthAndZeroValues: a write grows only the written layer,
// exactly to the written ID; the slots it skips and every ID past the
// end read as the zero value; Ptr writes through; Grow reserves without
// changing what the table holds.
func TestTableGrowthAndZeroValues(t *testing.T) {
	var tab Table[int32]
	if got := tab.Get(7); got != 0 {
		t.Errorf("empty table: Get(7) = %d", got)
	}
	if got := tab.Get(overlayBit | 3); got != 0 {
		t.Errorf("empty table: Get of an overlay ID = %d", got)
	}
	tab.Set(1000, 5)
	if got := lens(&tab); !slices.Equal(got, []int{1001}) {
		t.Errorf("after Set(1000): layer lengths %v, want [1001]", got)
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
	grown.Grow(overlayBit | 99)
	if got := lens(&grown); !slices.Equal(got, []int{0, 0}) || cap(grown.layers[1]) < 100 {
		t.Errorf("Grow: lengths %v, layer-1 capacity %d; want [0 0] and ≥ 100", got, cap(grown.layers[1]))
	}
	grown.Grow(overlayBit | 10) // smaller: no-op
	p := &grown.layers[1]
	before := cap(*p)
	grown.Set(overlayBit|99, 1)
	if cap(*p) != before {
		t.Error("writing inside the reserved range reallocated the layer")
	}
	if got := grown.Get(overlayBit | 99); got != 1 {
		t.Errorf("Get after Grow + Set = %d, want 1", got)
	}
}

// TestTableAllOrder: All yields every slot — zero ones included — in
// ascending ID order across layers, with addresses that write through,
// and stops when the loop does.
func TestTableAllOrder(t *testing.T) {
	var tab Table[int]
	ids := []ID{overlayBit | overlayBit>>1 | 1, 4, overlayBit | 2, 1}
	for i, id := range ids {
		tab.Set(id, i+1)
	}
	var got []ID
	for id, v := range tab.All() {
		got = append(got, id)
		*v *= 10
	}
	want := []ID{0, 1, 2, 3, 4, overlayBit, overlayBit | 1, overlayBit | 2, overlayBit | overlayBit>>1, overlayBit | overlayBit>>1 | 1}
	if !slices.Equal(got, want) {
		t.Errorf("All visited %#x, want %#x", got, want)
	}
	if !slices.IsSorted(got) {
		t.Error("All is not in ascending ID order")
	}
	for i, id := range ids {
		if v := tab.Get(id); v != (i+1)*10 {
			t.Errorf("Get(%#x) = %d after All wrote through, want %d", uint32(id), v, (i+1)*10)
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

// lens reports the length of each layer's slice.
func lens[T any](t *Table[T]) []int {
	out := make([]int, len(t.layers))
	for i, s := range t.layers {
		out[i] = len(s)
	}
	return out
}
