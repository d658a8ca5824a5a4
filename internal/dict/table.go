package dict

import (
	"iter"
	"slices"
)

// Table maps IDs to values of T the way a map[ID]T would, but stores them
// in dense slices: one per dictionary layer (see Overlay), indexed by the
// ID's offset inside its layer. Dictionary IDs are dense per layer, so a
// table over the IDs of one graph is a few flat arrays, and a lookup or an
// update indexes one of them instead of hashing.
//
// The zero value is an empty table. Writing grows the written ID's layer
// up to that ID; reading an ID past the end yields the zero T. A table
// has no notion of absence beyond the zero value: callers that need one
// pick a T whose zero value means "absent". Its memory is one T per ID of
// each layer up to the highest ID written there — O(dictionary), whatever
// the share of IDs that hold a value.
type Table[T any] struct {
	layers [][]T
}

// layerPrefix is the ID bits that mark layer l: its l leading ones.
func layerPrefix(l int) ID { return ^ID(0) << (32 - l) }

// slot splits id into its layer and its offset inside that layer.
func slot(id ID) (layer, offset int) {
	if id < overlayBit {
		return 0, int(id)
	}
	l := layerOf(id)
	return l, int(id &^ layerPrefix(l))
}

// Get returns the value stored under id, or the zero T.
func (t *Table[T]) Get(id ID) T {
	l, i := slot(id)
	if l < len(t.layers) && i < len(t.layers[l]) {
		return t.layers[l][i]
	}
	var zero T
	return zero
}

// Ptr returns the address of id's slot, growing the table to hold it. The
// address is valid until the next write that grows the same layer.
func (t *Table[T]) Ptr(id ID) *T {
	l, i := slot(id)
	if l >= len(t.layers) {
		t.layers = append(t.layers, make([][]T, l+1-len(t.layers))...)
	}
	s := t.layers[l]
	if i >= len(s) {
		s = append(s, make([]T, i+1-len(s))...)
		t.layers[l] = s
	}
	return &s[i]
}

// Set stores v under id.
func (t *Table[T]) Set(id ID, v T) { *t.Ptr(id) = v }

// Grow reserves room for every ID of max's layer up to max, so that
// writing them allocates nothing. Presizing a table with a dictionary's
// MaxID makes one allocation where growth by writes would make dozens.
func (t *Table[T]) Grow(max ID) {
	l, i := slot(max)
	if l >= len(t.layers) {
		t.layers = append(t.layers, make([][]T, l+1-len(t.layers))...)
	}
	if n := i + 1 - len(t.layers[l]); n > 0 {
		t.layers[l] = slices.Grow(t.layers[l], n)
	}
}

// All yields every slot the table holds, zero or not, with its address, in
// ascending ID order: layer 0 first, then each overlay layer.
func (t *Table[T]) All() iter.Seq2[ID, *T] {
	return func(yield func(ID, *T) bool) {
		for l, s := range t.layers {
			prefix := layerPrefix(l)
			for i := range s {
				if !yield(prefix|ID(i), &s[i]) {
					return
				}
			}
		}
	}
}
