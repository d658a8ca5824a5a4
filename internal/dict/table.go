package dict

import (
	"iter"
	"slices"
)

// Table maps IDs to values of T the way a map[ID]T would, but stores them
// in one dense slice indexed by ID. Dictionary IDs are dense (1..Len), so
// a table over the IDs of one graph is a flat array, and a lookup or an
// update indexes it instead of hashing.
//
// The zero value is an empty table. Writing grows the table up to the
// written ID; reading an ID past the end yields the zero T. A table has
// no notion of absence beyond the zero value: callers that need one pick
// a T whose zero value means "absent". Its memory is one T per ID up to
// the highest ID written — O(dictionary), whatever the share of IDs that
// hold a value.
type Table[T any] struct {
	s []T
}

// Get returns the value stored under id, or the zero T.
func (t *Table[T]) Get(id ID) T {
	if int(id) < len(t.s) {
		return t.s[id]
	}
	var zero T
	return zero
}

// Ptr returns the address of id's slot, growing the table to hold it. The
// address is valid until the next write that grows the table. Growth
// inside the capacity Grow reserved allocates nothing, in every build
// mode (an append of a made slice allocates it under -race).
func (t *Table[T]) Ptr(id ID) *T {
	if i := int(id); i >= len(t.s) {
		n := len(t.s)
		t.s = slices.Grow(t.s, i+1-n)[:i+1]
		clear(t.s[n:])
	}
	return &t.s[id]
}

// Set stores v under id.
func (t *Table[T]) Set(id ID, v T) { *t.Ptr(id) = v }

// Grow reserves room for every ID up to max, so that writing them
// allocates nothing. Presizing a table with a dictionary's Len makes one
// allocation where growth by writes would make dozens.
func (t *Table[T]) Grow(max ID) {
	if n := int(max) + 1 - len(t.s); n > 0 {
		t.s = slices.Grow(t.s, n)
	}
}

// All yields every slot the table holds, zero or not, with its address, in
// ascending ID order.
func (t *Table[T]) All() iter.Seq2[ID, *T] {
	return func(yield func(ID, *T) bool) {
		for i := range t.s {
			if !yield(ID(i), &t.s[i]) {
				return
			}
		}
	}
}
