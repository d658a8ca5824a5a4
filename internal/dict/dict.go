// Package dict implements the term dictionary: a bijection between RDF
// terms and dense uint32 identifiers.
//
// The paper's implementation (§6) stores a dictionary table in PostgreSQL
// and "subsequently works only with the integer representation of the input
// RDF graph"; this package is the in-process equivalent. IDs start at 1 so
// that the zero ID can mean "absent".
//
// A term is held once, as one key string (see key.go): the index maps
// the key to the ID, a 24-byte record per term points back at it, and Term
// rebuilds the rdf.Term as substrings of the key. That is half the heap a
// map keyed by the three-string rdf.Term struct beside a slice of such
// structs took (131 B a term against 260 on BSBM's terms), and a probe
// hashes one string.
//
// An overlay (see Overlay) extends a dictionary without writing to it:
// the terms it adds get IDs from a range the extended dictionary never
// issues, so both share one ID space.
package dict

import (
	"fmt"
	"sync"

	"rdfsum/internal/rdf"
)

// ID identifies an interned term. The zero ID is never assigned.
type ID uint32

// None is the reserved "no term" identifier.
const None ID = 0

// Dict interns rdf.Terms, assigning each distinct term a dense ID.
// The zero value is not usable; call New.
//
// A Dict is single-goroutine by default — the loaders and summarizers own
// theirs exclusively and pay no synchronization. Share switches one
// dictionary into shared mode, where every method takes an internal
// read-write lock; the live subsystem uses this so snapshot readers can
// decode and look up terms while the single writer interns new ones.
type Dict struct {
	mu    *sync.RWMutex // nil until Share; guards recs and index when set
	base  *Mapped       // optional read-only layer holding IDs 1..baseLen
	recs  []rec         // recs[i] is the term with ID baseLen+i+1 (overlay: prefix|i)
	index termIndex     // term → ID: every term of recs, and memoized base hits

	// Overlays only (see overlay.go): the dictionary this one extends,
	// its layer number (under's + 1) and the layer's ID prefix.
	under  *Dict
	layer  int
	prefix ID
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{index: newTermIndex()}
}

// WithBase returns a dictionary layered over a mapped read-only base:
// IDs 1..base.Len() resolve through the base (zero-copy, decoded on
// demand), and newly interned terms get IDs from base.Len()+1 up. Base
// hits found via Encode are memoized into the in-memory index so each
// binary search over the mapped pages is paid at most once per term.
func WithBase(m *Mapped) *Dict {
	return &Dict{base: m, index: newTermIndex()}
}

// WithCapacity returns an empty dictionary with room for n terms' records.
func WithCapacity(n int) *Dict {
	return &Dict{recs: make([]rec, 0, n), index: newTermIndex()}
}

// Share switches d into shared mode: from now on every method is safe for
// concurrent use by multiple goroutines. The switch itself must happen
// before the dictionary is shared (it is not itself synchronized), and
// cannot be undone.
func (d *Dict) Share() {
	if d.mu == nil {
		d.mu = new(sync.RWMutex)
	}
}

// Encode interns t and returns its ID, assigning a fresh one on first
// sight. The dictionary keeps its own copy of a new term's bytes (its
// key), so t may alias a buffer the caller goes on to drop.
func (d *Dict) Encode(t rdf.Term) ID {
	if d.mu != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	if id, ok := d.index.get(t); ok {
		return ID(id)
	}
	if d.under != nil {
		return d.internOverlay(t)
	}
	if d.base != nil {
		if id, ok := d.base.Lookup(t); ok {
			d.index.put(t, uint32(id))
			return id
		}
	}
	id := ID(d.baseLen() + len(d.recs) + 1)
	if id >= overlayBit {
		panic("dict: dictionary is full (IDs from 2^31 up belong to overlays)")
	}
	d.recs = append(d.recs, d.index.put(t, uint32(id)))
	return id
}

// baseLen returns the number of IDs owned by the mapped base layer.
func (d *Dict) baseLen() int {
	if d.base == nil {
		return 0
	}
	return d.base.Len()
}

// EncodeIRI interns an IRI given as a string.
func (d *Dict) EncodeIRI(iri string) ID { return d.Encode(rdf.NewIRI(iri)) }

// Lookup returns the ID of t without interning it.
func (d *Dict) Lookup(t rdf.Term) (ID, bool) {
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if id, ok := d.index.get(t); ok {
		return ID(id), true
	}
	if d.under != nil {
		return d.under.Lookup(t)
	}
	if d.base != nil {
		// No memoization here: Lookup holds only the read lock.
		return d.base.Lookup(t)
	}
	return None, false
}

// LookupIRI returns the ID of an IRI without interning it.
func (d *Dict) LookupIRI(iri string) (ID, bool) { return d.Lookup(rdf.NewIRI(iri)) }

// Term returns the term interned under id. It panics on an unknown or zero
// id — callers only hold IDs this dictionary (or, for an overlay, one of
// the dictionaries under it) issued.
func (d *Dict) Term(id ID) rdf.Term {
	if l := layerOf(id); l != d.layer {
		if l > d.layer {
			panic(fmt.Sprintf("dict: id %#x was issued by an overlay (layer %d) but asked of %s", uint32(id), l, d.layerName()))
		}
		return d.under.Term(id)
	}
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if d.under != nil {
		i := int(id &^ d.prefix)
		if i >= len(d.recs) {
			panic(fmt.Sprintf("dict: unknown id %#x (%s holds %d terms of its own)", uint32(id), d.layerName(), len(d.recs)))
		}
		return d.recs[i].term()
	}
	bl := d.baseLen()
	if int(id) <= bl {
		if id == None {
			panic("dict: unknown id 0")
		}
		return d.base.Term(id)
	}
	if id == None || int(id) > bl+len(d.recs) {
		panic(fmt.Sprintf("dict: unknown id %d (dictionary holds %d terms)", id, bl+len(d.recs)))
	}
	return d.recs[int(id)-bl-1].term()
}

// Len reports the number of terms the dictionary resolves: for an overlay,
// its own plus those of the dictionary under it.
func (d *Dict) Len() int {
	under := 0
	if d.under != nil {
		under = d.under.Len()
	}
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	return under + d.baseLen() + len(d.recs)
}

// MemoryBytes is the heap the dictionary's own layer holds, computed from
// its lengths: key bytes + 24-byte records + map slots (an estimate; see
// slotBytes). A mapped base is file-backed and an overlay's base is
// another dictionary's: neither is counted.
func (d *Dict) MemoryBytes() int64 {
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	return d.index.memoryBytes(d.recs)
}

// MaxID returns the highest assigned ID. It equals Len for every
// dictionary but an overlay, whose IDs are dense per layer only: with
// terms of its own its MaxID is at least 2^31, whatever Len says.
func (d *Dict) MaxID() ID {
	if d.under == nil {
		return ID(d.Len())
	}
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if n := len(d.recs); n > 0 {
		return d.prefix | ID(n-1)
	}
	return d.under.MaxID()
}
