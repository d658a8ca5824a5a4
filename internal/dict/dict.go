// Package dict implements the term dictionary: a bijection between RDF
// terms and dense uint32 identifiers.
//
// The paper's implementation (§6) stores a dictionary table in PostgreSQL
// and "subsequently works only with the integer representation of the input
// RDF graph"; this package is the in-process equivalent. IDs start at 1 so
// that the zero ID can mean "absent".
//
// An overlay (see Overlay) extends a dictionary without writing to it:
// the terms it adds get IDs from a range the extended dictionary never
// issues, so both share one ID space.
package dict

import (
	"fmt"
	"strings"
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
	mu    *sync.RWMutex // nil until Share; guards terms and index when set
	base  *Mapped       // optional read-only layer holding IDs 1..baseLen
	terms []rdf.Term    // terms[i] is the term with ID baseLen+i+1 (overlay: prefix|i)
	index map[rdf.Term]ID

	// Overlays only (see overlay.go): the dictionary this one extends,
	// its layer number (under's + 1) and the layer's ID prefix.
	under  *Dict
	layer  int
	prefix ID
}

// New returns an empty dictionary.
func New() *Dict {
	return &Dict{index: make(map[rdf.Term]ID)}
}

// WithBase returns a dictionary layered over a mapped read-only base:
// IDs 1..base.Len() resolve through the base (zero-copy, decoded on
// demand), and newly interned terms get IDs from base.Len()+1 up. Base
// hits found via Encode are memoized into the in-memory index so each
// binary search over the mapped pages is paid at most once per term.
func WithBase(m *Mapped) *Dict {
	return &Dict{base: m, index: make(map[rdf.Term]ID)}
}

// WithCapacity returns an empty dictionary pre-sized for n terms.
func WithCapacity(n int) *Dict {
	return &Dict{
		terms: make([]rdf.Term, 0, n),
		index: make(map[rdf.Term]ID, n),
	}
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

// own returns t with its strings copied out of whatever buffer they
// alias. The parsers hand out terms that are substrings of an input line
// or slab; a dictionary that stored such a term would pin the whole
// buffer for its own lifetime (~150 bytes of line per 60-byte term).
// Interning pays this once per distinct term, on the miss path only.
func own(t rdf.Term) rdf.Term {
	t.Value = strings.Clone(t.Value)
	t.Datatype = strings.Clone(t.Datatype)
	t.Lang = strings.Clone(t.Lang)
	return t
}

// Encode interns t and returns its ID, assigning a fresh one on first
// sight. The dictionary keeps its own copy of a new term's strings, so t
// may alias a buffer the caller goes on to drop.
func (d *Dict) Encode(t rdf.Term) ID {
	if d.mu != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	if id, ok := d.index[t]; ok {
		return id
	}
	if d.under != nil {
		return d.internOverlay(t)
	}
	t = own(t)
	if d.base != nil {
		if id, ok := d.base.Lookup(t); ok {
			d.index[t] = id
			return id
		}
	}
	id := ID(d.baseLen() + len(d.terms) + 1)
	if id >= overlayBit {
		panic("dict: dictionary is full (IDs from 2^31 up belong to overlays)")
	}
	d.terms = append(d.terms, t)
	d.index[t] = id
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
	if id, ok := d.index[t]; ok {
		return id, true
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
		if i >= len(d.terms) {
			panic(fmt.Sprintf("dict: unknown id %#x (%s holds %d terms of its own)", uint32(id), d.layerName(), len(d.terms)))
		}
		return d.terms[i]
	}
	bl := d.baseLen()
	if int(id) <= bl {
		if id == None {
			panic("dict: unknown id 0")
		}
		return d.base.Term(id)
	}
	if id == None || int(id) > bl+len(d.terms) {
		panic(fmt.Sprintf("dict: unknown id %d (dictionary holds %d terms)", id, bl+len(d.terms)))
	}
	return d.terms[int(id)-bl-1]
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
	return under + d.baseLen() + len(d.terms)
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
	if n := len(d.terms); n > 0 {
		return d.prefix | ID(n-1)
	}
	return d.under.MaxID()
}
