// Package dict implements the term dictionary: a bijection between RDF
// terms and dense uint32 identifiers.
//
// The paper's implementation (§6) stores a dictionary table in PostgreSQL
// and "subsequently works only with the integer representation of the input
// RDF graph"; this package is the in-process equivalent. IDs start at 1 so
// that the zero ID can mean "absent".
//
// A term is held once, as one key string (see key.go): a 24-byte record
// per term points at it, Term rebuilds the rdf.Term as substrings of the
// key, and the term → ID direction is an open-addressed table of 8-byte
// slots holding IDs, not keys. A dictionary layered over a mapped base
// (WithBase) finds the base's terms through the same table, filled by one
// sequential pass over the base's pages on the first probe.
//
// An overlay (see Overlay) extends a dictionary without writing to it:
// the terms it adds get IDs from a range the extended dictionary never
// issues, so both share one ID space.
package dict

import (
	"fmt"
	"sync"
	"sync/atomic"

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
	mu          *sync.RWMutex // nil until Share; guards recs, index and keyBytes when set
	base        *Mapped       // optional read-only layer holding IDs 1..baseLen
	baseIndexed atomic.Bool   // the base's IDs are in index
	recs        []rec         // recs[i] is the term with ID baseLen+i+1 (overlay: prefix|i)
	index       termIndex     // every ID of this layer: recs', and the base's once baseIndexed
	keyBytes    int           // total len of the recs' keys

	// Overlays only (see overlay.go): the dictionary this one extends,
	// its layer number (under's + 1) and the layer's ID prefix.
	under  *Dict
	layer  int
	prefix ID
}

// New returns an empty dictionary.
func New() *Dict { return &Dict{} }

// WithBase returns a dictionary layered over a mapped read-only base:
// IDs 1..base.Len() resolve through the base (zero-copy, decoded on
// demand), and newly interned terms get IDs from base.Len()+1 up. The
// first Encode or Lookup enters the base's IDs into the index, reading
// the base's pages once; until then the base costs no heap.
func WithBase(m *Mapped) *Dict { return &Dict{base: m} }

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
	h := termHash(t)
	if d.mu != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	d.indexBase(false) //nolint:errcheck // fails only when asked to check
	if id, ok := d.find(t, h); ok {
		return id
	}
	var id ID
	if d.under != nil {
		if id, ok := d.under.lookup(t, h); ok {
			return id
		}
		id = d.nextOverlayID()
	} else {
		id = ID(d.baseLen() + len(d.recs) + 1)
		if id >= overlayBit {
			panic("dict: dictionary is full (IDs from 2^31 up belong to overlays)")
		}
	}
	r := newRec(t)
	d.recs = append(d.recs, r)
	d.keyBytes += len(r.key)
	d.index.insert(h, id)
	return id
}

// indexBase enters the mapped base's IDs into the index if they are not
// there yet: one sequential walk over the base's pages, hashing each term
// as Encode would. With unique set it also probes for each term before
// entering it, and fails on one the base already holds under a lower ID.
// The caller holds the write lock.
func (d *Dict) indexBase(unique bool) error {
	if d.base == nil || d.baseIndexed.Load() {
		return nil
	}
	m := d.base
	d.index.reserve(m.Len() + len(d.recs))
	m.touch()
	var value []byte
	for c := m.cursorAt(0); c.i < m.n; {
		value = c.next(value)
		t := c.term(value)
		h := termHash(t)
		if unique {
			if id, dup := d.find(t, h); dup {
				return fmt.Errorf("dict: terms %d and %d are both %v", id, c.i, t)
			}
		}
		d.index.insert(h, ID(c.i))
	}
	d.baseIndexed.Store(true)
	return nil
}

// IndexBase enters the mapped base's IDs into the index now, not at the
// first probe, and fails if two of them name one term: the check a base
// read off the network gets. After a failure d must not be used.
func (d *Dict) IndexBase() error {
	if d.mu != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	return d.indexBase(true)
}

// find returns the ID of t, whose key hashes to h, if d's own layer holds
// it: the index's candidates with h's tag, each verified against its term.
func (d *Dict) find(t rdf.Term, h uint64) (ID, bool) {
	slots := d.index.slots
	if len(slots) == 0 {
		return None, false
	}
	mask := uint32(len(slots) - 1)
	tag := uint32(h)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := slots[i]
		if s == 0 {
			return None, false
		}
		if uint32(s>>32) == tag && d.holds(ID(s), t) {
			return ID(s), true
		}
	}
}

// holds reports whether id, an ID of d's own layer, names t.
func (d *Dict) holds(id ID, t rdf.Term) bool {
	if d.under != nil {
		return d.recs[id&^d.prefix].term() == t
	}
	bl := d.baseLen()
	if int(id) <= bl {
		return d.base.holds(id, t)
	}
	return d.recs[int(id)-bl-1].term() == t
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
func (d *Dict) Lookup(t rdf.Term) (ID, bool) { return d.lookup(t, termHash(t)) }

// lookup is Lookup of t, whose key hashes to h.
func (d *Dict) lookup(t rdf.Term, h uint64) (ID, bool) {
	if d.base != nil && !d.baseIndexed.Load() {
		// Filling the index writes it: the first lookup takes the write lock.
		if d.mu != nil {
			d.mu.Lock()
		}
		d.indexBase(false) //nolint:errcheck // fails only when asked to check
		if d.mu != nil {
			d.mu.Unlock()
		}
	}
	if d.mu != nil {
		d.mu.RLock()
	}
	id, ok := d.find(t, h)
	if d.mu != nil {
		d.mu.RUnlock()
	}
	if !ok && d.under != nil {
		return d.under.lookup(t, h)
	}
	return id, ok
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
	bl := d.baseLen()
	if id != None && int(id) <= bl {
		return d.base.Term(id) // immutable: no lock
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
// its lengths: key bytes + 24-byte records + the index's 8-byte slots,
// which include a mapped base's IDs once a probe has entered them. The
// base's pages are file-backed and an overlay's base is another
// dictionary's: neither is counted.
func (d *Dict) MemoryBytes() int64 {
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	return int64(d.keyBytes) + int64(cap(d.recs))*recBytes + d.index.bytes()
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
