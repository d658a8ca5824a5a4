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
// (WithBase) finds the base's terms through the same table, filled when
// it is built by one checked pass over the base's pages.
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
	mu       *sync.RWMutex // nil until Share; guards recs, index and keyBytes when set
	base     *Mapped       // optional read-only layer holding IDs 1..baseLen
	recs     []rec         // recs[i] is the term with ID baseLen+i+1
	index    termIndex     // every ID: the base's and recs'
	keyBytes int           // total len of the recs' keys
}

// New returns an empty dictionary.
func New() *Dict { return &Dict{} }

// WithBase returns a dictionary layered over a mapped read-only base:
// IDs 1..base.Len() resolve through the base (zero-copy, decoded on
// demand), and newly interned terms get IDs from base.Len()+1 up. It
// enters the base's IDs into the index now, in one sequential walk over
// the base's pages that hashes each term as Encode would, and fails on
// pages the walk cannot decode, on a directory entry that is not where
// its block begins, and on a term the base holds twice.
func WithBase(m *Mapped) (*Dict, error) {
	d := &Dict{base: m}
	d.index.reserve(m.n)
	c := cursor{walker: walker{m: m}} // at offset 0, not where the directory says: the walk checks it
	for c.i < m.n {
		if b := c.i / BlockTerms; c.i%BlockTerms == 0 && m.blockStart(b) != c.pos {
			return nil, fmt.Errorf("dict: directory places block %d at offset %d, its terms begin at %d", b, m.blockStart(b), c.pos)
		}
		t := c.next()
		if c.err != nil {
			return nil, c.err
		}
		h := termHash(t)
		if id, dup := d.find(t, h); dup {
			return nil, fmt.Errorf("dict: terms %d and %d are both %v", id, c.i, t)
		}
		d.index.insert(h, ID(c.i))
	}
	if c.pos != len(m.pages) {
		return nil, fmt.Errorf("dict: %d bytes after the last term's", len(m.pages)-c.pos)
	}
	return d, nil
}

// Base returns the mapped layer d was built over (WithBase), or nil.
func (d *Dict) Base() *Mapped { return d.base }

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
	if id, ok := d.find(t, h); ok {
		return id
	}
	id := ID(d.baseLen() + len(d.recs) + 1)
	if id == None {
		panic("dict: dictionary is full (2^32-1 terms)")
	}
	r := newRec(t)
	d.recs = append(d.recs, r)
	d.keyBytes += len(r.key)
	d.index.insert(h, id)
	return id
}

// find returns the ID of t, whose key hashes to h, if d holds it: the
// index's candidates with h's tag, each verified against its term.
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

// holds reports whether id, an ID d issued, names t.
func (d *Dict) holds(id ID, t rdf.Term) bool {
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
	if d.mu != nil {
		d.mu.RLock()
	}
	id, ok := d.find(t, h)
	if d.mu != nil {
		d.mu.RUnlock()
	}
	return id, ok
}

// LookupIRI returns the ID of an IRI without interning it.
func (d *Dict) LookupIRI(iri string) (ID, bool) { return d.Lookup(rdf.NewIRI(iri)) }

// Term returns the term interned under id. It panics on an unknown or zero
// id — callers only hold IDs this dictionary issued.
func (d *Dict) Term(id ID) rdf.Term {
	bl := d.baseLen()
	if id != None && int(id) <= bl {
		return d.base.Term(id) // immutable: no lock
	}
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if id == None || int(id) > bl+len(d.recs) {
		panic(fmt.Sprintf("dict: unknown id %d (dictionary holds %d terms)", id, bl+len(d.recs)))
	}
	return d.recs[int(id)-bl-1].term()
}

// Len reports the number of terms the dictionary holds; its IDs are
// 1..Len.
func (d *Dict) Len() int {
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	return d.baseLen() + len(d.recs)
}

// MemoryBytes is the heap the dictionary holds, computed from its
// lengths: key bytes + 24-byte records + the index's 8-byte slots, which
// include a mapped base's IDs. The base's pages are file-backed and not
// counted.
func (d *Dict) MemoryBytes() int64 {
	if d.mu != nil {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	return int64(d.keyBytes) + int64(cap(d.recs))*recBytes + d.index.bytes()
}
