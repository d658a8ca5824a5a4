package dict

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"

	"rdfsum/internal/rdf"
)

// Sharded is a concurrent term interner for the parallel loading pipeline.
//
// Workers call Observe from many goroutines; terms are lock-striped over
// shards keyed by a hash of the term, so contention stays low. Each
// observation carries an occurrence key (any number that grows with the
// term's position in the input: 4·line + role for N-Triples, the slab
// index over a count of the slab's observations for Turtle), and each
// shard keeps the minimum key seen per term.
// Finalize then renumbers every term into the dense 1..MaxID space in
// ascending first-occurrence order — exactly the IDs a sequential
// encode-in-file-order pass would have assigned — so all downstream code
// (including the 3·ID element trick of the parallel weak summarizer) sees
// the dictionary it expects, bit-identical to a sequential load.
type Sharded struct {
	shards [numShards]shard
	seed   maphash.Seed
}

const (
	shardBits = 8
	numShards = 1 << shardBits
	// localBits is what remains of a ProvID after the shard tag.
	localBits = 32 - shardBits
	maxLocal  = 1 << localBits
)

type shard struct {
	mu    sync.Mutex
	index termIndex // term → position in recs
	recs  []rec
	first []uint64 // first[i] = min occurrence key of recs[i]
}

// ProvID is a provisional identifier issued by Observe: the shard number
// in the low bits and the shard-local index in the high bits. It is only
// meaningful to the Sharded that issued it, until Finalize maps it to a
// dense ID.
type ProvID uint32

func provOf(shardIdx, local int) ProvID {
	return ProvID(uint32(local)<<shardBits | uint32(shardIdx))
}

func (p ProvID) split() (shardIdx, local int) {
	return int(p & (numShards - 1)), int(p >> shardBits)
}

// NewSharded returns an empty concurrent interner.
func NewSharded() *Sharded {
	s := &Sharded{seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].index = newTermIndex()
	}
	return s
}

func (s *Sharded) shardOf(t rdf.Term) int {
	var h maphash.Hash
	h.SetSeed(s.seed)
	h.WriteByte(byte(t.Kind)) //nolint:errcheck // never fails
	h.WriteString(t.Value)    //nolint:errcheck
	h.WriteByte(0)            //nolint:errcheck
	h.WriteString(t.Datatype) //nolint:errcheck
	h.WriteByte(0)            //nolint:errcheck
	h.WriteString(t.Lang)     //nolint:errcheck
	return int(h.Sum64() & (numShards - 1))
}

// Observe interns t under a provisional ID and records key as an
// occurrence position, keeping the minimum per term. A term seen for the
// first time is copied (see termIndex.put), so t may alias a parse buffer. Safe
// for concurrent use.
func (s *Sharded) Observe(t rdf.Term, key uint64) ProvID {
	idx := s.shardOf(t)
	sh := &s.shards[idx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if local, ok := sh.index.get(t); ok {
		if key < sh.first[local] {
			sh.first[local] = key
		}
		return provOf(idx, int(local))
	}
	local := len(sh.recs)
	if local >= maxLocal {
		// ~16M terms hashed into one of 256 shards means a dictionary in
		// the billions — past the library's 700M-term design point.
		panic(fmt.Sprintf("dict: shard %d overflow (%d terms)", idx, local))
	}
	sh.recs = append(sh.recs, sh.index.put(t, uint32(local)))
	sh.first = append(sh.first, key)
	return provOf(idx, local)
}

// Len reports the number of distinct terms observed so far. It must not
// race with Observe.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].recs)
	}
	return n
}

// Finalize renumbers every observed term into base in ascending
// first-occurrence order. Terms already present in base (the pre-interned
// vocabulary) keep their existing IDs. It returns the remap table:
// remap[shard][local] is the dense ID of the term Observe issued that
// provisional position to — use Remap (or index it directly) to translate
// provisional triples.
//
// Finalize must happen after all Observe calls (callers synchronize, e.g.
// with a WaitGroup); the returned table is read-only and safe to share.
func (s *Sharded) Finalize(base *Dict) [][]ID {
	type entry struct {
		key  uint64
		prov ProvID
	}
	total := 0
	for i := range s.shards {
		total += len(s.shards[i].recs)
	}
	entries := make([]entry, 0, total)
	remap := make([][]ID, numShards)
	for i := range s.shards {
		sh := &s.shards[i]
		remap[i] = make([]ID, len(sh.recs))
		for local, key := range sh.first {
			entries = append(entries, entry{key: key, prov: provOf(i, local)})
		}
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	for _, e := range entries {
		shardIdx, local := e.prov.split()
		remap[shardIdx][local] = base.Encode(s.shards[shardIdx].recs[local].term())
	}
	return remap
}

// Remap translates a provisional ID through a table returned by Finalize.
func Remap(table [][]ID, p ProvID) ID {
	shardIdx, local := p.split()
	return table[shardIdx][local]
}
