package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"

	"rdfsum"
	"rdfsum/internal/bsbm"
	"rdfsum/internal/lubm"
)

// poolQuery is one distinct query text of a workload's read mix.
type poolQuery struct {
	template string // "star", "typed", "empty", "join", "scan"
	text     string
}

// inputs is everything phase 0 generates from --seed; the server only
// ever sees these (the dump on disk, query texts and batch bodies over
// HTTP), never the seed.
type inputs struct {
	base      []rdfsum.Triple
	dumpPath  string
	dumpBytes int64

	pool  []poolQuery
	order []int // the fixed query sequence: indexes into pool, cycled

	// Write batches, in the order the scenario sends them: the write
	// window's adds first, then cycleRepeats×cycleAdds more for the
	// compaction cycles. Bodies are pre-rendered N-Triples, so client-side
	// serialization is not part of any ack latency.
	batches [][]rdfsum.Triple
	bodies  [][]byte

	hash string // sha256 over dump, pool, order and bodies
}

const (
	rdfType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	rdfsNS  = "http://www.w3.org/2000/01/rdf-schema#"
)

func isSchemaPredicate(iri string) bool {
	switch iri {
	case rdfsNS + "subClassOf", rdfsNS + "subPropertyOf", rdfsNS + "domain", rdfsNS + "range":
		return true
	}
	return false
}

func generateDataset(w *workload, seed uint64) []rdfsum.Triple {
	if w.dataset == "lubm" {
		cfg := lubm.DefaultConfig(w.scale)
		cfg.Seed = seed
		return lubm.GenerateTriples(cfg)
	}
	cfg := bsbm.DefaultConfig(w.scale)
	cfg.Seed = seed
	return bsbm.GenerateTriples(cfg)
}

// generateInputs is phase 0: dataset dump, query pool and sequence, and
// nBatches write batches of w.addSize triples. The same (w, seed,
// nBatches) gives byte-identical outputs; in.hash witnesses that.
func generateInputs(w *workload, seed uint64, nBatches int, dir string) (*inputs, error) {
	in := &inputs{base: generateDataset(w, seed), dumpPath: filepath.Join(dir, w.dumpName)}
	h := sha256.New()
	if err := writeDump(in.dumpPath, in.base, h); err != nil {
		return nil, err
	}
	st, err := os.Stat(in.dumpPath)
	if err != nil {
		return nil, err
	}
	in.dumpBytes = st.Size()

	rng := rand.New(rand.NewPCG(seed, 0xbe7c4))
	in.pool = queryPool(w, in.base, rng)
	// The sequence is a few shuffled passes over the pool: every seed
	// sends the same mix in another order. (Drawing with replacement would
	// make the share of each of a small pool's queries depend on the seed.)
	for pass := 0; pass < 4; pass++ {
		in.order = append(in.order, rng.Perm(len(in.pool))...)
	}
	for _, q := range in.pool {
		io.WriteString(h, q.text)
	}
	fmt.Fprint(h, in.order)

	in.batches = cloneBatches(in.base, rng, nBatches, w.addSize)
	in.bodies = make([][]byte, len(in.batches))
	for i, b := range in.batches {
		var buf bytes.Buffer
		if err := rdfsum.WriteNTriples(&buf, b); err != nil {
			return nil, err
		}
		in.bodies[i] = buf.Bytes()
		h.Write(in.bodies[i])
	}
	in.hash = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// writeDump serializes the dataset the way the file name says: plain
// N-Triples, or Turtle behind gzip. The bytes written also go to h.
func writeDump(path string, triples []rdfsum.Triple, h io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	if strings.HasSuffix(path, ".ttl.gz") {
		zw, _ := gzip.NewWriterLevel(bw, gzip.BestSpeed) // the level is a valid constant
		if err = rdfsum.WriteTurtle(zw, triples); err == nil {
			err = zw.Close()
		}
	} else {
		err = rdfsum.WriteNTriples(bw, triples)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// cloneBatches builds n write batches of size triples each. A batch is
// a contiguous slice of the instance data with every subject it defines
// renamed to a fresh IRI (and references to those subjects inside the
// slice renamed with them). The new triples look exactly like the
// dataset's own — same property sets, same types — but every one has a
// subject no base triple and no other batch has: adds never duplicate,
// a delete of the batch removes exactly what it added, and the entities
// the read mix probes gain no outgoing triples. The slices start at
// evenly spaced offsets, rotated by the seed and visited in a seeded
// order: every seed writes an even sample of the whole dataset, so the
// final state has the same make-up — and summarizing it costs the same
// — whatever the seed.
func cloneBatches(base []rdfsum.Triple, rng *rand.Rand, n, size int) [][]rdfsum.Triple {
	data := base[:0:0]
	for _, t := range base {
		if !isSchemaPredicate(t.P.Value) {
			data = append(data, t)
		}
	}
	if size > len(data) {
		size = len(data)
	}
	starts := len(data) - size + 1
	rot := rng.IntN(starts)
	out := make([][]rdfsum.Triple, n)
	for b, k := range rng.Perm(n) {
		off := (rot + k*starts/n) % starts
		src := data[off : off+size]
		suffix := fmt.Sprintf("-w%d", b)
		defined := make(map[rdfsum.Term]bool, size/4)
		for _, t := range src {
			defined[t.S] = true
		}
		batch := make([]rdfsum.Triple, size)
		for i, t := range src {
			t.S.Value += suffix
			if defined[t.O] {
				t.O.Value += suffix
			}
			batch[i] = t
		}
		out[b] = batch
	}
	return out
}

// queryPool builds the distinct query texts of the workload's mix.
func queryPool(w *workload, base []rdfsum.Triple, rng *rand.Rand) []poolQuery {
	if w.mix == "scan" {
		return lubmScanPool
	}
	var products []string
	for _, t := range base {
		if t.P.Value == bsbm.NS+"producer" {
			products = append(products, t.S.Value)
		}
	}
	// 70 % bound 3-pattern stars, 15 % type-constrained lookups, 15 %
	// joins the weak summary proves empty.
	pool := make([]poolQuery, 0, probePool)
	for i := 0; i < probePool; i++ {
		p := products[rng.IntN(len(products))]
		switch r := i % 20; {
		case r < 14:
			pool = append(pool, poolQuery{"star", fmt.Sprintf(
				"SELECT ?l ?pr ?f WHERE { <%[1]s> <%[2]slabel> ?l . <%[1]s> <%[3]sproducer> ?pr . <%[1]s> <%[3]sproductFeature> ?f }",
				p, rdfsNS, bsbm.NS)})
		case r < 17:
			pool = append(pool, poolQuery{"typed", fmt.Sprintf(
				"SELECT ?r ?who WHERE { ?r <%[2]sreviewFor> <%[1]s> . ?r <%[3]s> <%[2]sReview> . ?r <%[2]sreviewer> ?who }",
				p, bsbm.NS, rdfType)})
		default:
			pool = append(pool, bsbmEmptyPool[rng.IntN(len(bsbmEmptyPool))])
		}
	}
	return pool
}

// bsbmEmptyPool crosses disjoint entity kinds (offers never carry review
// properties, producers never review): empty on G, and provably so on
// the saturated weak summary.
var bsbmEmptyPool = []poolQuery{
	{"empty", "SELECT ?x ?z WHERE { ?x <" + bsbm.NS + "producer> ?y . ?y <" + bsbm.NS + "reviewer> ?z }"},
	{"empty", "SELECT ?o ?t WHERE { ?o <" + bsbm.NS + "vendor> ?v . ?o <" + bsbm.NS + "reviewDate> ?t }"},
	{"empty", "SELECT ?r ?c WHERE { ?r <" + bsbm.NS + "reviewFor> ?p . ?r <" + bsbm.NS + "price> ?c }"},
}

// lubmScanPool is the three LUBM joins of bench_test.go plus two
// whole-property scans; with ?limit=10000 each returns thousands of rows.
var lubmScanPool = []poolQuery{
	{"join", "PREFIX ub: <" + lubm.NS + "> SELECT ?x ?u WHERE { ?x ub:headOf ?d . ?d ub:subOrganizationOf ?u }"},
	{"join", "PREFIX ub: <" + lubm.NS + "> SELECT ?s WHERE { ?s ub:memberOf ?d . ?s ub:advisor ?p . ?p ub:worksFor ?d }"},
	{"join", "PREFIX ub: <" + lubm.NS + "> SELECT ?s ?c WHERE { ?x ub:worksFor ?d . ?x ub:teacherOf ?c . ?s ub:advisor ?x . ?s ub:takesCourse ?c }"},
	{"scan", "PREFIX ub: <" + lubm.NS + "> SELECT ?s ?c WHERE { ?s ub:takesCourse ?c }"},
	{"scan", "PREFIX ub: <" + lubm.NS + "> SELECT ?s ?n WHERE { ?s ub:name ?n }"},
}
