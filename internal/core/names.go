package core

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"unsafe"

	"rdfsum/internal/dict"
	"rdfsum/internal/rdf"
	"rdfsum/internal/store"
)

// Summary node URIs live under this scheme-like prefix. They never collide
// with input URIs in practice and are easily recognizable in output.
const nameNS = "rdfsum:"

// maxInlineName bounds the rendered property/class lists in a node URI;
// longer lists are replaced by a SHA-256 digest, preserving the injectivity
// of the representation function while keeping URIs short.
const maxInlineName = 256

// kindTag is each kind's namespace inside nameNS.
var kindTag = [NumKinds]string{Weak: "w", Strong: "s", TypeBased: "tb", TypedWeak: "tw", TypedStrong: "ts"}

// representer implements the paper's N function (§4.1): an injective
// function from a (target-property set, source-property set) pair to a
// URI. It is content-addressed — the URI is derived from the sorted
// property IRIs — so equal clique contents yield equal URIs across graphs
// and across runs. This is what turns the paper's completeness statements
// into literal triple-set equalities.
//
// The URIs are interned in d, an overlay of the input's dictionary (see
// startSummary): naming a node never writes to the input's dictionary.
type representer struct {
	d   *dict.Dict
	tag string // per-kind namespace, from kindTag

	term []byte // scratch: one rendered term
	name []byte // scratch: the URI being built
}

// startSummary begins a snapshot of the set's graph for every driver: the
// summary — its output graph over bs.names with rule SCH already applied,
// and a NodeOf map sized for every data node, the size it ends at for
// every kind — and the representer that names its nodes. bs.names is the
// overlay of the graph's dictionary the set keeps for its lifetime, so the
// summary extends the input's ID space and leaves its dictionary as it
// was.
func (bs *BuilderSet) startSummary(kind Kind) (*Summary, *representer) {
	out := store.NewGraphWithDict(bs.names)
	copySchema(bs.g, out)
	s := &Summary{Graph: out, NodeOf: make(map[dict.ID]dict.ID, bs.stats.dataNodes.len)}
	return s, &representer{d: bs.names, tag: kindTag[kind]}
}

// intern returns the ID of the IRI built in name, which started as
// r.name[:0] and becomes the scratch buffer of the next call. The term
// handed to the dictionary aliases it; the dictionary copies what it keeps.
func (r *representer) intern(name []byte) dict.ID {
	r.name = name
	return r.d.Encode(rdf.NewIRI(unsafe.String(unsafe.SliceData(name), len(name))))
}

// node returns the ID of N(in, out): the summary node whose members have
// target clique `in` and source clique `out` (either may be empty; both
// empty yields the paper's Nτ node).
func (r *representer) node(in, out []dict.ID) dict.ID {
	name := append(r.name[:0], nameNS...)
	name = append(name, r.tag...)
	name = append(name, "?in="...)
	name = r.appendSet(name, in)
	name = append(name, "&out="...)
	return r.intern(r.appendSet(name, out))
}

// classSetNode returns the ID of C(X) for a non-empty class set X
// (Definition 12). The same class set always maps to the same URI, shared
// by the type-based, typed-weak and typed-strong summaries. A snapshot
// asks once per held class set (classSetTracker.summarize).
func (r *representer) classSetNode(classes []dict.ID) dict.ID {
	name := append(r.name[:0], nameNS...)
	name = append(name, "cls?c="...)
	return r.intern(r.appendSet(name, classes))
}

// freshCopy returns the ID of C(∅) for one untyped node of the type-based
// summary: a distinct URI per represented node ("given an empty set of
// URIs, [C] returns a new URI on every call"). The URI is content-
// addressed on the represented node's own lexical form, which keeps the
// function injective over the input's untyped nodes while making the
// construction independent of triple order. One call per untyped node of
// the input: everything is rendered in the representer's scratch buffers.
func (r *representer) freshCopy(original dict.ID) dict.ID {
	r.term = r.d.Term(original).Append(r.term[:0])
	name := append(r.name[:0], nameNS...)
	name = append(name, r.tag...)
	name = append(name, "/u?n="...)
	return r.intern(appendInline(name, r.term))
}

// appendSet appends a set of term IDs as a sorted, comma-separated list of
// their lexical forms, or a digest when the list is long. Sorting is by
// lexical form, not ID, so the rendering is dictionary-independent.
func (r *representer) appendSet(b []byte, ids []dict.ID) []byte {
	if len(ids) == 0 {
		return b
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = r.d.Term(id).String()
	}
	sort.Strings(parts)
	return appendInline(b, strings.Join(parts, ","))
}

// appendInline appends text with the characters escaped that would make
// the generated URI ambiguous inside angle brackets or query strings, or
// the digest of text when it is longer than maxInlineName.
func appendInline[S string | []byte](b []byte, text S) []byte {
	if len(text) > maxInlineName {
		sum := sha256.Sum256([]byte(text))
		b = append(b, "sha256:"...)
		return hex.AppendEncode(b, sum[:16])
	}
	for i := 0; i < len(text); i++ {
		switch c := text[i]; c {
		case ' ':
			b = append(b, "%20"...)
		case '&':
			b = append(b, "%26"...)
		case '?':
			b = append(b, "%3F"...)
		default:
			b = append(b, c)
		}
	}
	return b
}
