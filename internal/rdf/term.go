// Package rdf defines the core RDF data model used throughout rdfsum:
// terms (IRIs, blank nodes, literals), triples, the RDF/RDFS vocabulary,
// and the well-behavedness checks assumed by the summarization paper.
//
// Terms are small comparable value types so they can be used directly as
// map keys (the dictionary in internal/dict relies on this).
package rdf

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// Invalid is the zero TermKind; it never appears in a well-formed term.
	Invalid TermKind = iota
	// IRI is an absolute or relative IRI reference.
	IRI
	// Blank is a blank node, identified by its local label.
	Blank
	// Literal is an RDF literal: a lexical form with an optional datatype
	// IRI or language tag.
	Literal
)

// String returns a human-readable name for the kind.
func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Blank:
		return "blank"
	case Literal:
		return "literal"
	default:
		return "invalid"
	}
}

// Term is a single RDF term. The zero Term is invalid.
//
// For IRIs, Value holds the IRI string. For blank nodes, Value holds the
// label without the "_:" prefix. For literals, Value holds the lexical
// form, Datatype the datatype IRI (empty for plain or language-tagged
// literals), and Lang the language tag (empty unless language-tagged).
type Term struct {
	Kind     TermKind
	Value    string
	Datatype string
	Lang     string
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewBlank returns a blank node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewLiteral returns a plain literal term.
func NewLiteral(lexical string) Term { return Term{Kind: Literal, Value: lexical} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: Literal, Value: lexical, Lang: lang}
}

// NewTypedLiteral returns a datatyped literal term.
func NewTypedLiteral(lexical, datatype string) Term {
	return Term{Kind: Literal, Value: lexical, Datatype: datatype}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsZero reports whether the term is the zero (invalid) term.
func (t Term) IsZero() bool { return t.Kind == Invalid }

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	var buf [128]byte // most terms fit: the only allocation is the result
	return string(t.Append(buf[:0]))
}

// Append appends the term in N-Triples syntax to b and returns the
// extended slice — String for callers that render many terms into one
// reused buffer.
func (t Term) Append(b []byte) []byte {
	switch t.Kind {
	case IRI:
		b = append(b, '<')
		b = appendEscaped(b, t.Value, &iriEscapes)
		b = append(b, '>')
	case Blank:
		b = append(b, "_:"...)
		b = append(b, t.Value...)
	case Literal:
		b = append(b, '"')
		b = appendEscaped(b, t.Value, &literalEscapes)
		b = append(b, '"')
		switch {
		case t.Lang != "":
			b = append(b, '@')
			b = append(b, t.Lang...)
		case t.Datatype != "":
			b = append(b, "^^<"...)
			b = appendEscaped(b, t.Datatype, &iriEscapes)
			b = append(b, '>')
		}
	default:
		b = append(b, "<invalid>"...)
	}
	return b
}

// escapes gives, per ASCII byte, what replaces it in a rendered term
// ("" = the byte itself).
type escapes [utf8.RuneSelf]string

// literalEscapes are the characters N-Triples requires escaped inside
// string literals.
var literalEscapes = escapes{'\\': `\\`, '"': `\"`, '\n': `\n`, '\r': `\r`, '\t': `\t`}

// iriEscapes are the characters disallowed between angle brackets: the
// punctuation below and everything up to the space (an IRI can hold
// those only through a \u escape, and must be written back the same way
// or it no longer parses).
var iriEscapes = func() (e escapes) {
	for c := 0; c <= ' '; c++ {
		e[c] = fmt.Sprintf("\\u%04X", c)
	}
	for _, c := range "<>\"{}|^`\\" {
		e[c] = fmt.Sprintf("\\u%04X", c)
	}
	return e
}()

// appendEscaped appends s, applying esc to its ASCII bytes and replacing
// every invalid UTF-8 byte by U+FFFD. Everything between two
// replacements is copied in one piece: terms seldom hold anything to
// escape, and this runs for every cell of a query result.
func appendEscaped(b []byte, s string, esc *escapes) []byte {
	from := 0 // s[from:i] is pending, to be copied verbatim
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, w := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && w == 1 {
				b = append(b, s[from:i]...)
				b = utf8.AppendRune(b, utf8.RuneError)
				from = i + 1
			}
			i += w
			continue
		}
		if e := esc[c]; e != "" {
			b = append(b, s[from:i]...)
			b = append(b, e...)
			from = i + 1
		}
		i++
	}
	return append(b, s[from:]...)
}

// Compare orders terms: first by kind (IRI < Blank < Literal), then by
// value, datatype and language. It returns -1, 0, or +1.
func (t Term) Compare(u Term) int {
	if t.Kind != u.Kind {
		if t.Kind < u.Kind {
			return -1
		}
		return 1
	}
	if c := strings.Compare(t.Value, u.Value); c != 0 {
		return c
	}
	if c := strings.Compare(t.Datatype, u.Datatype); c != 0 {
		return c
	}
	return strings.Compare(t.Lang, u.Lang)
}

// Triple is a single RDF statement: subject, property, object.
type Triple struct {
	S, P, O Term
}

// NewTriple assembles a triple.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as an N-Triples statement (without newline).
func (t Triple) String() string {
	var buf [256]byte
	b := t.S.Append(buf[:0])
	b = append(b, ' ')
	b = t.P.Append(b)
	b = append(b, ' ')
	b = t.O.Append(b)
	b = append(b, " ."...)
	return string(b)
}

// Compare orders triples lexicographically by subject, property, object.
func (t Triple) Compare(u Triple) int {
	if c := t.S.Compare(u.S); c != 0 {
		return c
	}
	if c := t.P.Compare(u.P); c != 0 {
		return c
	}
	return t.O.Compare(u.O)
}

// Validate checks the structural well-formedness rules of RDF:
// the subject must be an IRI or blank node, the property an IRI, and the
// object any term. It returns a descriptive error on violation.
func (t Triple) Validate() error {
	switch t.S.Kind {
	case IRI, Blank:
	default:
		return fmt.Errorf("rdf: triple subject must be an IRI or blank node, got %s", t.S.Kind)
	}
	if t.P.Kind != IRI {
		return fmt.Errorf("rdf: triple property must be an IRI, got %s", t.P.Kind)
	}
	if t.O.Kind == Invalid {
		return fmt.Errorf("rdf: triple object is invalid")
	}
	return nil
}

// SortTriples sorts a slice of triples in place in S,P,O order.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// DedupTriples sorts ts and removes duplicates, returning the shortened
// slice. The input slice is modified.
func DedupTriples(ts []Triple) []Triple {
	SortTriples(ts)
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t.Compare(ts[i-1]) != 0 {
			out = append(out, t)
		}
	}
	return out
}
