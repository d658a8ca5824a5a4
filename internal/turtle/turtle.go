// Package turtle implements a reader for a practical subset of the W3C
// Turtle format (the paper's loader only accepted N-Triples; real-world
// RDF is very often shipped as Turtle). N-Triples is a subset of Turtle,
// and the two readers share its terminals: IRIs, quoted strings with
// their escapes, language tags, blank node labels and the local part of a
// prefixed name are read by ntriples.Lexer, so a term either reader
// accepts means the same in both. This package adds the rest: directives,
// prefixed names, 'a', the numeric and boolean shorthand and long strings.
//
// Supported: @prefix / PREFIX and @base / BASE declarations, prefixed
// names, 'a' for rdf:type, predicate-object lists (';'), object lists
// (','), blank node labels, string literals with language tags or
// datatypes (quoted with " or """ long strings), and the numeric/boolean
// shorthand (42, -3.14, 1e6, true, false). Not supported (rejected with a
// clear error): anonymous blank nodes '[...]', collections '(...)', and
// single-quoted strings.
//
// There is one statement loop, Stream, and it hands its caller handles,
// not rdf.Triples: every term is passed once to the caller's intern — a
// subject once per statement, a predicate once per ';' list, a prefixed
// name once per distinct spelling — and each triple is emitted as three
// of the handles intern returned. A loader interns into its dictionary
// and appends IDs; Triples, ParseString and Parse intern into a term
// table and rebuild rdf.Triples from it.
//
// Aliasing: an IRI, label or literal written without escapes is a
// substring of the document, not a copy. The dictionaries clone what they
// intern, so a load retains nothing; a caller that keeps the terms it is
// handed keeps the document alive with them (ntriples.ParseFunc's
// contract).
package turtle

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unsafe"

	"rdfsum/internal/ntriples"
	"rdfsum/internal/rdf"
)

// ParseError reports a syntax error with 1-based line/column position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("turtle: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// ReadDocument reads r to its end into one buffer grown by doubling and
// returns it viewed as a string, without the copy a conversion makes:
// Turtle is not line-delimited, so a document is parsed whole. The buffer
// is never written again.
func ReadDocument(r io.Reader) (string, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return "", err
	}
	b := buf.Bytes()
	return unsafe.String(unsafe.SliceData(b), len(b)), nil
}

// Parse reads every triple of a Turtle document.
func Parse(r io.Reader) ([]rdf.Triple, error) {
	doc, err := ReadDocument(r)
	if err != nil {
		return nil, fmt.Errorf("turtle: read: %w", err)
	}
	return ParseString(doc)
}

// ParseString parses a Turtle document held in a string.
func ParseString(s string) ([]rdf.Triple, error) {
	var out []rdf.Triple
	err := Triples(s, func(t rdf.Triple) error {
		out = append(out, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Triples parses doc and calls fn with each triple in document order,
// stopping at the first syntax error or the first error fn returns (which
// it returns unchanged). For the length of the parse it keeps one
// rdf.Term (a third of an rdf.Triple) per term Stream hands it.
func Triples(doc string, fn func(rdf.Triple) error) error {
	var terms []rdf.Term
	return Stream(doc,
		func(t rdf.Term) uint32 {
			terms = append(terms, t)
			return uint32(len(terms) - 1)
		},
		func(s, p, o uint32) error {
			return fn(rdf.Triple{S: terms[s], P: terms[p], O: terms[o]})
		})
}

// Stream parses the Turtle document doc. Each term is passed to intern
// as the statement loop meets it, in document order, and each triple to
// emit as the handles intern returned for its subject, property and
// object. A handle is reused only while the loop knows the term is the
// same (see the package comment), so distinct terms reach intern for the
// first time in the order a triple-by-triple reader would first meet
// them: a dictionary filled by intern issues the IDs it would issue
// fed subject, property, object of every triple. Stream stops at the
// first syntax error (a *ParseError) or the first error emit returns,
// which it returns unchanged.
func Stream(doc string, intern func(rdf.Term) uint32, emit func(s, p, o uint32) error) error {
	p := &parser{
		Lexer:    ntriples.Lexer{In: doc},
		prefixes: map[string]string{},
		intern:   intern,
		emit:     emit,
		// One distinct name per ≈ 100 bytes of generated LUBM and BSBM
		// Turtle; capped, because a document of full <iri>s has no names
		// at all and past the cap growth by doubling is cheap.
		names: make(map[string]uint32, min(len(doc)/96, 1<<16)),
	}
	err := p.document()
	if se, ok := err.(*ntriples.SyntaxError); ok {
		p.Pos = se.Off
		return p.errorf("%s", se.Msg)
	}
	return err
}

type parser struct {
	ntriples.Lexer
	prefixes map[string]string
	base     string

	intern func(rdf.Term) uint32
	emit   func(s, p, o uint32) error

	// names maps the raw "prefix:local" spelling of a name in term
	// position — a substring of in, so a probe allocates nothing — to the
	// handle of its expansion. It is dropped when a prefix is rebound.
	names   map[string]uint32
	rdfType uint32 // handle of rdf:type once 'a' has been seen
	sawType bool
}

func (p *parser) errorf(format string, args ...any) error {
	line, col := 1, 1
	for _, r := range p.In[:p.Pos] {
		if r == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return &ParseError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) document() error {
	for {
		p.skip()
		if p.eof() {
			return nil
		}
		if p.directive() {
			if err := p.directiveBody(); err != nil {
				return err
			}
			continue
		}
		if err := p.triples(); err != nil {
			return err
		}
	}
}

// directive reports whether a prefix/base directive starts here, without
// consuming it on false.
func (p *parser) directive() bool {
	rest := p.In[p.Pos:]
	switch rest[0] {
	case '@':
		return strings.HasPrefix(rest, "@prefix") || strings.HasPrefix(rest, "@base")
	case 'P', 'p', 'B', 'b':
		for _, kw := range [...]string{"PREFIX", "BASE", "prefix", "base"} {
			if strings.HasPrefix(rest, kw) && len(rest) > len(kw) && isWS(rest[len(kw)]) {
				return true
			}
		}
	}
	return false
}

func (p *parser) directiveBody() error {
	atForm := p.In[p.Pos] == '@'
	isBase := false
	switch {
	case strings.HasPrefix(p.In[p.Pos:], "@prefix"):
		p.Pos += len("@prefix")
	case strings.HasPrefix(p.In[p.Pos:], "@base"):
		p.Pos += len("@base")
		isBase = true
	default:
		kw := p.In[p.Pos : p.Pos+4]
		if strings.EqualFold(kw, "BASE") {
			p.Pos += 4
			isBase = true
		} else {
			p.Pos += len("PREFIX")
		}
	}
	p.skip()
	if isBase {
		iri, err := p.iriRef()
		if err != nil {
			return err
		}
		p.base = iri
	} else {
		start := p.Pos
		for !p.eof() && p.In[p.Pos] != ':' {
			p.Pos++
		}
		if p.eof() {
			return p.errorf("prefix declaration: expected ':'")
		}
		name := strings.TrimSpace(p.In[start:p.Pos])
		p.Pos++
		p.skip()
		iri, err := p.iriRef()
		if err != nil {
			return err
		}
		// Only rebinding a prefix changes what a spelling already seen
		// expands to (one with an undeclared prefix never parsed). A fresh
		// map rather than clear(): clearing costs the presized capacity
		// each time, and a document may rebind once per statement.
		if old, bound := p.prefixes[name]; bound && old != iri && len(p.names) > 0 {
			p.names = map[string]uint32{}
		}
		p.prefixes[name] = iri
	}
	p.skip()
	if atForm {
		if p.eof() || p.In[p.Pos] != '.' {
			return p.errorf("@-directive must end with '.'")
		}
		p.Pos++
	} else if !p.eof() && p.In[p.Pos] == '.' {
		p.Pos++ // tolerated
	}
	return nil
}

// triples parses: subject predicateObjectList '.'
func (p *parser) triples() error {
	subj, sk, err := p.subject()
	if err != nil {
		return err
	}
	for {
		p.skip()
		pred, pk, err := p.predicate()
		if err != nil {
			return err
		}
		for {
			p.skip()
			obj, ok, err := p.object()
			if err != nil {
				return err
			}
			// Triple.Validate reads the kinds only.
			if err := (rdf.Triple{S: rdf.Term{Kind: sk}, P: rdf.Term{Kind: pk}, O: rdf.Term{Kind: ok}}).Validate(); err != nil {
				return p.errorf("%v", err)
			}
			if err := p.emit(subj, pred, obj); err != nil {
				return err
			}
			p.skip()
			if !p.eof() && p.In[p.Pos] == ',' {
				p.Pos++
				continue
			}
			break
		}
		if p.eof() {
			return p.errorf("expected ';' or '.' after objects")
		}
		switch p.In[p.Pos] {
		case ';':
			p.Pos++
			p.skip()
			// A dangling ';' before '.' is legal Turtle.
			if !p.eof() && p.In[p.Pos] == '.' {
				p.Pos++
				return nil
			}
			continue
		case '.':
			p.Pos++
			return nil
		default:
			return p.errorf("expected ';' or '.', got %q", p.In[p.Pos])
		}
	}
}

// subject, predicate and object parse one term and intern it: they
// return its handle and its kind.

func (p *parser) subject() (uint32, rdf.TermKind, error) {
	p.skip()
	if p.eof() {
		return 0, 0, p.errorf("expected a subject")
	}
	switch p.In[p.Pos] {
	case '<':
		return p.iriTerm()
	case '_':
		return p.blankNode()
	case '[':
		return 0, 0, p.errorf("anonymous blank nodes '[...]' are not supported by this subset")
	case '(':
		return 0, 0, p.errorf("collections '(...)' are not supported by this subset")
	default:
		return p.prefixedName()
	}
}

func (p *parser) predicate() (uint32, rdf.TermKind, error) {
	if p.eof() {
		return 0, 0, p.errorf("expected a predicate")
	}
	if p.In[p.Pos] == 'a' && (p.Pos+1 >= len(p.In) || isWS(p.In[p.Pos+1]) || p.In[p.Pos+1] == '<') {
		p.Pos++
		if !p.sawType {
			p.rdfType, p.sawType = p.intern(rdf.Type()), true
		}
		return p.rdfType, rdf.IRI, nil
	}
	if p.In[p.Pos] == '<' {
		return p.iriTerm()
	}
	return p.prefixedName()
}

func (p *parser) object() (uint32, rdf.TermKind, error) {
	if p.eof() {
		return 0, 0, p.errorf("expected an object")
	}
	switch c := p.In[p.Pos]; {
	case c == '<':
		return p.iriTerm()
	case c == '_':
		return p.blankNode()
	case c == '"':
		return p.literalTerm(p.literal())
	case c == '\'':
		return 0, 0, p.errorf("single-quoted strings are not supported by this subset")
	case c == '[':
		return 0, 0, p.errorf("anonymous blank nodes '[...]' are not supported by this subset")
	case c == '(':
		return 0, 0, p.errorf("collections '(...)' are not supported by this subset")
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		return p.literalTerm(p.numericLiteral())
	case strings.HasPrefix(p.In[p.Pos:], "true") && p.boundary(p.Pos+4):
		p.Pos += 4
		return p.literalTerm(rdf.NewTypedLiteral("true", rdf.XSDBoolean), nil)
	case strings.HasPrefix(p.In[p.Pos:], "false") && p.boundary(p.Pos+5):
		p.Pos += 5
		return p.literalTerm(rdf.NewTypedLiteral("false", rdf.XSDBoolean), nil)
	default:
		return p.prefixedName()
	}
}

// literalTerm interns a literal just parsed, passing its error through.
func (p *parser) literalTerm(lit rdf.Term, err error) (uint32, rdf.TermKind, error) {
	if err != nil {
		return 0, 0, err
	}
	return p.intern(lit), lit.Kind, nil
}

// iriTerm parses '<IRI>' as a term.
func (p *parser) iriTerm() (uint32, rdf.TermKind, error) {
	iri, err := p.iriRef()
	if err != nil {
		return 0, 0, err
	}
	return p.intern(rdf.NewIRI(iri)), rdf.IRI, nil
}

func (p *parser) boundary(i int) bool {
	if i >= len(p.In) {
		return true
	}
	c := p.In[i]
	return isWS(c) || c == '.' || c == ';' || c == ','
}

func (p *parser) numericLiteral() (rdf.Term, error) {
	start := p.Pos
	if p.In[p.Pos] == '+' || p.In[p.Pos] == '-' {
		p.Pos++
	}
	digits, dot, exp := 0, false, false
	for !p.eof() {
		c := p.In[p.Pos]
		switch {
		case c >= '0' && c <= '9':
			digits++
			p.Pos++
		case c == '.' && !dot && !exp:
			// A '.' followed by a non-digit terminates the statement
			// instead of extending the number.
			if p.Pos+1 >= len(p.In) || p.In[p.Pos+1] < '0' || p.In[p.Pos+1] > '9' {
				goto done
			}
			dot = true
			p.Pos++
		case (c == 'e' || c == 'E') && !exp && digits > 0:
			exp = true
			p.Pos++
			if !p.eof() && (p.In[p.Pos] == '+' || p.In[p.Pos] == '-') {
				p.Pos++
			}
		default:
			goto done
		}
	}
done:
	lex := p.In[start:p.Pos]
	if digits == 0 {
		return rdf.Term{}, p.errorf("malformed numeric literal %q", lex)
	}
	switch {
	case exp:
		return rdf.NewTypedLiteral(lex, rdf.XSDDouble), nil
	case dot:
		return rdf.NewTypedLiteral(lex, rdf.XSDDecimal), nil
	default:
		return rdf.NewTypedLiteral(lex, rdf.XSDInteger), nil
	}
}

func (p *parser) literal() (rdf.Term, error) {
	var lex string
	var err error
	if strings.HasPrefix(p.In[p.Pos:], `"""`) {
		p.Pos += 3
		end := strings.Index(p.In[p.Pos:], `"""`)
		if end < 0 {
			return rdf.Term{}, p.errorf("unterminated long string")
		}
		raw := p.In[p.Pos : p.Pos+end]
		p.Pos += end + 3
		if lex, err = ntriples.Unescape(raw); err != nil {
			return rdf.Term{}, p.errorf("%v", err)
		}
	} else if lex, err = p.StringLiteral(); err != nil {
		return rdf.Term{}, err
	}

	// Suffix: @lang or ^^datatype.
	if !p.eof() && p.In[p.Pos] == '@' {
		lang, err := p.LangTag()
		return rdf.NewLangLiteral(lex, lang), err
	}
	if strings.HasPrefix(p.In[p.Pos:], "^^") {
		p.Pos += 2
		var dt string
		if !p.eof() && p.In[p.Pos] == '<' {
			dt, err = p.iriRef()
		} else {
			dt, err = p.datatypeName()
		}
		return rdf.NewTypedLiteral(lex, dt), err
	}
	return rdf.NewLiteral(lex), nil
}

func (p *parser) iriRef() (string, error) {
	if p.eof() || p.In[p.Pos] != '<' {
		return "", p.errorf("expected '<IRI>'")
	}
	iri, err := p.IRIRef()
	return p.resolve(iri), err
}

// resolve applies the @base to relative IRIs (simple concatenation for
// fragment/suffix references — full RFC 3986 resolution is out of scope).
func (p *parser) resolve(iri string) string {
	if p.base == "" || strings.Contains(iri, "://") || strings.HasPrefix(iri, "urn:") {
		return iri
	}
	return p.base + iri
}

func (p *parser) blankNode() (uint32, rdf.TermKind, error) {
	label, err := p.BlankLabel()
	if err != nil {
		return 0, 0, err
	}
	return p.intern(rdf.NewBlank(label)), rdf.Blank, nil
}

// prefixStops end the prefix part of a name.
var prefixStops = ntriples.NewByteSet(": \t\n\r;,\"<")

// scanName advances over a "prefix:local" name and returns the prefix
// and the local part, substrings of the name p.In[start:p.Pos].
func (p *parser) scanName() (prefix, local string, err error) {
	start := p.Pos
	for !p.eof() && !prefixStops[p.In[p.Pos]] {
		p.Pos++
	}
	if p.eof() || p.In[p.Pos] != ':' {
		p.Pos = start
		return "", "", p.errorf("expected a prefixed name")
	}
	prefix = p.In[start:p.Pos]
	p.Pos++
	localStart := p.Pos
	p.Name() // the local part may be empty ("ex:")
	return prefix, p.In[localStart:p.Pos], nil
}

// expand resolves a scanned name through the prefix table.
func (p *parser) expand(prefix, local string) (string, error) {
	ns, ok := p.prefixes[prefix]
	if !ok {
		return "", p.errorf("undeclared prefix %q", prefix)
	}
	return ns + local, nil
}

// prefixedName parses a name in term position. Its expansion is built
// and interned at the first occurrence of each spelling; every later one
// is a probe of p.names.
func (p *parser) prefixedName() (uint32, rdf.TermKind, error) {
	start := p.Pos
	prefix, local, err := p.scanName()
	if err != nil {
		return 0, 0, err
	}
	name := p.In[start:p.Pos]
	if h, ok := p.names[name]; ok {
		return h, rdf.IRI, nil
	}
	iri, err := p.expand(prefix, local)
	if err != nil {
		return 0, 0, err
	}
	h := p.intern(rdf.NewIRI(iri))
	p.names[name] = h
	return h, rdf.IRI, nil
}

// datatypeName parses a name after '^^': the expansion is the literal's
// datatype, not a term, so it is never interned (nor cached).
func (p *parser) datatypeName() (string, error) {
	prefix, local, err := p.scanName()
	if err != nil {
		return "", err
	}
	return p.expand(prefix, local)
}

// skip consumes whitespace and comments.
func (p *parser) skip() {
	for !p.eof() {
		c := p.In[p.Pos]
		if isWS(c) {
			p.Pos++
			continue
		}
		if c == '#' {
			for !p.eof() && p.In[p.Pos] != '\n' {
				p.Pos++
			}
			continue
		}
		return
	}
}

func (p *parser) eof() bool { return p.Pos >= len(p.In) }

func isWS(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
