// Package turtle implements a reader for a practical subset of the W3C
// Turtle format, complementing internal/ntriples (the paper's loader only
// accepted N-Triples; real-world RDF is very often shipped as Turtle).
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
// and appends IDs; Triples, ParseSlab, ParseString and Parse intern into a
// term table and rebuild rdf.Triples from it.
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
	"unicode"
	"unicode/utf8"
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
func ParseString(s string) ([]rdf.Triple, error) { return ParseSlab(Slab{Data: s}) }

// Triples parses sl and calls fn with each triple in document order,
// stopping at the first syntax error or the first error fn returns (which
// it returns unchanged). For the length of the parse it keeps one
// rdf.Term (a third of an rdf.Triple) per term Stream hands it.
func Triples(sl Slab, fn func(rdf.Triple) error) error {
	var terms []rdf.Term
	return Stream(sl,
		func(t rdf.Term) uint32 {
			terms = append(terms, t)
			return uint32(len(terms) - 1)
		},
		func(s, p, o uint32) error {
			return fn(rdf.Triple{S: terms[s], P: terms[p], O: terms[o]})
		})
}

// Stream parses sl — a slab of SplitStatements, or a whole document as
// Slab{Data: doc} — under its environment. Each term is passed to intern
// as the statement loop meets it, in document order, and each triple to
// emit as the handles intern returned for its subject, property and
// object. A handle is reused only while the loop knows the term is the
// same (see the package comment), so distinct terms reach intern for the
// first time in the order a triple-by-triple reader would first meet
// them: a dictionary filled by intern issues the IDs it would issue
// fed subject, property, object of every triple. Stream stops at the
// first syntax error (a *ParseError carrying the document's line; the
// column is slab-relative on a slab's first line) or the first error emit
// returns, which it returns unchanged. The full document grammar runs
// here, so a slab holding directives — the splitter's jumbo fallback —
// parses exactly as a sequential pass would.
func Stream(sl Slab, intern func(rdf.Term) uint32, emit func(s, p, o uint32) error) error {
	p := &parser{
		in:        sl.Data,
		firstLine: max(sl.StartLine, 1),
		prefixes:  make(map[string]string, len(sl.Env.Prefixes)),
		base:      sl.Env.Base,
		intern:    intern,
		emit:      emit,
		// One distinct name per ≈ 100 bytes of generated LUBM and BSBM
		// Turtle; capped, because a document of full <iri>s has no names
		// at all and past the cap growth by doubling is cheap.
		names: make(map[string]uint32, min(len(sl.Data)/96, 1<<16)),
	}
	for name, ns := range sl.Env.Prefixes {
		p.prefixes[name] = ns
	}
	return p.document()
}

type parser struct {
	in        string
	pos       int
	firstLine int // document line of in's first byte
	prefixes  map[string]string
	base      string

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
	line, col := p.firstLine, 1
	for _, r := range p.in[:p.pos] {
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
	rest := p.in[p.pos:]
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
	atForm := p.in[p.pos] == '@'
	isBase := false
	switch {
	case strings.HasPrefix(p.in[p.pos:], "@prefix"):
		p.pos += len("@prefix")
	case strings.HasPrefix(p.in[p.pos:], "@base"):
		p.pos += len("@base")
		isBase = true
	default:
		kw := p.in[p.pos : p.pos+4]
		if strings.EqualFold(kw, "BASE") {
			p.pos += 4
			isBase = true
		} else {
			p.pos += len("PREFIX")
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
		start := p.pos
		for !p.eof() && p.in[p.pos] != ':' {
			p.pos++
		}
		if p.eof() {
			return p.errorf("prefix declaration: expected ':'")
		}
		name := strings.TrimSpace(p.in[start:p.pos])
		p.pos++
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
		if p.eof() || p.in[p.pos] != '.' {
			return p.errorf("@-directive must end with '.'")
		}
		p.pos++
	} else if !p.eof() && p.in[p.pos] == '.' {
		p.pos++ // tolerated
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
			if !p.eof() && p.in[p.pos] == ',' {
				p.pos++
				continue
			}
			break
		}
		if p.eof() {
			return p.errorf("expected ';' or '.' after objects")
		}
		switch p.in[p.pos] {
		case ';':
			p.pos++
			p.skip()
			// A dangling ';' before '.' is legal Turtle.
			if !p.eof() && p.in[p.pos] == '.' {
				p.pos++
				return nil
			}
			continue
		case '.':
			p.pos++
			return nil
		default:
			return p.errorf("expected ';' or '.', got %q", p.in[p.pos])
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
	switch p.in[p.pos] {
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
	if p.in[p.pos] == 'a' && (p.pos+1 >= len(p.in) || isWS(p.in[p.pos+1]) || p.in[p.pos+1] == '<') {
		p.pos++
		if !p.sawType {
			p.rdfType, p.sawType = p.intern(rdf.Type()), true
		}
		return p.rdfType, rdf.IRI, nil
	}
	if p.in[p.pos] == '<' {
		return p.iriTerm()
	}
	return p.prefixedName()
}

func (p *parser) object() (uint32, rdf.TermKind, error) {
	if p.eof() {
		return 0, 0, p.errorf("expected an object")
	}
	switch c := p.in[p.pos]; {
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
	case strings.HasPrefix(p.in[p.pos:], "true") && p.boundary(p.pos+4):
		p.pos += 4
		return p.literalTerm(rdf.NewTypedLiteral("true", rdf.XSDBoolean), nil)
	case strings.HasPrefix(p.in[p.pos:], "false") && p.boundary(p.pos+5):
		p.pos += 5
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
	if i >= len(p.in) {
		return true
	}
	c := p.in[i]
	return isWS(c) || c == '.' || c == ';' || c == ','
}

func (p *parser) numericLiteral() (rdf.Term, error) {
	start := p.pos
	if p.in[p.pos] == '+' || p.in[p.pos] == '-' {
		p.pos++
	}
	digits, dot, exp := 0, false, false
	for !p.eof() {
		c := p.in[p.pos]
		switch {
		case c >= '0' && c <= '9':
			digits++
			p.pos++
		case c == '.' && !dot && !exp:
			// A '.' followed by a non-digit terminates the statement
			// instead of extending the number.
			if p.pos+1 >= len(p.in) || p.in[p.pos+1] < '0' || p.in[p.pos+1] > '9' {
				goto done
			}
			dot = true
			p.pos++
		case (c == 'e' || c == 'E') && !exp && digits > 0:
			exp = true
			p.pos++
			if !p.eof() && (p.in[p.pos] == '+' || p.in[p.pos] == '-') {
				p.pos++
			}
		default:
			goto done
		}
	}
done:
	lex := p.in[start:p.pos]
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
	if strings.HasPrefix(p.in[p.pos:], `"""`) {
		p.pos += 3
		end := strings.Index(p.in[p.pos:], `"""`)
		if end < 0 {
			return rdf.Term{}, p.errorf("unterminated long string")
		}
		raw := p.in[p.pos : p.pos+end]
		p.pos += end + 3
		unescaped, err := p.unescape(raw)
		if err != nil {
			return rdf.Term{}, err
		}
		lex = unescaped
	} else {
		p.pos++
		var err error
		if lex, err = p.shortString(); err != nil {
			return rdf.Term{}, err
		}
	}

	// Suffix: @lang or ^^datatype.
	if !p.eof() && p.in[p.pos] == '@' {
		p.pos++
		start := p.pos
		for !p.eof() {
			c := p.in[p.pos]
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' {
				p.pos++
				continue
			}
			break
		}
		if p.pos == start {
			return rdf.Term{}, p.errorf("empty language tag")
		}
		return rdf.NewLangLiteral(lex, p.in[start:p.pos]), nil
	}
	if strings.HasPrefix(p.in[p.pos:], "^^") {
		p.pos += 2
		var dt string
		var err error
		if !p.eof() && p.in[p.pos] == '<' {
			dt, err = p.iriRef()
		} else {
			dt, err = p.datatypeName()
		}
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, dt), nil
	}
	return rdf.NewLiteral(lex), nil
}

// What ends a span scanned without decoding (ntriples.CleanSpan).
var (
	stringStops = ntriples.NewByteSet("\"\\\n")        // close, escape, and the newline a short string may not hold
	iriStops    = ntriples.NewByteSet(">\\ \t\n")      // close, escape, and the whitespace an IRI may not hold
	prefixStops = ntriples.NewByteSet(": \t\n\r;,\"<") // what ends the prefix part of a name
)

// shortString parses the rest of a "…" string, p.pos being just past the
// opening quote. Without a backslash the value is a substring of the
// document; anything else — an escape, a newline, no closing quote — is
// left to the rune-by-rune loop from the same position, which owns the
// error messages and their positions.
func (p *parser) shortString() (string, error) {
	rest := p.in[p.pos:]
	if n, valid := ntriples.CleanSpan(rest, stringStops); n < len(rest) && rest[n] == '"' && valid {
		p.pos += n + 1
		return rest[:n], nil
	}
	var b strings.Builder
	for {
		if p.eof() || p.in[p.pos] == '\n' {
			return "", p.errorf("unterminated string")
		}
		c := p.in[p.pos]
		if c == '"' {
			p.pos++
			return b.String(), nil
		}
		if c == '\\' {
			if p.pos+1 >= len(p.in) {
				return "", p.errorf("dangling backslash")
			}
			r, n, err := decodeEscape(p.in[p.pos:])
			if err != nil {
				return "", p.errorf("%v", err)
			}
			b.WriteRune(r)
			p.pos += n
			continue
		}
		r, size := utf8.DecodeRuneInString(p.in[p.pos:])
		b.WriteRune(r)
		p.pos += size
	}
}

// unescape processes backslash escapes in a long string body.
func (p *parser) unescape(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); {
		if s[i] == '\\' {
			r, n, err := decodeEscape(s[i:])
			if err != nil {
				return "", p.errorf("%v", err)
			}
			b.WriteRune(r)
			i += n
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		b.WriteRune(r)
		i += size
	}
	return b.String(), nil
}

// decodeEscape decodes one backslash escape at the start of s, returning
// the rune and the number of input bytes consumed.
func decodeEscape(s string) (rune, int, error) {
	if len(s) < 2 {
		return 0, 0, fmt.Errorf("dangling backslash")
	}
	switch s[1] {
	case 't':
		return '\t', 2, nil
	case 'b':
		return '\b', 2, nil
	case 'n':
		return '\n', 2, nil
	case 'r':
		return '\r', 2, nil
	case 'f':
		return '\f', 2, nil
	case '"':
		return '"', 2, nil
	case '\'':
		return '\'', 2, nil
	case '\\':
		return '\\', 2, nil
	case 'u', 'U':
		digits := 4
		if s[1] == 'U' {
			digits = 8
		}
		if len(s) < 2+digits {
			return 0, 0, fmt.Errorf("truncated unicode escape")
		}
		var v rune
		for i := 0; i < digits; i++ {
			c := s[2+i]
			v <<= 4
			switch {
			case c >= '0' && c <= '9':
				v |= rune(c - '0')
			case c >= 'a' && c <= 'f':
				v |= rune(c-'a') + 10
			case c >= 'A' && c <= 'F':
				v |= rune(c-'A') + 10
			default:
				return 0, 0, fmt.Errorf("invalid hex digit %q", c)
			}
		}
		if !utf8.ValidRune(v) {
			return 0, 0, fmt.Errorf("escape U+%X is not a valid rune", v)
		}
		return v, 2 + digits, nil
	default:
		return 0, 0, fmt.Errorf("invalid escape \\%c", s[1])
	}
}

func (p *parser) iriRef() (string, error) {
	if p.eof() || p.in[p.pos] != '<' {
		return "", p.errorf("expected '<IRI>'")
	}
	p.pos++
	// Without an escape the IRI is a substring of the document; escapes,
	// whitespace and a missing '>' go to the loop below from the same
	// position, as in shortString.
	rest := p.in[p.pos:]
	if n, valid := ntriples.CleanSpan(rest, iriStops); n < len(rest) && rest[n] == '>' && valid {
		p.pos += n + 1
		return p.resolve(rest[:n]), nil
	}
	var b strings.Builder
	for {
		if p.eof() {
			return "", p.errorf("unterminated IRI")
		}
		c := p.in[p.pos]
		switch c {
		case '>':
			p.pos++
			return p.resolve(b.String()), nil
		case '\\':
			r, n, err := decodeEscape(p.in[p.pos:])
			if err != nil {
				return "", p.errorf("%v", err)
			}
			b.WriteRune(r)
			p.pos += n
		case ' ', '\t', '\n':
			return "", p.errorf("whitespace inside IRI")
		default:
			r, size := utf8.DecodeRuneInString(p.in[p.pos:])
			b.WriteRune(r)
			p.pos += size
		}
	}
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
	if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
		return 0, 0, p.errorf("blank node must start with \"_:\"")
	}
	p.pos += 2
	start := p.pos
	p.nameRun()
	if p.pos == start {
		return 0, 0, p.errorf("empty blank node label")
	}
	return p.intern(rdf.NewBlank(p.in[start:p.pos])), rdf.Blank, nil
}

// nameBytes are the ASCII letters, digits, '_' and '-'.
var nameBytes = ntriples.NewByteSet("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")

// nameRun advances over letters, digits, '_' and '-': the alphabet of
// blank node labels and local names.
func (p *parser) nameRun() {
	for !p.eof() {
		if c := p.in[p.pos]; c < utf8.RuneSelf {
			if !nameBytes[c] {
				return
			}
			p.pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(p.in[p.pos:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			return
		}
		p.pos += size
	}
}

// scanName advances over a "prefix:local" name and returns the prefix
// and the local part, substrings of the name p.in[start:p.pos].
func (p *parser) scanName() (prefix, local string, err error) {
	start := p.pos
	for !p.eof() && !prefixStops[p.in[p.pos]] {
		p.pos++
	}
	if p.eof() || p.in[p.pos] != ':' {
		p.pos = start
		return "", "", p.errorf("expected a prefixed name")
	}
	prefix = p.in[start:p.pos]
	p.pos++
	localStart := p.pos
	for {
		p.nameRun()
		// Inner dots are part of the local name when followed by a name
		// character ("ex:a.b"); a trailing dot terminates the statement.
		if p.pos+1 < len(p.in) && p.in[p.pos] == '.' {
			r, _ := utf8.DecodeRuneInString(p.in[p.pos+1:])
			if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
				p.pos++
				continue
			}
		}
		return prefix, p.in[localStart:p.pos], nil
	}
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
	start := p.pos
	prefix, local, err := p.scanName()
	if err != nil {
		return 0, 0, err
	}
	name := p.in[start:p.pos]
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
		c := p.in[p.pos]
		if isWS(c) {
			p.pos++
			continue
		}
		if c == '#' {
			for !p.eof() && p.in[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		return
	}
}

func (p *parser) eof() bool { return p.pos >= len(p.in) }

func isWS(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
