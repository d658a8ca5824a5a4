package ntriples

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer reads the RDF terminals N-Triples, Turtle and SPARQL share —
// N-Triples' grammar is a subset of Turtle's, and SPARQL 1.1 (§19.8)
// takes its terminals from Turtle: IRIREF, the four STRING_LITERAL forms
// with their ECHAR and UCHAR escapes, LANGTAG, BLANK_NODE_LABEL, the
// prefixed name PNAME_NS PN_LOCAL, and the whitespace and '#' comments
// between tokens. The N-Triples reader runs it over one line, the Turtle
// reader over its whole document and the query parser over a query; each
// keeps its own statement loop around it.
//
// Every method starts at the production's first byte and leaves Pos just
// past it. A term written without escapes is a substring of In, not a
// copy: each production first tries that substring fast path, and hands
// anything else (an escape, a byte the production refuses, a missing
// close) to its rune-by-rune builder from the same position, which owns
// the error messages and their offsets. Invalid UTF-8 is read as U+FFFD.
type Lexer struct {
	In  string
	Pos int
}

// SyntaxError is a refusal by the Lexer: a message and the byte offset in
// In it points at. Each reader wraps it in its own ParseError.
type SyntaxError struct {
	Off int
	Msg string
}

func (e *SyntaxError) Error() string { return e.Msg }

// builderOnly disables the substring fast paths, so every term goes
// through the rune-by-rune builder. Only the differential tests set it:
// the two paths must agree on every input, in both readers.
var builderOnly bool

func (l *Lexer) fail(format string, args ...any) error {
	return &SyntaxError{Off: l.Pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) eof() bool { return l.Pos >= len(l.In) }

// byteSet is a set of bytes: those that end a span scanned without
// decoding, or those a run of name or tag characters may hold.
type byteSet [256]bool

// newByteSet returns the set of the bytes of s.
func newByteSet(s string) *byteSet {
	var set byteSet
	for i := 0; i < len(s); i++ {
		set[s[i]] = true
	}
	return &set
}

var (
	iriStops     = newByteSet(">\\ \t\n") // close, escape, and the whitespace an IRI may not hold
	stringStops  = newByteSet("\"\\\n\r") // close, escape, and the line breaks a string may not hold
	sstringStops = newByteSet("'\\\n\r")  // the same for a '-quoted string
	langBytes    = newByteSet(letters + "0123456789-")
	nameBytes    = newByteSet(letters + "0123456789_-")
)

// letters are the ASCII letters: a language tag's first subtag, and with
// digits and '-' its others.
const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// cleanSpan returns the length of the longest prefix of s free of stop
// bytes, and whether that prefix is valid UTF-8 (the builders substitute
// U+FFFD for invalid bytes, so only a valid span may be returned as a
// substring).
func cleanSpan(s string, stops *byteSet) (n int, valid bool) {
	ascii := true
	for n < len(s) && !stops[s[n]] {
		ascii = ascii && s[n] < utf8.RuneSelf
		n++
	}
	return n, ascii || utf8.ValidString(s[:n])
}

// IRIRef reads "<…>" and returns the IRI between the brackets, which may
// be empty. Its only escapes are UCHARs, and it holds no whitespace.
func (l *Lexer) IRIRef() (string, error) {
	l.Pos++ // '<'
	if !builderOnly {
		rest := l.In[l.Pos:]
		if n, valid := cleanSpan(rest, iriStops); n < len(rest) && rest[n] == '>' && valid {
			l.Pos += n + 1
			return rest[:n], nil
		}
	}
	var b strings.Builder
	for {
		if l.eof() {
			return "", l.fail("unterminated IRI")
		}
		switch l.In[l.Pos] {
		case '>':
			l.Pos++
			return b.String(), nil
		case '\\':
			if err := l.escape(&b, true); err != nil {
				return "", err
			}
		case ' ', '\t', '\n':
			return "", l.fail("whitespace inside IRI")
		default:
			l.copyRune(&b)
		}
	}
}

// StringLiteral reads a string in any of the four forms Turtle and SPARQL
// write — "…" and '…' on one line, or either between three of its quotes
// on any number of lines — and returns its value. The byte at Pos is its
// first quote.
func (l *Lexer) StringLiteral() (string, error) {
	q := l.In[l.Pos]
	if rest := l.In[l.Pos:]; len(rest) >= 3 && rest[1] == q && rest[2] == q {
		return l.longString(rest[:3])
	}
	if q == '"' {
		return l.shortString(q, stringStops)
	}
	return l.shortString(q, sstringStops)
}

// shortString reads a string quoted by q on one line; stops are q, the
// backslash and the two line breaks, neither of which it may hold raw
// (STRING_LITERAL_QUOTE and STRING_LITERAL_SINGLE_QUOTE exclude #xA and
// #xD).
func (l *Lexer) shortString(q byte, stops *byteSet) (string, error) {
	l.Pos++ // the quote
	if !builderOnly {
		rest := l.In[l.Pos:]
		if n, valid := cleanSpan(rest, stops); n < len(rest) && rest[n] == q && valid {
			l.Pos += n + 1
			return rest[:n], nil
		}
	}
	var b strings.Builder
	for {
		if l.eof() || l.In[l.Pos] == '\n' {
			return "", l.fail("unterminated string")
		}
		switch l.In[l.Pos] {
		case q:
			l.Pos++
			return b.String(), nil
		case '\\':
			if err := l.escape(&b, false); err != nil {
				return "", err
			}
		case '\r':
			return "", l.fail("carriage return inside a one-line string (write it as \\r)")
		default:
			l.copyRune(&b)
		}
	}
}

// longString reads a string between the triple quotes delim, which may
// span lines. It ends at the first delim that is not part of an escape
// ("""a\"""" is `a"`); the escapes of its body are decoded once the end is
// known, and an error in them is reported just past the close.
func (l *Lexer) longString(delim string) (string, error) {
	l.Pos += len(delim)
	for i := l.Pos; i < len(l.In); i++ {
		switch {
		case l.In[i] == '\\':
			i++ // the escaped byte cannot close the string
		case strings.HasPrefix(l.In[i:], delim):
			body := Lexer{In: l.In[l.Pos:i]}
			l.Pos = i + len(delim)
			s, err := body.unescape()
			if err != nil {
				return "", l.fail("%v", err)
			}
			return s, nil
		}
	}
	return "", l.fail("unterminated long string")
}

// unescape decodes the escapes of all of In, a long string's body.
func (l *Lexer) unescape() (string, error) {
	if !builderOnly && !strings.Contains(l.In, `\`) && utf8.ValidString(l.In) {
		return l.In, nil
	}
	var b strings.Builder
	for !l.eof() {
		if l.In[l.Pos] != '\\' {
			l.copyRune(&b)
		} else if err := l.escape(&b, false); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// echars maps the letter of each ECHAR to the byte it stands for.
var echars = [256]byte{'t': '\t', 'b': '\b', 'n': '\n', 'r': '\r', 'f': '\f', '"': '"', '\'': '\'', '\\': '\\'}

// escape decodes the escape at the backslash at Pos into b: a UCHAR
// (\uXXXX or \UXXXXXXXX) or, outside an IRI, an ECHAR.
func (l *Lexer) escape(b *strings.Builder, iri bool) error {
	s := l.In[l.Pos:]
	if len(s) < 2 {
		return l.fail("dangling backslash")
	}
	switch c := s[1]; {
	case c == 'u' || c == 'U':
		digits := 4
		if c == 'U' {
			digits = 8
		}
		if len(s) < 2+digits {
			return l.fail("truncated unicode escape")
		}
		var v rune
		for _, h := range []byte(s[2 : 2+digits]) {
			switch {
			case h >= '0' && h <= '9':
				h -= '0'
			case h >= 'a' && h <= 'f':
				h -= 'a' - 10
			case h >= 'A' && h <= 'F':
				h -= 'A' - 10
			default:
				return l.fail("invalid hex digit %q", h)
			}
			v = v<<4 | rune(h)
		}
		if !utf8.ValidRune(v) {
			return l.fail("escape U+%X is not a valid rune", v)
		}
		b.WriteRune(v)
		l.Pos += 2 + digits
	case iri:
		return l.fail("invalid escape \\%c in IRI", c)
	case echars[c] != 0:
		b.WriteByte(echars[c])
		l.Pos += 2
	default:
		return l.fail("invalid escape \\%c", c)
	}
	return nil
}

// copyRune copies the rune at Pos into b.
func (l *Lexer) copyRune(b *strings.Builder) {
	r, size := utf8.DecodeRuneInString(l.In[l.Pos:])
	b.WriteRune(r)
	l.Pos += size
}

// LangTag reads "@tag" and returns the tag, a LANGTAG: letters, then
// any number of subtags of letters and digits, each after a '-'.
func (l *Lexer) LangTag() (string, error) {
	l.Pos++ // '@'
	start := l.Pos
	for !l.eof() && langBytes[l.In[l.Pos]] {
		l.Pos++
	}
	tag := l.In[start:l.Pos]
	first, _, _ := strings.Cut(tag, "-")
	switch {
	case tag == "":
		return "", l.fail("empty language tag")
	case first == "" || strings.Trim(first, letters) != "":
		return "", l.fail("language tag %q does not begin with letters", tag)
	case strings.HasSuffix(tag, "-") || strings.Contains(tag, "--"):
		return "", l.fail("language tag %q has an empty subtag", tag)
	}
	return tag, nil
}

// BlankLabel reads "_:label" and returns the label, a Name.
func (l *Lexer) BlankLabel() (string, error) {
	if !strings.HasPrefix(l.In[l.Pos:], "_:") {
		return "", l.fail("blank node must start with \"_:\"")
	}
	l.Pos += 2
	start := l.Pos
	if !l.eof() && l.In[l.Pos] == '-' {
		return "", l.fail("blank node label starts with '-'")
	}
	if !l.Name() {
		return "", l.fail("empty blank node label")
	}
	return l.In[start:l.Pos], nil
}

// PName reads a prefixed name, PNAME_NS and a local part that may be
// empty ("ex:"), and returns the prefix and the local part, substrings of
// In. On anything else it leaves Pos where it was.
func (l *Lexer) PName() (prefix, local string, err error) {
	prefix, ok := l.PNameNS()
	if !ok {
		return "", "", l.fail("expected a prefixed name")
	}
	start := l.Pos
	l.Name()
	return prefix, l.In[start:l.Pos], nil
}

// PNameNS reads "prefix:", where the prefix is a Name that begins with a
// letter (PN_PREFIX) or, for the default prefix, nothing, and returns the
// prefix. It reports false, and leaves Pos where it was, on anything
// else.
func (l *Lexer) PNameNS() (string, bool) {
	start := l.Pos
	l.Name()
	if l.eof() || l.In[l.Pos] != ':' {
		l.Pos = start
		return "", false
	}
	prefix := l.In[start:l.Pos]
	if r, _ := utf8.DecodeRuneInString(prefix); prefix != "" && !unicode.IsLetter(r) {
		l.Pos = start
		return "", false
	}
	l.Pos++
	return prefix, true
}

// Name advances over a name — the label of a blank node, the prefix or
// the local part of a prefixed name — and reports whether there was one:
// runs of name characters (letters, digits, '_' and '-') joined by dots.
// A dot not followed by a name character is not part of it: it ends the
// statement.
func (l *Lexer) Name() bool {
	if !l.nameRun() {
		return false
	}
	for {
		end := l.Pos
		for !l.eof() && l.In[l.Pos] == '.' {
			l.Pos++
		}
		if l.Pos == end || !l.nameRun() {
			l.Pos = end
			return true
		}
	}
}

// nameRun advances over name characters and reports whether there was one.
func (l *Lexer) nameRun() bool {
	start := l.Pos
	for !l.eof() {
		if c := l.In[l.Pos]; c < utf8.RuneSelf {
			if !nameBytes[c] {
				break
			}
			l.Pos++
			continue
		}
		r, size := utf8.DecodeRuneInString(l.In[l.Pos:])
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		l.Pos += size
	}
	return l.Pos > start
}

// IsSpace reports whether c is whitespace between two tokens.
func IsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// Skip advances over whitespace and '#' comments, each of which runs to
// the end of its line: what Turtle and SPARQL allow between two tokens.
func (l *Lexer) Skip() {
	for !l.eof() {
		switch c := l.In[l.Pos]; {
		case IsSpace(c):
			l.Pos++
		case c == '#':
			for !l.eof() && l.In[l.Pos] != '\n' {
				l.Pos++
			}
		default:
			return
		}
	}
}
