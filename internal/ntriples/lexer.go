package ntriples

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer reads the RDF terminals N-Triples and Turtle share — N-Triples'
// grammar is a subset of Turtle's, and both take these productions from
// one source: IRIREF, STRING_LITERAL_QUOTE with its ECHAR and UCHAR
// escapes, LANGTAG and BLANK_NODE_LABEL. The N-Triples reader runs it
// over one line, the Turtle reader over its whole document; each keeps
// its own statement loop around it.
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

// ByteSet is a set of bytes: those that end a span scanned without
// decoding, or those a run of name or tag characters may hold.
type ByteSet [256]bool

// NewByteSet returns the set of the bytes of s.
func NewByteSet(s string) *ByteSet {
	var set ByteSet
	for i := 0; i < len(s); i++ {
		set[s[i]] = true
	}
	return &set
}

var (
	iriStops    = NewByteSet(">\\ \t\n") // close, escape, and the whitespace an IRI may not hold
	stringStops = NewByteSet("\"\\\n")   // close, escape, and the newline a string may not hold
	langBytes   = NewByteSet("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-")
	nameBytes   = NewByteSet("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")
)

// cleanSpan returns the length of the longest prefix of s free of stop
// bytes, and whether that prefix is valid UTF-8 (the builders substitute
// U+FFFD for invalid bytes, so only a valid span may be returned as a
// substring).
func cleanSpan(s string, stops *ByteSet) (n int, valid bool) {
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

// StringLiteral reads a '"'-quoted string on one line and returns its value.
func (l *Lexer) StringLiteral() (string, error) {
	l.Pos++ // '"'
	if !builderOnly {
		rest := l.In[l.Pos:]
		if n, valid := cleanSpan(rest, stringStops); n < len(rest) && rest[n] == '"' && valid {
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
		case '"':
			l.Pos++
			return b.String(), nil
		case '\\':
			if err := l.escape(&b, false); err != nil {
				return "", err
			}
		default:
			l.copyRune(&b)
		}
	}
}

// Unescape decodes the escapes of s, a string body whose end the caller
// found (a Turtle long string). An error's offset is into s.
func Unescape(s string) (string, error) {
	if !builderOnly && !strings.Contains(s, `\`) {
		return s, nil
	}
	l := Lexer{In: s}
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

// LangTag reads "@tag" and returns the tag: letters, digits and '-'.
func (l *Lexer) LangTag() (string, error) {
	l.Pos++ // '@'
	start := l.Pos
	for !l.eof() && langBytes[l.In[l.Pos]] {
		l.Pos++
	}
	if l.Pos == start {
		return "", l.fail("empty language tag")
	}
	return l.In[start:l.Pos], nil
}

// BlankLabel reads "_:label" and returns the label, a Name.
func (l *Lexer) BlankLabel() (string, error) {
	if !strings.HasPrefix(l.In[l.Pos:], "_:") {
		return "", l.fail("blank node must start with \"_:\"")
	}
	l.Pos += 2
	start := l.Pos
	if !l.Name() {
		return "", l.fail("empty blank node label")
	}
	return l.In[start:l.Pos], nil
}

// Name advances over a name — the label of a blank node, the local part
// of a Turtle prefixed name — and reports whether there was one: runs of
// name characters (letters, digits, '_' and '-') joined by dots. A dot
// not followed by a name character is not part of it: it ends the
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
