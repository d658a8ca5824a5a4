// Package compress is the streaming-decode stage of the ingest pipeline:
// it recognizes gzip-compressed RDF dumps by magic bytes (or file
// extension), and wraps them in decoding readers so the loader downstream
// only ever sees plain text — a gzipped Wikidata dump streams through a
// few KB of decoder state instead of materializing on disk or in memory.
//
// gzip, via the standard library, is the one codec. The sniff also
// recognizes a zstd frame, only to refuse it with ErrUnsupported before
// any parser sees the binary.
//
// Failures are classified by wrapped sentinels so callers can branch
// without string matching: ErrTruncated (the stream ended mid-frame —
// retry/resume territory), ErrCorrupt (checksum or framing damage), and
// ErrUnsupported (a compression format this build does not decode).
package compress

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Codec identifies a stream compression scheme.
type Codec int

const (
	// Auto sniffs the codec from the stream's magic bytes.
	Auto Codec = iota
	// None passes the stream through untouched.
	None
	// Gzip is RFC 1952 gzip.
	Gzip
)

// String names the codec for error messages and logs.
func (c Codec) String() string {
	switch c {
	case Auto:
		return "auto"
	case None:
		return "none"
	case Gzip:
		return "gzip"
	}
	return fmt.Sprintf("Codec(%d)", int(c))
}

// Sentinel errors; every decode failure wraps exactly one of them.
var (
	// ErrTruncated: the stream ended inside a frame — the producer died
	// or the transfer was cut. Nothing after the last whole frame was
	// decoded.
	ErrTruncated = errors.New("compress: truncated stream")
	// ErrCorrupt: framing or checksum damage — the bytes are not a valid
	// stream of the detected codec.
	ErrCorrupt = errors.New("compress: corrupt stream")
	// ErrUnsupported: the stream is in a compression format this build
	// does not decode (a zstd frame).
	ErrUnsupported = errors.New("compress: unsupported feature")
)

// Magic prefixes (little-endian byte order as they appear on the wire).
var (
	magicGzip     = []byte{0x1f, 0x8b}
	magicZstd     = []byte{0x28, 0xb5, 0x2f, 0xfd}
	magicZstdSkip = []byte{0x50, 0x2a, 0x4d, 0x18} // first of 16 skippable magics
)

// sniffLen is how many leading bytes Sniff needs to classify a stream.
const sniffLen = 4

// errZstd refuses a zstd stream: the sniff names it so that no parser is
// handed the binary.
var errZstd = fmt.Errorf("%w: zstd stream: this build decodes gzip only; recompress the input with gzip", ErrUnsupported)

// sniff classifies a magic-byte prefix. Short or unrecognized prefixes
// are None: plain text never starts with either magic. A zstd frame or
// skippable frame is refused with errZstd.
func sniff(prefix []byte) (Codec, error) {
	if bytes.HasPrefix(prefix, magicGzip) {
		return Gzip, nil
	}
	// Skippable zstd frames: 0x184D2A50..0x184D2A5F, low byte varies.
	if bytes.HasPrefix(prefix, magicZstd) || len(prefix) >= 4 &&
		prefix[0]&0xf0 == magicZstdSkip[0] && bytes.Equal(prefix[1:4], magicZstdSkip[1:]) {
		return None, errZstd
	}
	return None, nil
}

// ByExtension maps a file name to the codec its extension declares,
// returning the codec and the name with the compression extension
// stripped (so format detection can look at the inner extension:
// "dump.ttl.gz" -> Gzip, "dump.ttl"). Unrecognized names are (None, path).
func ByExtension(path string) (Codec, string) {
	if strings.HasSuffix(strings.ToLower(path), ".gz") {
		return Gzip, path[:len(path)-len(".gz")]
	}
	return None, path
}

// NewReader wraps r in a streaming decoder for codec. Auto sniffs the
// magic bytes first (consuming nothing: the peeked bytes are part of the
// returned stream). The result reads decoded bytes; Close releases
// decoder state without closing r.
func NewReader(r io.Reader, codec Codec) (io.ReadCloser, error) {
	if codec == Auto {
		br := bufio.NewReader(r)
		prefix, err := br.Peek(sniffLen)
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, err
		}
		if codec, err = sniff(prefix); err != nil {
			return nil, err
		}
		r = br
	}
	switch codec {
	case None:
		return io.NopCloser(r), nil
	case Gzip:
		zr, err := gzip.NewReader(r)
		if err != nil {
			return nil, classifyGzip(err)
		}
		// gzip.Reader stops after one member unless told otherwise;
		// concatenated members are one logical stream (gzip -c a b).
		zr.Multistream(true)
		return &gzipReader{zr: zr}, nil
	}
	return nil, fmt.Errorf("compress: unknown codec %v", codec)
}

// gzipReader maps the stdlib gzip error vocabulary onto this package's
// sentinels as bytes stream through.
type gzipReader struct {
	zr *gzip.Reader
}

func (g *gzipReader) Read(p []byte) (int, error) {
	n, err := g.zr.Read(p)
	if err != nil && err != io.EOF {
		err = classifyGzip(err)
	}
	return n, err
}

func (g *gzipReader) Close() error { return g.zr.Close() }

// classifyGzip wraps a gzip/flate error with the matching sentinel: an
// unexpected EOF is a truncation, everything else the stdlib reports is
// structural corruption.
func classifyGzip(err error) error {
	var ce flate.CorruptInputError
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w: gzip: %v", ErrTruncated, err)
	case errors.Is(err, gzip.ErrHeader), errors.Is(err, gzip.ErrChecksum), errors.As(err, &ce):
		return fmt.Errorf("%w: gzip: %v", ErrCorrupt, err)
	}
	return err
}

// NewWriter wraps w in a streaming encoder for codec (None returns a
// pass-through). Close flushes and finalizes the frame without closing w.
func NewWriter(w io.Writer, codec Codec) (io.WriteCloser, error) {
	switch codec {
	case None:
		return nopWriteCloser{w}, nil
	case Gzip:
		return gzip.NewWriter(w), nil
	}
	return nil, fmt.Errorf("compress: cannot encode codec %v", codec)
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }
