package compress

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeAll(t *testing.T, raw []byte, codec Codec) ([]byte, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw), codec)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// payload builds a deterministic pseudo-text payload long enough to span
// several encoder blocks.
func payload(n int) []byte {
	rng := rand.New(rand.NewSource(7))
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString("<http://example.org/s")
		b.WriteString(strings.Repeat("x", rng.Intn(40)))
		b.WriteString("> <http://example.org/p> \"v\" .\n")
	}
	return b.Bytes()[:n]
}

func TestRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 31, 32, 1000, 128 << 10, 128<<10 + 1, 3*(128<<10) + 17} {
		data := payload(size)
		for _, codec := range []Codec{None, Gzip} {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, codec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(data); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			// Auto must sniff every codec from the bytes alone.
			for _, decodeAs := range []Codec{codec, Auto} {
				got, err := decodeAll(t, buf.Bytes(), decodeAs)
				if err != nil {
					t.Fatalf("%v/%d decode as %v: %v", codec, size, decodeAs, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%v/%d decode as %v: %d bytes back, want %d", codec, size, decodeAs, len(got), len(data))
				}
			}
		}
	}
}

func TestSniff(t *testing.T) {
	cases := []struct {
		prefix  []byte
		want    Codec
		refused bool
	}{
		{[]byte{0x1f, 0x8b, 0x08, 0x00}, Gzip, false},
		{[]byte{0x28, 0xb5, 0x2f, 0xfd}, None, true}, // zstd frame
		{[]byte{0x50, 0x2a, 0x4d, 0x18}, None, true}, // skippable frame
		{[]byte{0x5f, 0x2a, 0x4d, 0x18}, None, true}, // last skippable magic
		{[]byte{0x60, 0x2a, 0x4d, 0x18}, None, false},
		{[]byte("<htt"), None, false},
		{[]byte("@pre"), None, false},
		{[]byte{}, None, false},
		{[]byte{0x1f}, None, false},
		{[]byte{0x28, 0xb5, 0x2f}, None, false},
	}
	for _, c := range cases {
		got, err := sniff(c.prefix)
		if got != c.want || (err != nil) != c.refused {
			t.Errorf("sniff(%x) = %v, %v; want %v, refused %v", c.prefix, got, err, c.want, c.refused)
		}
		if err != nil && (!errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), "gzip")) {
			t.Errorf("sniff(%x) refusal %v does not wrap ErrUnsupported and name gzip", c.prefix, err)
		}
	}
}

func TestByExtension(t *testing.T) {
	cases := []struct {
		path, rest string
		want       Codec
	}{
		{"dump.nt.gz", "dump.nt", Gzip},
		{"DUMP.NT.GZ", "DUMP.NT", Gzip},
		{"dump.nt", "dump.nt", None},
		{"dump", "dump", None},
	}
	for _, c := range cases {
		got, rest := ByExtension(c.path)
		if got != c.want || rest != c.rest {
			t.Errorf("ByExtension(%q) = (%v, %q), want (%v, %q)", c.path, got, rest, c.want, c.rest)
		}
	}
}

// TestTruncatedStreams cuts a valid stream at every framing region and
// asserts the mid-stream failure is a wrapped ErrTruncated — never a
// silent short read.
func TestTruncatedStreams(t *testing.T) {
	data := payload(4096)
	full := gzipBytes(t, data)
	for _, cut := range []int{1, 3, 5, len(full) / 2, len(full) - 3, len(full) - 1} {
		got, err := decodeAll(t, full[:cut], Gzip)
		if err == nil {
			t.Fatalf("truncated at %d/%d: decoded %d bytes with no error", cut, len(full), len(got))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: error %v does not wrap ErrTruncated/ErrCorrupt", cut, err)
		}
		if len(got) > len(data) {
			t.Fatalf("truncated at %d: decoded more than the input", cut)
		}
	}
}

// TestCorruptStreams flips bytes in a valid stream and asserts decode
// reports wrapped corruption (or truncation, when damage shortens
// framing) instead of returning wrong bytes silently.
func TestCorruptStreams(t *testing.T) {
	data := payload(2048)
	full := gzipBytes(t, data)
	// Corrupt the trailer checksum: content damage must be caught.
	bad := bytes.Clone(full)
	bad[len(bad)-2] ^= 0xff
	got, err := decodeAll(t, bad, Gzip)
	if err == nil && bytes.Equal(got, data) {
		t.Fatal("checksum corruption went unnoticed")
	}
	if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("corruption error %v wraps neither sentinel", err)
	}
	// Corrupt the magic: must be ErrCorrupt immediately.
	bad = bytes.Clone(full)
	bad[0] ^= 0x40
	if _, err := decodeAll(t, bad, Gzip); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic error %v does not wrap ErrCorrupt", err)
	}
}

func TestGzipConcatenatedMembers(t *testing.T) {
	a, b := payload(100), payload(300)[100:]
	stream := append(gzipBytes(t, a), gzipBytes(t, b)...)
	got, err := decodeAll(t, stream, Gzip)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(bytes.Clone(a), b...)) {
		t.Fatal("concatenated members did not decode to concatenated content")
	}
}
