package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rdfsum"
	"rdfsum/internal/ntriples"
)

func TestLoadSaveRoundTrips(t *testing.T) {
	dir := t.TempDir()
	g := rdfsum.GenerateBSBM(10)

	// N-Triples path.
	nt := filepath.Join(dir, "g.nt")
	if err := save(nt, g); err != nil {
		t.Fatal(err)
	}
	back, err := load(nt)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Errorf("nt round trip: %d != %d", back.NumEdges(), g.NumEdges())
	}

	// Snapshot path.
	snap := filepath.Join(dir, "g.snapshot")
	if err := save(snap, g); err != nil {
		t.Fatal(err)
	}
	back, err = load(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Errorf("snapshot round trip: %d != %d", back.NumEdges(), g.NumEdges())
	}

	// Turtle path.
	ttl := filepath.Join(dir, "g.ttl")
	doc := "@prefix ex: <http://ex.org/> .\nex:s ex:p ex:o ; a ex:C .\n"
	if err := os.WriteFile(ttl, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	tg, err := load(ttl)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumEdges() != 2 {
		t.Errorf("ttl load: %d edges, want 2", tg.NumEdges())
	}

	// Missing -in.
	if _, err := load(""); err == nil {
		t.Error("load(\"\") must fail")
	}
}

func TestShortName(t *testing.T) {
	cases := map[string]string{
		"http://x/a#frag": "frag",
		"http://x/last":   "last",
		"urn:x:y":         "y",
		"plain":           "plain",
		"http://x/":       "http://x/",
	}
	for in, want := range cases {
		if got := shortName(in); got != want {
			t.Errorf("shortName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCmdIngest: the ingest subcommand streams an N-Triples file into a
// live store in WAL batches; reopening recovers everything, and -compact
// folds the log into a snapshot generation.
func TestCmdIngest(t *testing.T) {
	dir := t.TempDir()
	g := rdfsum.GenerateBSBM(5)
	nt := filepath.Join(dir, "g.nt")
	if err := save(nt, g); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, "store")
	if err := cmdIngest([]string{"-wal", store, "-in", nt, "-batch", "100"}); err != nil {
		t.Fatal(err)
	}
	// A second file appends on top of the first.
	if err := cmdIngest([]string{"-wal", store, "-in", nt, "-batch", "37", "-compact"}); err != nil {
		t.Fatal(err)
	}
	lv, err := rdfsum.OpenLive(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lv.Close()
	if got, want := lv.Snapshot().Graph.NumEdges(), 2*g.NumEdges(); got != want {
		t.Fatalf("store holds %d triples after two ingests, want %d", got, want)
	}

	// Flag validation.
	if err := cmdIngest([]string{"-in", nt}); err == nil {
		t.Error("ingest without -wal must fail")
	}
	if err := cmdIngest([]string{"-wal", store}); err == nil {
		t.Error("ingest without -in must fail")
	}
}

// TestCmdSummarizeSavesSummaryNotInput: `summarize -out x.snap` writes the
// summary's triples over the terms they reference. The weak summary of
// BSBM-3000 (59 k terms) is a few hundred triples: its snapshot is
// kilobytes, not the 3.4 MB of its input's dictionary, and reloads to the
// same triple set.
func TestCmdSummarizeSavesSummaryNotInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bsbm.snap")
	g := rdfsum.GenerateBSBM(3000)
	if err := save(in, g); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "weak.snap")
	stdout := os.Stdout
	os.Stdout, _ = os.Open(os.DevNull)
	err := cmdSummarize([]string{"-in", in, "-kind", "weak", "-out", out})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	// Seven 4 KiB-aligned sections bound the file from below.
	if st.Size() > 128<<10 {
		t.Errorf("saved weak summary is %d bytes; it carries its input's dictionary", st.Size())
	}
	back, err := load(out)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := rdfsum.Summarize(g, rdfsum.Weak)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.CanonicalStrings(), sum.Graph.CanonicalStrings()) {
		t.Error("saved summary reloads to a different triple set")
	}
}

// TestCmdInspectSectionCRCs: every section CRC `rdfsum inspect` prints is
// the CRC-32 (IEEE) of the file bytes at that section's offset and
// length, and the column says so — an operator re-checking a section with
// a CRC-32C tool would get a mismatch on every row. Each row's bytes per
// triple is its length over the header's triple count, and no section of
// a file this build writes is marked retired. The symbol table's line
// gives the dict-symbols row's bytes and counts packed terms out of the
// header's.
func TestCmdInspectSectionCRCs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snap")
	g := rdfsum.GenerateBSBM(20)
	if err := save(path, g); err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = cmdInspect([]string{path})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(string(printed), "\n")
	head := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(strings.TrimSpace(l), "section") })
	if head < 0 {
		t.Fatalf("no section table in:\n%s", printed)
	}
	if cols := strings.Fields(lines[head]); len(cols) != 5 || cols[3] != "B/triple" || cols[4] != "crc32-ieee" {
		t.Fatalf("section table header %q: want B/triple and crc32-ieee columns", lines[head])
	}
	triples := float64(g.NumEdges())
	rows := 0
	sizes := map[string]uint64{}
	for _, l := range lines[head+1:] {
		f := strings.Fields(l)
		if len(f) != 5 {
			break
		}
		off, err1 := strconv.ParseUint(f[1], 10, 64)
		n, err2 := strconv.ParseUint(f[2], 10, 64)
		perTriple, err3 := strconv.ParseFloat(f[3], 64)
		crc, err4 := strconv.ParseUint(f[4], 16, 32)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			t.Fatalf("section row %q: %v", l, err)
		}
		if off+n > uint64(len(file)) {
			t.Fatalf("section %s at %d (+%d) lies beyond the %d-byte file", f[0], off, n, len(file))
		}
		if got := crc32.ChecksumIEEE(file[off : off+n]); got != uint32(crc) {
			t.Errorf("section %s: printed CRC %08x, CRC-32 (IEEE) of its bytes is %08x", f[0], crc, got)
		}
		if want := float64(n) / triples; math.Abs(perTriple-want) > 0.0005 {
			t.Errorf("section %s: printed %.3f B/triple, its %d bytes over %v triples are %.4f", f[0], perTriple, n, triples, want)
		}
		sizes[f[0]] = n
		rows++
	}
	if rows != 6 {
		t.Fatalf("inspect printed %d section rows, want the snapshot's 6:\n%s", rows, printed)
	}
	var symbols, tableBytes, packed, terms int
	at := strings.Index(string(printed), "dict symbols:")
	if at < 0 {
		t.Fatalf("no symbol table line in:\n%s", printed)
	}
	if _, err := fmt.Sscanf(string(printed[at:]), "dict symbols: %d (%d bytes), packed terms: %d of %d", &symbols, &tableBytes, &packed, &terms); err != nil {
		t.Fatalf("symbol table line: %v in:\n%s", err, printed)
	}
	if symbols == 0 || uint64(tableBytes) != sizes["dict-symbols"] || packed == 0 || packed > terms || terms != g.Dict().Len() {
		t.Fatalf("symbol table line says %d symbols in %d bytes, %d of %d terms packed; dict-symbols holds %d bytes, the dictionary %d terms",
			symbols, tableBytes, packed, terms, sizes["dict-symbols"], g.Dict().Len())
	}
}

// TestCmdInspectRefusesRetiredLayout: `rdfsum inspect` of a file whose
// TOC names section 13 — a retired layout's — where dict-symbols was, so
// that it holds a retired section and no symbol table, fails with the
// store's error: the unsupported version, commit 26fbe2b as the last
// build that reads it, and the migration.
func TestCmdInspectRefusesRetiredLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := save(path, rdfsum.GenerateBSBM(5)); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	count := binary.LittleEndian.Uint32(file[12:16])
	tocOff := binary.LittleEndian.Uint64(file[48:56])
	toc := file[tocOff : tocOff+uint64(count)*21]
	for e := toc; len(e) > 0; e = e[21:] {
		if e[0] == 14 {
			e[0] = 13
		}
	}
	binary.LittleEndian.PutUint32(file[56:60], crc32.ChecksumIEEE(toc))
	binary.LittleEndian.PutUint32(file[60:64], crc32.ChecksumIEEE(file[:60]))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdInspect([]string{path})
	for _, want := range []string{"unsupported snapshot version", "section 13", "26fbe2b", "POST /v1/compact", "rdfsum convert"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("inspect of a file with section 13: got %v, want an error naming %q", err, want)
		}
	}
}

// TestCmdConvertRoundTripsThroughTurtle: `convert` of an N-Triples file to
// Turtle and back yields the input's triples — among them a blank node
// label with an inner dot, which the Turtle writer writes as it is, and
// IRIs that hold \u escapes.
func TestCmdConvertRoundTripsThroughTurtle(t *testing.T) {
	dir := t.TempDir()
	in, ttl, back := filepath.Join(dir, "g.nt"), filepath.Join(dir, "g.ttl"), filepath.Join(dir, "back.nt")
	doc := `_:a.b <http://ex.org/p> <http://ex.org/o> .
<http://ex.org/\u00e9t\u00e9> <http://ex.org/p> _:a.b .
<http://ex.org/s> <http://ex.org/p> "x"^^<http://ex.org/t\u0020y> .
<http://ex.org/s> <http://ex.org/q> <http://ex.org/a\U0000003Eb> .
`
	if err := os.WriteFile(in, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdConvert([]string{"-in", in, "-out", ttl}); err != nil {
		t.Fatal(err)
	}
	if err := cmdConvert([]string{"-in", ttl, "-out", back}); err != nil {
		t.Fatal(err)
	}
	triples := func(path string) []string {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		ts, err := ntriples.Parse(f)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, tr := range ts {
			out = append(out, tr.String())
		}
		slices.Sort(out)
		return out
	}
	if got, want := triples(back), triples(in); !reflect.DeepEqual(got, want) {
		t.Errorf("N-Triples → Turtle → N-Triples changed the triples:\ngot  %q\nwant %q", got, want)
	}
}
