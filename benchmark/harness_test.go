package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The driver judges spreads with Python's statistics.quantiles(n=4);
// these are that function's outputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1.0, 1.2, 1.1, 5.0, 1.3})
	if math.Abs(q1-1.05) > 1e-12 || q2 != 1.2 || math.Abs(q3-3.15) > 1e-12 {
		t.Errorf("quartiles = %v %v %v, want 1.05 1.2 3.15", q1, q2, q3)
	}
}

func TestMedianSliceRidesOutABurstButNotARecurringCost(t *testing.T) {
	// A 10 s window of 1 ms operations, one completing every 2 ms. In
	// seconds 4–6 an interfering burst triples every latency and halves
	// the rate: one slice of five, so the median slice does not move.
	window := func(slow func(at time.Duration) bool) []timed {
		var ops []timed
		for at := time.Duration(0); at < 10*time.Second; {
			lat, gap := time.Millisecond, 2*time.Millisecond
			if slow(at) {
				lat, gap = 3*time.Millisecond, 4*time.Millisecond
			}
			at += gap
			ops = append(ops, timed{at, lat})
		}
		return ops
	}
	p50 := func(s slice) float64 { return s.percentile(50) }
	p90 := func(s slice) float64 { return s.percentile(90) }
	burst := cutByTime(window(func(at time.Duration) bool { return at >= 4*time.Second && at < 6*time.Second }), 10*time.Second, 5)
	if got50, got90, rate := sliceMedian(burst, p50), sliceMedian(burst, p90), sliceMedian(burst, slice.rate); got50 != 1 || got90 != 1 || math.Abs(rate-500) > 1 {
		t.Errorf("one disturbed slice: p50 %v ms, p90 %v ms, %v/s; want 1, 1, 500", got50, got90, rate)
	}
	// A cost that recurs in every slice — 0.3 s of each second — is not
	// hidden: p90 and the rate of the median slice show it.
	recurring := cutByTime(window(func(at time.Duration) bool { return at%time.Second < 300*time.Millisecond }), 10*time.Second, 5)
	if got90, rate := sliceMedian(recurring, p90), sliceMedian(recurring, slice.rate); got90 != 3 || rate > 450 {
		t.Errorf("recurring cost: p90 %v ms, %v/s; want 3 ms and well under 500/s", got90, rate)
	}
	// Slices that measured nothing have no say; no slices at all give NaN.
	sparse := []slice{{}, {lat: []time.Duration{time.Millisecond}, work: 100, span: time.Second}, {}}
	if got := sliceMedian(sparse, slice.rate); got != 100 {
		t.Errorf("median rate over one measured slice = %v, want 100", got)
	}
	if got := sliceMedian(cutByTime(nil, time.Second, 5), p50); !math.IsNaN(got) {
		t.Errorf("no operations gave %v, want NaN", got)
	}
	if got := (slice{work: 5}).rate(); !math.IsNaN(got) {
		t.Errorf("a slice of zero span has rate %v, want NaN", got)
	}
}

// simClock is a simulated time source: sleeping jumps to the target,
// and each operation advances time by its cost.
type simClock struct{ t time.Time }

func (c *simClock) clock() clock {
	return clock{
		now: func() time.Time { return c.t },
		sleepUntil: func(_ context.Context, t time.Time) {
			if t.After(c.t) {
				c.t = t
			}
		},
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ck := &simClock{t: time.Unix(1000, 0)}
	cost := []time.Duration{2, 25, 2, 2} // ms; the second overruns the 10 ms interval
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	samples := runOpenLoop(context.Background(), ck.clock(), due, func(i int) {
		ck.t = ck.t.Add(cost[i] * time.Millisecond)
	})
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// Due at 0, 10, 20, 30. The second finishes at 35, so the third (due
	// 20) is sent 15 late and the fourth (due 30) 7 late; both latencies
	// include that wait.
	wantLate := []float64{0, 0, 15, 7}
	wantLat := []float64{2, 25, 17, 9}
	for i, s := range samples {
		if ms(s.lateness) != wantLate[i] || ms(s.latency) != wantLat[i] {
			t.Errorf("op %d: lateness %v latency %v, want %v %v", i, ms(s.lateness), ms(s.latency), wantLate[i], wantLat[i])
		}
	}
	if got := ms(samples[3].doneAt); got != 39 {
		t.Errorf("last completion at %v ms, want 39", got)
	}
}

const cannedBefore = `# HELP rdfsum_wal_fsync_seconds WAL fsync latency.
# TYPE rdfsum_wal_fsync_seconds histogram
rdfsum_wal_fsync_seconds_bucket{le="0.001"} 3
rdfsum_wal_fsync_seconds_bucket{le="+Inf"} 4
rdfsum_wal_fsync_seconds_sum 0.004
rdfsum_wal_fsync_seconds_count 4
rdfsum_http_request_duration_seconds_sum{route="/v1/query",method="POST",code="200"} 1.5
rdfsum_http_request_duration_seconds_count{route="/v1/query",method="POST",code="200"} 10
rdfsum_http_request_duration_seconds_sum{route="/v1/query",method="POST",code="400"} 0.5
rdfsum_http_request_duration_seconds_count{route="/v1/query",method="POST",code="400"} 2
rdfsum_http_request_duration_seconds_sum{route="/v1/stats",method="GET",code="200"} 9
rdfsum_http_request_duration_seconds_count{route="/v1/stats",method="GET",code="200"} 9
rdfsum_summary_lazy_builds_total{kind="strong",mode="lazy"} 2
rdfsum_summary_lazy_builds_total{kind="weak",mode="maintained"} 0
rdfsum_triples 1000
`

const cannedAfter = `rdfsum_wal_fsync_seconds_sum 0.010
rdfsum_wal_fsync_seconds_count 7
rdfsum_http_request_duration_seconds_sum{route="/v1/query",method="POST",code="200"} 2.5
rdfsum_http_request_duration_seconds_count{route="/v1/query",method="POST",code="200"} 20
rdfsum_http_request_duration_seconds_sum{route="/v1/query",method="POST",code="400"} 0.5
rdfsum_http_request_duration_seconds_count{route="/v1/query",method="POST",code="400"} 2
rdfsum_http_request_duration_seconds_sum{route="/v1/stats",method="GET",code="200"} 99
rdfsum_http_request_duration_seconds_count{route="/v1/stats",method="GET",code="200"} 99
rdfsum_summary_lazy_builds_total{kind="strong",mode="lazy"} 5
rdfsum_summary_lazy_builds_total{kind="weak",mode="maintained"} 1
rdfsum_triples 1200 1700000000000
`

func TestScrapeDiff(t *testing.T) {
	before, err := parseExposition(strings.NewReader(cannedBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(cannedAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := scrapeDiff{before, after}
	if mean, n := d.histMean("rdfsum_wal_fsync_seconds"); n != 3 || math.Abs(mean-0.002) > 1e-12 {
		t.Errorf("fsync mean %v over %v, want 0.002 over 3", mean, n)
	}
	// One route across status codes; other routes excluded.
	if mean, n := d.histMean("rdfsum_http_request_duration_seconds", `route="/v1/query"`); n != 10 || math.Abs(mean-0.1) > 1e-12 {
		t.Errorf("query route mean %v over %v, want 0.1 over 10", mean, n)
	}
	if got := d.delta("rdfsum_summary_lazy_builds_total"); got != 4 {
		t.Errorf("lazy builds delta %v, want 4", got)
	}
	if got := d.delta("rdfsum_triples"); got != 200 {
		t.Errorf("triples delta %v (timestamped sample), want 200", got)
	}
	if mean, n := d.histMean("rdfsum_index_fold_seconds"); mean != 0 || n != 0 {
		t.Errorf("absent family gave %v over %v", mean, n)
	}
	if _, err := parseExposition(strings.NewReader("rdfsum_triples\n")); err == nil {
		t.Error("a line without a value should not parse")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "parse", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "execute", Start: 25, End: 60}, // overlaps parse by 5
		{ID: 4, Parent: 3, Name: "scan", Start: 30, End: 50},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past its parent
	}
	computeSelf(spans)
	want := map[string]int64{"request": 100 - 20 - 30 - 10, "parse": 20, "execute": 35 - 20, "scan": 20, "late": 30}
	for name, w := range want {
		if got := selfByName(spans)[name]; got != w {
			t.Errorf("self(%s) = %d, want %d", name, got, w)
		}
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", 0, 0)) // a nil tracer records nothing and must not panic
}

func TestGeneratorDeterminism(t *testing.T) {
	w := workloadByName("probe-bsbm").smoke()
	gen := func(seed uint64) *inputs {
		in, err := generateInputs(&w, seed, 12, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := gen(7), gen(7), gen(8)
	if a.hash != b.hash {
		t.Errorf("same seed, different inputs: %s vs %s", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Error("different seeds gave identical inputs")
	}
	da, _ := os.ReadFile(a.dumpPath)
	db, _ := os.ReadFile(b.dumpPath)
	if !bytes.Equal(da, db) {
		t.Error("same seed, dumps differ")
	}
	// Every written triple has a subject no base triple has and no other
	// batch has, so adds never duplicate and deletes remove exactly a batch.
	subjects := map[string]int{}
	for _, tr := range a.base {
		subjects[tr.S.Value] = -1
	}
	for i, batch := range a.batches {
		if len(batch) != w.addSize {
			t.Fatalf("batch %d has %d triples, want %d", i, len(batch), w.addSize)
		}
		for _, tr := range batch {
			if owner, seen := subjects[tr.S.Value]; seen && owner != i {
				t.Fatalf("batch %d reuses subject %s (owner %d)", i, tr.S.Value, owner)
			}
			subjects[tr.S.Value] = i
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesHarness holds BENCHMARK.json to the driver's limits
// and to the workload table compiled into the harness.
func TestSpecMatchesHarness(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d compiled in", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, harness %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(m metricSpec) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q unit %q: bad or repeated name, or bad unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	var setup float64
	for _, m := range sp.EndToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("metric %s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s and lower-is-better")
			}
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setup {
			t.Errorf("metric %s has bound %v above setup_s's %v; setup_s takes the largest", m.Name, m.Bound, setup)
		}
	}
	for _, m := range sp.PerLayer {
		check(m)
	}
	if len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(sp.EndToEnd), len(sp.PerLayer))
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
}

// TestSmokeEmitsDeclaredMetrics runs every workload at smoke size,
// untraced and traced, against a real rdfsumd, and checks the result
// line: correct, nothing failed, and exactly the declared metrics with
// their declared units. It goes through run.sh, the one entry point,
// which builds rdfsumd and the harness; -short skips it.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots rdfsumd")
	}
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range workloads {
		for trace, declared := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command("bash", "run.sh", "--workload", w.name, "--smoke", "--seconds", "1", "--seed", "3", "--out", out, "--trace", fmt.Sprint(trace))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s\n%s", w.name, trace, err, stderr.String(), stdout.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: %+v", w.name, trace, res)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (emitted %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: traced run left no trace file: %v", w.name, err)
				}
			}
		}
	}
	if entries, _ := os.ReadDir(out); len(entries) != len(workloads) {
		t.Errorf("out dir holds %d entries after the runs, want the %d trace files only", len(entries), len(workloads))
	}
}
