// Command benchmark is the repository's end-to-end and per-layer
// benchmark (BENCHMARK.json at the root names it; README.md beside this
// file explains it). One invocation runs one workload: it generates
// inputs from -seed, boots a real rdfsumd child process on them, drives
// it over HTTP through the client package, checks every answer against
// an in-process oracle, and prints each metric by name and unit. The
// last line of standard output is the JSON result the driver reads.
//
//	bash benchmark/run.sh --workload probe-bsbm --seed 1 --seconds 30 --trace 0
//	bash benchmark/run.sh --workload scan-lubm  --seed 1 --seconds 30 --trace 1
//	bash benchmark/run.sh --all --seed 1          # every workload, untraced
//	bash benchmark/run.sh --aa 10                 # A/A self-check, calibrated bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

func main() {
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: cannot pin to one CPU:", err)
		os.Exit(1)
	}
	runtime.GOMAXPROCS(harnessProcs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	all      bool
	smoke    bool
	aa       int
	root     string
	bin      string
	out      string

	spec *spec // BENCHMARK.json, read once by resolve
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 0, "measuring budget; scales the fixed-duration windows (default: BENCHMARK.json run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.all, "all", false, "run every workload in turn")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny datasets and short windows: the shape of a run, not a measurement")
	fs.IntVar(&o.aa, "aa", 0, "A/A self-check: run every workload 2×N times, print spreads, write calibrated bounds")
	fs.StringVar(&o.root, "root", "", "checkout root, the directory holding BENCHMARK.json (run.sh passes it)")
	fs.StringVar(&o.bin, "rdfsumd", "", "the rdfsumd binary to measure (run.sh builds it from the checkout and passes it)")
	fs.StringVar(&o.out, "out", "", "scratch and trace directory (default: <root>/benchmark/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := o.resolve(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case o.aa > 0:
		return runAA(ctx, o, stdout, stderr)
	case o.all:
		code := 0
		for _, w := range workloads {
			if c := runOne(ctx, o, w, stdout, stderr); c != 0 {
				code = c
			}
		}
		return code
	}
	w := workloadByName(o.workload)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	return runOne(ctx, o, *w, stdout, stderr)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// resolve reads BENCHMARK.json and fills in the defaults. Building is
// run.sh's job: it hands over the checkout and the rdfsumd it built.
func (o *options) resolve() error {
	if o.root == "" || o.bin == "" {
		return fmt.Errorf("-root and -rdfsumd are required; start the harness through benchmark/run.sh")
	}
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		return err
	}
	if o.spec, err = readSpec(filepath.Join(o.root, "BENCHMARK.json")); err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(o.spec.RunSeconds)
	}
	if o.smoke {
		o.seconds = min(o.seconds, 2)
	}
	if o.out == "" {
		o.out = filepath.Join(o.root, "benchmark", "out")
	}
	return os.MkdirAll(o.out, 0o755)
}

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload once and prints its report and result line.
func runOne(ctx context.Context, o options, w workload, stdout, stderr io.Writer) int {
	if o.smoke {
		w = w.smoke()
	}
	env := environment(o)
	fmt.Fprintf(stdout, "== %s seed=%d seconds=%g trace=%d\n", w.name, o.seed, o.seconds, o.trace)
	for _, k := range slices.Sorted(maps.Keys(env)) {
		fmt.Fprintf(stdout, "  env %-12s %s\n", k, env[k])
	}
	rep, err := runScenario(ctx, runConfig{
		w: w, seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		bin: o.bin, outDir: o.out, log: stdout,
	})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	line, err := printReport(stdout, o.spec, rep, o.trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if o.trace == 1 {
		path := filepath.Join(o.out, "trace-"+w.name+".json")
		err := writeJSONFile(path, traceFile{
			Workload: w.name, Seed: o.seed, Env: env, Layers: rep.layers,
			SelfNS: selfByName(rep.spans), Spans: rep.spans,
		})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "  trace: %d spans in %s\n", len(rep.spans), path)
	}
	out, _ := json.Marshal(line) // a struct of numbers, strings and bools
	fmt.Fprintf(stdout, "%s\n", out)
	if !line.Correct {
		return 1
	}
	return 0
}

// printReport prints every metric measured by name and unit, the
// operation counts and any failures, and assembles the result line with
// exactly the names and units BENCHMARK.json declares.
func printReport(w io.Writer, sp *spec, rep *report, traced bool) (*resultLine, error) {
	fmt.Fprintf(w, "  inputs sha256 %s\n", rep.hash)
	for _, op := range slices.Sorted(maps.Keys(rep.ops)) {
		fmt.Fprintf(w, "  ops %-8s attempted %6d failed %d\n", op, rep.ops[op].attempted, rep.ops[op].failed)
	}
	for _, k := range slices.Sorted(maps.Keys(rep.samples)) {
		fmt.Fprintf(w, "  samples %-18s %d\n", k, rep.samples[k])
	}
	for _, f := range rep.failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  NOTE %s\n", n)
	}
	line := &resultLine{
		Correct: rep.failed() == 0, Attempted: rep.attempted(), Failed: rep.failed(),
		Metrics: map[string]metricValue{},
	}
	emit := func(kind string, declared []metricSpec, values map[string]float64, complete, result bool) error {
		for _, m := range declared {
			v, ok := values[m.Name]
			if !ok && !complete {
				continue
			}
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s metric %s was not measured (have %v)", kind, m.Name, v)
			}
			fmt.Fprintf(w, "  %-10s %-34s %14.4f %s\n", kind, m.Name, v, m.Unit)
			if result {
				line.Metrics[m.Name] = metricValue{v, m.Unit}
			}
		}
		for name := range values {
			if !declares(declared, name) {
				return fmt.Errorf("%s metric %s is measured but not declared in BENCHMARK.json", kind, name)
			}
		}
		return nil
	}
	// Every run prints what it measured. The result line carries the
	// end-to-end metrics of an untraced run, or every per-layer metric of
	// a traced one (which records spans in half its read window, so its
	// end-to-end numbers are for comparison only).
	if err := emit("end_to_end", sp.EndToEnd, rep.e2e, true, !traced); err != nil {
		return nil, err
	}
	if err := emit("per_layer", sp.PerLayer, rep.layers, traced, traced); err != nil {
		return nil, err
	}
	return line, nil
}

func declares(ms []metricSpec, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// environment describes where the numbers were taken.
func environment(o options) map[string]string {
	env := map[string]string{
		"nproc":  fmt.Sprint(strings.Count(readFile("/proc/cpuinfo"), "processor\t")),
		"cpu":    fmt.Sprintf("harness and rdfsumd pinned to CPU %s; GOMAXPROCS: harness %d, rdfsumd 1 per connection in flight (2 on mixed-bsbm)", os.Getenv(pinnedEnv), harnessProcs),
		"go":     runtime.Version(),
		"seed":   fmt.Sprint(o.seed),
		"flush":  "fsync per acknowledged batch (rdfsumd default; -no-fsync not set)",
		"caveat": "sandbox: disk latencies are the page cache's, not a device's",
		"commit": "unknown (not a git checkout)",
		"kernel": "unknown",
	}
	if k := strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")); k != "" {
		env["kernel"] = k
	}
	cmd := exec.Command("git", "-C", o.root, "rev-parse", "--short", "HEAD")
	if b, err := cmd.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(b))
	}
	return env
}

// readFile returns a small file's content, or "" when it cannot be read.
func readFile(path string) string {
	b, _ := os.ReadFile(path)
	return string(b)
}
