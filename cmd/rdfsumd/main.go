// Command rdfsumd serves an RDF graph and its summaries over HTTP — the
// paper's "first-level user interface" use case as a small JSON service,
// extended with live updates (graphs mutate while being served) and
// WAL-shipping read replicas.
//
//	rdfsumd -in data.nt -addr :8176             # read-mostly, memory-only
//	rdfsumd -live ./store -addr :8176           # durable mutable store
//	rdfsumd -live ./store -in seed.nt           # seed a fresh store
//	rdfsumd -follow http://leader:8176          # read replica of a leader
//
// The API lives under /v1/ (see docs/http-api.md); any other path answers
// 404 not_found. Every error is the JSON envelope
// {"error":{"code":...,"message":...}}.
//
// Endpoints:
//
//	GET  /v1/healthz           liveness
//	GET  /v1/metrics           plain-text gauges: epoch, triple/WAL counts,
//	                           per-kind summary staleness, replication lag
//	GET  /v1/stats             graph size statistics + epoch/WAL counters
//	GET  /v1/summary?kind=weak summary statistics (+N-Triples or DOT body
//	                           with ?format=ntriples | dot); epoch-tagged
//	GET  /v1/profile           entity-kind profile (typed-weak based)
//	POST /v1/triples           triples body appended as one acknowledged
//	                           batch (WAL-durable with -live); N-Triples or
//	                           text/turtle, Content-Encoding gzip
//	                           accepted; a full ingest queue answers 429 +
//	                           Retry-After with code "ingest_overloaded"
//	DELETE /v1/triples         triples body removed as one acknowledged
//	                           batch (every stored copy; WAL-durable)
//	POST /v1/compact           fold the WAL into a snapshot generation
//	                           and the tiered index into a single run
//	POST /v1/query             SPARQL BGP text in the body (at most
//	                           1 MiB, else 413 "payload_too_large");
//	                           ?saturate=true evaluates against G∞,
//	                           ?limit=N caps rows (default 10000),
//	                           ?explain=true reports per-pattern
//	                           estimated vs. actual cardinalities,
//	                           ?prune=weak|strong|...|off selects the
//	                           summary-pruning gate (default weak)
//	GET  /v1/replication       replication role; on followers the catch-up
//	                           state and lag, on leaders the WAL extent
//	GET  /v1/repl/{manifest,snapshot,wal}
//	                           the WAL-shipping wire protocol followers
//	                           consume (durable stores only)
//
// Writes and reads are concurrent: queries run against immutable epoch
// snapshots while ingest proceeds. Summary-derived artifacts are cached
// per epoch and rebuilt by the first request after a write (each response
// reports the epoch it reflects). The planner's statistics (the weak
// summary's weights) feed only the estimates an explanation reports, so
// only an explained query (or any, with -slow-query-ms set) computes
// them, and they may serve up to 32 epochs behind. A follower rejects the
// mutating routes with the "read_only" error code and converges on its
// leader's state, re-bootstrapping automatically when the leader's
// compaction prunes the generation it was tailing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rdfsum"
	"rdfsum/internal/obs"
)

func main() {
	in := flag.String("in", "", "input graph (.nt, .ttl or snapshot); with -live, seeds a fresh store")
	liveDir := flag.String("live", "", "durable live-store directory (WAL + snapshots); empty = memory-only")
	follow := flag.String("follow", "", "leader base URL (e.g. http://leader:8176); serve as a read replica")
	addr := flag.String("addr", ":8176", "listen address")
	noSync := flag.Bool("no-fsync", false, "skip the per-batch fsync (faster ingest, weaker durability)")
	maintain := flag.String("maintain", "weak",
		"summary kinds kept incrementally current during ingest: a comma list of kinds, \"all\", or \"none\"")
	queueDepth := flag.Int("ingest-queue-depth", 0,
		"max batches buffered in the ingest queue before 429 (0 = default 256)")
	queueBytes := flag.Int64("ingest-queue-bytes", 0,
		"max decoded payload bytes buffered in the ingest queue before 429 (0 = default 256 MiB)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	slowQueryMS := flag.Int64("slow-query-ms", 0,
		"log queries slower than this many milliseconds with their plan (0 = disabled)")
	debugAddr := flag.String("debug-addr", "",
		"private listen address for net/http/pprof and /debug/vars (empty = disabled; never on the public mux)")
	flag.Parse()
	if *in == "" && *liveDir == "" && *follow == "" {
		fmt.Fprintln(os.Stderr, "rdfsumd: need -in, -live or -follow")
		os.Exit(2)
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfsumd: -log-level:", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfsumd: -log-format:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)
	maintained, err := parseMaintain(*maintain)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfsumd:", err)
		os.Exit(2)
	}
	srv, err := newServer(serverConfig{
		in:         *in,
		liveDir:    *liveDir,
		follow:     *follow,
		noSync:     *noSync,
		maintain:   maintained,
		queueDepth: *queueDepth,
		queueBytes: *queueBytes,
		logger:     logger,
		slowQuery:  time.Duration(*slowQueryMS) * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfsumd:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rdfsumd:", err)
		os.Exit(1)
	}
	var debug *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rdfsumd: -debug-addr:", err)
			os.Exit(1)
		}
		logger.Info("debug server listening (pprof + /debug/vars)", "addr", dln.Addr().String())
		debug = newHTTPServer(srv.debugHandler())
		go func() {
			if err := debug.Serve(dln); err != http.ErrServerClosed {
				logger.Error("debug server exited", "error", err)
			}
		}()
	}
	lv := srv.state()
	st := lv.Stats()
	mode := "memory-only"
	switch {
	case *follow != "":
		mode = fmt.Sprintf("read replica of %s", *follow)
	case st.Durable:
		mode = fmt.Sprintf("durable at %s (gen %d)", *liveDir, st.Gen)
	}
	// The exact "listening on" phrasing is load-bearing: the e2e harness
	// parses the bound address from it (tolerating the slog text
	// handler's quoting).
	logger.Info(fmt.Sprintf("rdfsumd: listening on %s", ln.Addr()))
	logger.Info(fmt.Sprintf("rdfsumd: serving %d triples, %s, epoch %d, maintaining %s",
		st.Triples, mode, st.Epoch, maintainNames(lv)))
	var bootAttrs []any
	for _, ph := range srv.bootPhases(lv) {
		bootAttrs = append(bootAttrs, ph.name+"_s", ph.d.Seconds())
	}
	logger.Info("boot phases", bootAttrs...)

	stopping, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	public := newHTTPServer(srv.handler())
	served := make(chan error, 1)
	go func() { served <- public.Serve(ln) }()
	select {
	case err := <-served:
		logger.Error("server exited", "error", err)
		os.Exit(1)
	case <-stopping.Done():
	}
	stop() // a second signal terminates at once

	// Stop accepting, let in-flight requests finish (a replication
	// long-poll may not: past the deadline its connection is cut), then
	// close the ingest queue, which waits for admitted batches, and the
	// store.
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := public.Shutdown(ctx); err != nil {
		logger.Warn("requests still in flight at the shutdown deadline; closing their connections", "error", err)
		public.Close() //nolint:errcheck // the listener is already closed
	}
	if debug != nil {
		debug.Close() //nolint:errcheck // pprof and /debug/vars hold no state
	}
	if err := srv.close(); err != nil {
		logger.Error("closing the store", "error", err)
		os.Exit(1)
	}
	logger.Info("shutdown")
}

// Listener timeouts, the same on both listeners. A connection has
// readHeaderTimeout to send its request line and headers, and an idle
// keep-alive connection is closed after idleTimeout. There is no read or
// write timeout: ingest bodies stream for as long as they take, and a
// follower's /v1/repl/wal request long-polls for up to a minute.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	// shutdownTimeout bounds how long SIGTERM waits for in-flight
	// requests before the store is closed.
	shutdownTimeout = 10 * time.Second
)

// newHTTPServer is the http.Server both listeners serve h with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// parseMaintain resolves the -maintain flag: "all" maintains every kind,
// "none" disables maintenance, and a comma list names individual kinds.
func parseMaintain(s string) ([]rdfsum.Kind, error) {
	switch strings.TrimSpace(s) {
	case "all":
		return rdfsum.Kinds, nil
	case "none":
		return []rdfsum.Kind{}, nil
	}
	var kinds []rdfsum.Kind
	for _, name := range strings.Split(s, ",") {
		kind, err := rdfsum.ParseKind(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("-maintain: %w (or \"all\" / \"none\")", err)
		}
		kinds = append(kinds, kind)
	}
	return kinds, nil
}

// maintainNames renders the maintained kinds for the startup log.
func maintainNames(lv *rdfsum.Live) string {
	kinds := lv.MaintainedKinds()
	if len(kinds) == 0 {
		return "no kinds (all lazy)"
	}
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ",")
}
