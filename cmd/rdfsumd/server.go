package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"rdfsum"
	"rdfsum/internal/httpapi"
	"rdfsum/internal/obs"
	"rdfsum/internal/profile"
	"rdfsum/internal/repl"
)

// Query row limits: the default when the client sends none, and the hard
// cap a client-supplied ?limit may not exceed.
const (
	defaultQueryLimit = 10_000
	maxQueryLimit     = 100_000
)

// maxIngestBody bounds a POST /v1/triples body.
const maxIngestBody = 64 << 20

// maxQueryBody bounds a POST /v1/query body, the query text.
const maxQueryBody = 1 << 20

// server fronts a live graph store. All reads go through the store's
// published epoch snapshots, so they are consistent and wait-free under
// concurrent ingest. What is derived from an epoch — summaries, pruning
// gates, G∞, planner weights — the store caches itself, so the server
// keeps no per-epoch state.
type server struct {
	lv       *rdfsum.Live        // fixed store; nil on followers
	queue    *rdfsum.IngestQueue // bounded ingest admission; nil on followers
	follower *repl.Follower      // non-nil on read replicas (-follow)
	leader   *repl.Leader        // non-nil on durable stores (serves /v1/repl)

	// bootLoad is how long newServer spent loading the -in dump or
	// snapshot; the store's own boot phases come from Live.BootTimings.
	bootLoad time.Duration

	// Observability: the per-instance registry (store gauges sampled at
	// scrape time + HTTP histograms; merged with obs.Default by
	// /metrics), the request middleware handles, structured logging, and
	// the slow-query log.
	reg    *obs.Registry
	httpm  *obs.HTTPMetrics
	logger *slog.Logger
	slow   *obs.SlowQueryLog
}

// serverConfig collects rdfsumd's startup knobs.
type serverConfig struct {
	in         string // input graph (.nt/.ttl, optionally .gz, or snapshot); seeds -live
	liveDir    string // durable store directory ("" = memory-only)
	follow     string // leader base URL; makes this a read replica
	noSync     bool
	maintain   []rdfsum.Kind
	queueDepth int   // ingest queue batch bound (0 = default)
	queueBytes int64 // ingest queue byte budget (0 = default)

	logger    *slog.Logger  // structured log sink (nil = slog.Default())
	slowQuery time.Duration // slow-query log threshold (0 = disabled)
}

// newServer builds the serving state. With cfg.follow set the server is a
// read-only replica: it bootstraps from the leader's snapshot and tails
// its WAL (see internal/repl). Otherwise, when cfg.liveDir is set the
// store is durable (WAL + snapshots in that directory) and cfg.in — if
// any — seeds a fresh store; without it cfg.in is loaded into a
// memory-only live store. cfg.maintain lists the summary kinds the quotient engine keeps
// incrementally current (nil = weak only).
func newServer(cfg serverConfig) (*server, error) {
	logger := cfg.logger
	if logger == nil {
		logger = slog.Default()
	}
	if cfg.follow != "" {
		if cfg.in != "" || cfg.liveDir != "" {
			return nil, fmt.Errorf("-follow is exclusive with -in and -live: a replica's only data source is its leader")
		}
		f, err := repl.NewFollower(cfg.follow, repl.FollowerOptions{
			Maintain: cfg.maintain,
			Logger:   logger,
		})
		if err != nil {
			return nil, err
		}
		f.Start()
		s := &server{follower: f}
		s.initObs(logger, cfg.slowQuery)
		return s, nil
	}
	if cfg.in != "" && cfg.liveDir != "" && rdfsum.LiveHasState(cfg.liveDir) {
		// A seed only applies to a fresh store; skip the (possibly huge)
		// load instead of parsing and silently discarding it.
		logger.Warn("seed input ignored: live store already has state",
			"in", cfg.in, "live", cfg.liveDir)
		cfg.in = ""
	}
	var seed *rdfsum.Graph
	var bootLoad time.Duration
	if cfg.in != "" {
		var err error
		t0 := time.Now()
		// Names declaring an RDF dump — .nt/.ttl, with or without a
		// .gz layer — stream through the format-aware loader;
		// anything else is read as a binary snapshot.
		if format, codec := rdfsum.DetectFile(cfg.in); format != rdfsum.FormatAuto || codec != rdfsum.CompressionNone {
			seed, err = rdfsum.LoadFile(cfg.in, nil)
		} else {
			seed, err = rdfsum.LoadSnapshot(cfg.in)
		}
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", cfg.in, err)
		}
		bootLoad = time.Since(t0)
	}
	opts := &rdfsum.LiveOptions{
		NoSync: cfg.noSync, Seed: seed, Maintain: cfg.maintain,
	}
	var lv *rdfsum.Live
	if cfg.liveDir != "" {
		var err error
		lv, err = rdfsum.OpenLive(cfg.liveDir, opts)
		if err != nil {
			return nil, err
		}
		if lv.RecoveredTorn {
			logger.Warn("WAL recovery dropped a torn tail (crash mid-append); acknowledged batches are intact")
		}
	} else {
		lv = rdfsum.NewLive(seed, opts)
	}
	s := &server{lv: lv, queue: rdfsum.NewIngestQueue(lv, cfg.queueDepth, cfg.queueBytes), bootLoad: bootLoad}
	if lv.Durable() {
		s.leader = repl.NewLeader(lv)
	}
	s.initObs(logger, cfg.slowQuery)
	return s, nil
}

// initObs wires the server's observability: its per-instance metric
// registry (merged with the process-wide obs.Default at scrape time),
// the HTTP middleware instrumentation, the structured logger, and the
// slow-query log. Every pre-existing rdfsum_* series keeps its exact
// name and label set; values are sampled from the serving state by a
// scrape hook just before each exposition.
func (s *server) initObs(logger *slog.Logger, slowQuery time.Duration) {
	if logger == nil {
		logger = slog.Default()
	}
	s.logger = logger
	s.slow = &obs.SlowQueryLog{Threshold: slowQuery, Logger: logger}
	s.reg = obs.NewRegistry()
	s.httpm = obs.NewHTTPMetrics(s.reg)

	r := s.reg
	epoch := r.Gauge("rdfsum_epoch", "Current published epoch of the serving store.")
	triples := r.Gauge("rdfsum_triples", "Triples in the current epoch snapshot.")
	added := r.Counter("rdfsum_added_total", "Triples added over the store's lifetime.")
	deleted := r.Counter("rdfsum_deleted_total", "Triple copies deleted over the store's lifetime.")
	durable := r.Gauge("rdfsum_durable", "1 when the store is durable (WAL + snapshots), 0 when memory-only.")
	readOnly := r.Gauge("rdfsum_read_only", "1 when this server is a read-only follower.")
	generation := r.Gauge("rdfsum_generation", "Snapshot generation of the durable store.")
	walBytes := r.Gauge("rdfsum_wal_bytes", "Bytes in the current WAL generation.")
	indexRuns := r.Gauge("rdfsum_index_runs", "Runs in the tiered delta index.")
	indexTombs := r.Gauge("rdfsum_index_tombstones", "Tombstones pending in the tiered delta index.")
	dictTerms := r.Gauge("rdfsum_dict_terms", "Terms in the store's dictionary, which the next snapshot writes in full.")
	// wal_records is only rendered where the legacy exposition rendered
	// it: stores whose ReplState resolves, i.e. durable leaders.
	var walRecords *obs.Gauge
	if s.lv != nil && s.lv.Durable() {
		walRecords = r.Gauge("rdfsum_wal_records", "Records in the current WAL generation.")
	}
	var qDepth, qMaxDepth, qBytes, qMaxBytes *obs.Gauge
	var qRejected *obs.Counter
	if s.queue != nil {
		qDepth = r.Gauge("rdfsum_ingest_queue_depth", "Batches waiting in the bounded ingest queue.")
		qMaxDepth = r.Gauge("rdfsum_ingest_queue_max_depth", "Ingest queue batch capacity.")
		qBytes = r.Gauge("rdfsum_ingest_queue_bytes", "Payload bytes buffered in the ingest queue.")
		qMaxBytes = r.Gauge("rdfsum_ingest_queue_max_bytes", "Ingest queue byte budget.")
		qRejected = r.Counter("rdfsum_ingest_queue_rejected_total", "Batches shed with 429 by the saturated ingest queue.")
	}
	var lagBytes, lagRecords, lagEpochs, appliedRecords, tailing *obs.Gauge
	var bootstraps *obs.Counter
	if s.follower != nil {
		lagBytes = r.Gauge("rdfsum_replication_lag_bytes", "WAL bytes the follower trails its leader by.")
		lagRecords = r.Gauge("rdfsum_replication_lag_records", "WAL records the follower trails its leader by.")
		lagEpochs = r.Gauge("rdfsum_replication_lag_epochs", "Leader epochs the follower trails by.")
		appliedRecords = r.Gauge("rdfsum_replication_applied_records", "WAL records applied in the current generation.")
		bootstraps = r.Counter("rdfsum_replication_bootstraps_total", "Snapshot bootstraps performed by this follower.")
		tailing = r.Gauge("rdfsum_replication_tailing", "1 while the follower is tailing the leader's WAL.")
	}
	sumEpoch := r.GaugeVec("rdfsum_summary_epoch", "Epoch of the last materialized summary, per kind.", "kind", "mode")
	sumStaleness := r.GaugeVec("rdfsum_summary_staleness", "Epochs the cached summary trails the store by, per kind.", "kind", "mode")
	sumLazy := r.CounterVec("rdfsum_summary_lazy_builds_total", "Full summary rebuilds served lazily, per kind.", "kind", "mode")
	sumRebuilds := r.CounterVec("rdfsum_summary_maintenance_rebuilds_total", "Incremental-maintenance rebuilds, per kind.", "kind", "mode")
	bootSeconds := r.GaugeVec("rdfsum_boot_phase_seconds", "Seconds the serving store's boot spent in each phase (0 for a phase it did not go through).", "phase")
	memBytes := r.GaugeVec("rdfsum_memory_bytes", "Bytes the store's largest structures hold, computed from their own lengths: heap bytes (index_heap: slice runs at 36 B a triple, encoded folds' payloads, fences), but for index_mapped's mapped file bytes.", "component")
	registerProcessMemory(r)

	boolGauge := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	r.OnScrape(func() {
		lv := s.state()
		st := lv.Stats()
		epoch.Set(float64(st.Epoch))
		triples.Set(float64(st.Triples))
		added.Set(float64(st.Added))
		deleted.Set(float64(st.Deleted))
		durable.Set(boolGauge(st.Durable))
		readOnly.Set(boolGauge(s.readOnly()))
		generation.Set(float64(st.Gen))
		walBytes.Set(float64(st.WALBytes))
		indexRuns.Set(float64(st.IndexRuns))
		indexTombs.Set(float64(st.IndexTombs))
		dictTerms.Set(float64(st.DictTerms))
		memBytes.With("dict").Set(float64(st.DictBytes))
		memBytes.With("graph_components").Set(float64(st.GraphBytes))
		memBytes.With("index_heap").Set(float64(st.IndexHeapBytes))
		memBytes.With("index_mapped").Set(float64(st.IndexMappedBytes))
		if walRecords != nil {
			if rs, err := lv.ReplState(); err == nil {
				walRecords.Set(float64(rs.WALRecords))
			}
		}
		if s.queue != nil {
			qs := s.queue.Stats()
			qDepth.Set(float64(qs.Depth))
			qMaxDepth.Set(float64(qs.MaxDepth))
			qBytes.Set(float64(qs.Bytes))
			qMaxBytes.Set(float64(qs.MaxBytes))
			qRejected.Set(float64(qs.Rejected))
		}
		if s.follower != nil {
			fs := s.follower.Status()
			lagBytes.Set(float64(fs.LagBytes))
			lagRecords.Set(float64(fs.LagRecords))
			lagEpochs.Set(float64(fs.LagEpochs))
			appliedRecords.Set(float64(fs.AppliedRecords))
			bootstraps.Set(float64(fs.Bootstraps))
			tailing.Set(boolGauge(fs.State == repl.StateTailing))
		}
		for _, ph := range s.bootPhases(lv) {
			bootSeconds.With(ph.name).Set(ph.d.Seconds())
		}
		for _, ks := range lv.Status() {
			mode := "lazy"
			if ks.Maintained {
				mode = "maintained"
			}
			kind := ks.Kind.String()
			sumEpoch.With(kind, mode).Set(float64(ks.CachedEpoch))
			// How far the last materialized summary trails the store. A
			// kind is materialized only when asked for, so even a
			// maintained kind's last build trails until the next request
			// (0 until a kind is first materialized).
			staleness := uint64(0)
			if ks.CachedEpoch > 0 && st.Epoch > ks.CachedEpoch {
				staleness = st.Epoch - ks.CachedEpoch
			}
			sumStaleness.With(kind, mode).Set(float64(staleness))
			sumLazy.With(kind, mode).Set(float64(ks.LazyBuilds))
			sumRebuilds.With(kind, mode).Set(float64(ks.Rebuilds))
		}
	})
}

// registerProcessMemory adds the process's own memory account, sampled at
// scrape time: what the kernel counts resident now and at its peak
// (/proc/self/status; the two series are absent where that file is not), and
// the three numbers of the Go heap that say where resident memory beyond
// the live heap comes from — what the last collection found live, the
// size the collector lets the heap grow to before the next one, and what
// it has handed back to the OS.
func registerProcessMemory(r *obs.Registry) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	heap := []*obs.Gauge{
		r.Gauge("rdfsum_go_heap_live_bytes", "Heap bytes the last garbage collection found live."),
		r.Gauge("rdfsum_go_heap_goal_bytes", "Heap size at which the next garbage collection starts."),
		r.Gauge("rdfsum_go_heap_released_bytes", "Heap bytes returned to the operating system."),
	}
	var resident, residentPeak *obs.Gauge
	if _, _, ok := residentBytes(); ok {
		resident = r.Gauge("rdfsum_process_resident_bytes", "Resident set size of the process (VmRSS).")
		residentPeak = r.Gauge("rdfsum_process_resident_peak_bytes", "Highest resident set size the process has had (VmHWM).")
	}
	r.OnScrape(func() {
		metrics.Read(samples)
		for i, g := range heap {
			if samples[i].Value.Kind() == metrics.KindUint64 {
				g.Set(float64(samples[i].Value.Uint64()))
			}
		}
		if resident != nil {
			if rss, hwm, ok := residentBytes(); ok {
				resident.Set(float64(rss))
				residentPeak.Set(float64(hwm))
			}
		}
	})
}

// residentBytes reads VmRSS and VmHWM from /proc/self/status.
func residentBytes() (rss, hwm int64, ok bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0, false
	}
	found := 0
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line) // "VmRSS:", "143212", "kB"
		if len(f) != 3 || (f[0] != "VmRSS:" && f[0] != "VmHWM:") {
			continue
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if found++; f[0] == "VmRSS:" {
			rss = kb << 10
		} else {
			hwm = kb << 10
		}
	}
	return rss, hwm, found == 2
}

// bootPhase is one named slice of the boot's wall time.
type bootPhase struct {
	name string
	d    time.Duration
}

// bootPhases decomposes the boot of the store being served: the dump
// load done by newServer, then the phases of the live store's Open. On a
// follower lv is the current bootstrap's store and load is zero.
func (s *server) bootPhases(lv *rdfsum.Live) []bootPhase {
	bt := lv.BootTimings()
	return []bootPhase{
		{"load", s.bootLoad},
		{"decode", bt.Decode},
		{"builders", bt.Builders},
		{"snapshot", bt.Snapshot},
		{"wal_replay", bt.WALReplay},
		{"index", bt.Index},
	}
}

// state returns the live store to serve this request from. Handlers call
// it once and thread the store through, so one request never mixes
// stores across a concurrent re-bootstrap.
func (s *server) state() *rdfsum.Live {
	if s.follower != nil {
		return s.follower.Live()
	}
	return s.lv
}

// readOnly reports whether this server rejects mutations (it is a
// replica; writes go to its leader).
func (s *server) readOnly() bool { return s.follower != nil }

// close releases the serving state: a follower stops its replication
// loop; otherwise the ingest queue waits for its admitted batches to
// commit, then the store shuts down.
func (s *server) close() error {
	if s.follower != nil {
		return s.follower.Close()
	}
	s.queue.Close()
	return s.lv.Close()
}

// mutating gates a write handler: followers reject it with the
// "read_only" error code instead of diverging from their leader.
func (s *server) mutating(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.readOnly() {
			httpapi.WriteError(w, httpapi.Errorf(http.StatusForbidden, httpapi.CodeReadOnly,
				"this replica is a read-only follower of %s; send writes to the leader", s.follower.Status().Leader))
			return
		}
		h(w, r)
	}
}

func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n") //nolint:errcheck
	})
	m.HandleFunc("GET /v1/metrics", s.handleMetrics)
	m.HandleFunc("GET /v1/stats", s.handleStats)
	m.HandleFunc("GET /v1/summary", s.handleSummary)
	m.HandleFunc("GET /v1/profile", s.handleProfile)
	m.HandleFunc("POST /v1/query", s.handleQuery)
	m.HandleFunc("POST /v1/triples", s.mutating(s.handleTriples))
	m.HandleFunc("DELETE /v1/triples", s.mutating(s.handleDeleteTriples))
	m.HandleFunc("POST /v1/compact", s.mutating(s.handleCompact))
	m.HandleFunc("GET /v1/replication", s.handleReplication)
	if s.leader != nil {
		s.leader.Mount(m, "/v1/repl")
	}
	// Unknown paths get the JSON envelope, not the stdlib text 404.
	m.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusNotFound, httpapi.CodeNotFound,
			"no such route %s (the API lives under /v1/)", r.URL.Path))
	})
	return m
}

// handler wraps the mux with the observability middleware: per-route
// latency/size histograms, a request ID accepted or generated and
// echoed as X-Request-Id, and one structured log line per request
// (health checks and metrics scrapes at debug).
func (s *server) handler() http.Handler {
	return obs.Middleware(s.mux(), s.httpm, s.logger)
}

// debugHandler builds the -debug-addr mux: net/http/pprof plus a
// /debug/vars-style JSON dump of both metric registries. Never mounted
// on the public handler.
func (s *server) debugHandler() http.Handler {
	m := http.NewServeMux()
	mountPprof(m)
	m.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		obs.DumpJSON(w, s.reg, obs.Default)
	})
	return m
}

// handleMetrics exposes the serving metrics in the Prometheus text
// exposition format: the per-instance registry (store epoch, triple/WAL
// counts, per-kind summary staleness, replication lag on a replica,
// per-route HTTP latency histograms) merged with the process-wide
// registry of hot-path timings (WAL append/fsync, epoch publish, query
// stages, index folds, replication apply).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	obs.WriteExposition(w, s.reg, obs.Default)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	lv := s.state()
	snap := lv.Snapshot()
	st := lv.Stats()
	g := snap.Graph
	resp := map[string]any{
		"triples":          g.NumEdges(),
		"data_triples":     len(g.Data),
		"type_triples":     len(g.Types),
		"schema_triples":   len(g.Schema),
		"data_nodes":       len(g.DataNodes()),
		"class_nodes":      len(g.ClassNodes()),
		"properties":       len(g.DistinctDataProperties()),
		"epoch":            snap.Epoch,
		"durable":          st.Durable,
		"read_only":        s.readOnly(),
		"wal_bytes":        st.WALBytes,
		"generation":       st.Gen,
		"deleted":          st.Deleted,
		"index_runs":       st.IndexRuns,
		"index_tombstones": st.IndexTombs,
		"dict_terms":       st.DictTerms,
	}
	if s.queue != nil {
		qs := s.queue.Stats()
		resp["ingest_queue_depth"] = qs.Depth
		resp["ingest_queue_max_depth"] = qs.MaxDepth
		resp["ingest_queue_bytes"] = qs.Bytes
		resp["ingest_queue_max_bytes"] = qs.MaxBytes
		resp["ingest_queue_rejected"] = qs.Rejected
	}
	httpapi.WriteJSON(w, resp)
}

// handleReplication reports this server's replication role: followers
// return their catch-up state and lag, leaders their shippable WAL
// extent, and standalone memory-only stores just their role.
func (s *server) handleReplication(w http.ResponseWriter, _ *http.Request) {
	if s.follower != nil {
		httpapi.WriteJSON(w, struct {
			Role    string `json:"role"`
			Durable bool   `json:"durable"`
			repl.FollowerStatus
		}{"follower", false, s.follower.Status()})
		return
	}
	lv := s.state()
	resp := map[string]any{
		"role":    "standalone",
		"durable": lv.Durable(),
		"epoch":   lv.Epoch(),
	}
	if s.leader != nil {
		resp["role"] = "leader"
		if rs, err := lv.ReplState(); err == nil {
			resp["epoch"] = rs.Epoch
			resp["generation"] = rs.Gen
			resp["wal_bytes"] = rs.WALSize
			resp["wal_records"] = rs.WALRecords
		}
	}
	httpapi.WriteJSON(w, resp)
}

func (s *server) handleSummary(w http.ResponseWriter, r *http.Request) {
	kind, err := kindParam(r, "kind", "weak")
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	lv := s.state()
	sum, epoch, err := lv.Summary(kind, 0)
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		httpapi.WriteJSON(w, map[string]any{
			"kind":        kind.String(),
			"data_nodes":  sum.Stats.DataNodes,
			"all_nodes":   sum.Stats.AllNodes,
			"data_edges":  sum.Stats.DataEdges,
			"all_edges":   sum.Stats.AllEdges,
			"compression": sum.Stats.CompressionRatio(),
			"epoch":       epoch,
			"stale":       lv.Epoch() - epoch,
		})
	case "ntriples":
		w.Header().Set("Content-Type", "application/n-triples")
		if err := rdfsum.WriteNTriples(w, sum.Graph.Decode()); err != nil {
			httpapi.WriteError(w, err)
		}
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		if err := rdfsum.ExportDOT(w, sum.Graph, kind.String()+" summary"); err != nil {
			httpapi.WriteError(w, err)
		}
	default:
		httpapi.WriteError(w, httpapi.Errorf(http.StatusBadRequest, httpapi.CodeInvalidArgument,
			"unknown format %q (want json, ntriples or dot)", r.URL.Query().Get("format")))
	}
}

func (s *server) handleProfile(w http.ResponseWriter, _ *http.Request) {
	lv := s.state()
	sum, epoch, err := lv.Summary(rdfsum.TypedWeak, 0)
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	p := profile.Build(sum)
	type kindJSON struct {
		Label         string   `json:"label"`
		Instances     int      `json:"instances"`
		Attributes    []string `json:"attributes,omitempty"`
		Relationships []string `json:"relationships,omitempty"`
	}
	out := make([]kindJSON, 0, len(p.Kinds))
	for _, k := range p.Kinds {
		out = append(out, kindJSON{k.Label(), k.Instances, k.Attributes, k.Relationships})
	}
	httpapi.WriteJSON(w, map[string]any{
		"triples": p.InputTriples,
		"nodes":   p.InputNodes,
		"kinds":   out,
		"epoch":   epoch,
	})
}

// ingestCodec maps a request's Content-Encoding header to a decode
// codec. The error is a ready-to-write envelope for unsupported values.
func ingestCodec(r *http.Request) (rdfsum.Compression, error) {
	switch enc := strings.ToLower(strings.TrimSpace(r.Header.Get("Content-Encoding"))); enc {
	case "", "identity":
		return rdfsum.CompressionNone, nil
	case "gzip":
		return rdfsum.CompressionGzip, nil
	default:
		return rdfsum.CompressionNone, httpapi.Errorf(http.StatusUnsupportedMediaType, httpapi.CodeUnsupportedEncoding,
			"Content-Encoding %q is not supported (use identity or gzip)", enc)
	}
}

// ingestFormat maps a request's Content-Type header to an RDF format.
func ingestFormat(r *http.Request) (rdfsum.Format, error) {
	ct := strings.ToLower(strings.TrimSpace(r.Header.Get("Content-Type")))
	if i := strings.IndexByte(ct, ';'); i >= 0 { // drop parameters (charset=...)
		ct = strings.TrimSpace(ct[:i])
	}
	switch ct {
	case "", "application/n-triples", "text/plain", "application/octet-stream":
		return rdfsum.FormatNTriples, nil
	case "text/turtle", "application/x-turtle":
		return rdfsum.FormatTurtle, nil
	default:
		return rdfsum.FormatAuto, httpapi.Errorf(http.StatusUnsupportedMediaType, httpapi.CodeUnsupportedMediaType,
			"Content-Type %q is not a supported RDF serialization (use application/n-triples or text/turtle)", ct)
	}
}

// parseTriplesBody parses a triples request body straight off the wire —
// no body buffering — honoring Content-Encoding (identity, gzip;
// decoded as a streaming stage) and Content-Type (N-Triples, Turtle),
// with the ingest cap enforced on the DECODED bytes so a small
// compressed bomb cannot expand past the budget. Nothing is applied
// until the whole body parsed — a truncated or corrupt stream rejects
// the request and changes no state. On failure the response has been
// written. The byte count returned is the decoded payload size, the
// ingest queue's admission currency.
func parseTriplesBody(w http.ResponseWriter, r *http.Request) ([]rdfsum.Triple, int64, bool) {
	codec, err := ingestCodec(r)
	if err != nil {
		httpapi.WriteError(w, err)
		return nil, 0, false
	}
	format, err := ingestFormat(r)
	if err != nil {
		httpapi.WriteError(w, err)
		return nil, 0, false
	}
	lr := &io.LimitedReader{N: maxIngestBody + 1}
	dec, err := rdfsum.NewCompressionReader(r.Body, codec)
	if err != nil {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusBadRequest, httpapi.CodeParse, "%v", err))
		return nil, 0, false
	}
	defer dec.Close()
	lr.R = dec
	var triples []rdfsum.Triple
	parseErr := rdfsum.Stream(lr, &rdfsum.LoadOptions{Format: format, Compression: rdfsum.CompressionNone},
		func(t rdfsum.Triple) error {
			triples = append(triples, t)
			return nil
		})
	if lr.N == 0 { // the cap (plus its sentinel byte) was consumed
		// Refuse rather than apply a silently truncated prefix (the
		// parse error, if any, is an artifact of the cut).
		httpapi.WriteError(w, httpapi.Errorf(http.StatusRequestEntityTooLarge, httpapi.CodeTooLarge,
			"decoded body exceeds %d bytes; split the request into smaller batches", maxIngestBody))
		return nil, 0, false
	}
	if parseErr != nil {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusBadRequest, httpapi.CodeParse, "%v", parseErr))
		return nil, 0, false
	}
	return triples, maxIngestBody + 1 - lr.N, true
}

// ingestRetryAfter is the backoff hint stamped on 429 responses.
const ingestRetryAfter = "1"

// writeOverloaded reports a saturated ingest queue: 429, a Retry-After
// hint, and the stable ingest_overloaded code clients branch on.
func writeOverloaded(w http.ResponseWriter, st rdfsum.IngestQueueStats) {
	w.Header().Set("Retry-After", ingestRetryAfter)
	httpapi.WriteError(w, httpapi.Errorf(http.StatusTooManyRequests, httpapi.CodeIngestOverloaded,
		"ingest queue is full (%d batches, %d bytes buffered); retry after a backoff", st.Depth, st.Bytes))
}

// handleTriples ingests a triples body (N-Triples or Turtle, optionally
// gzip-compressed) as one acknowledged batch: the parsed batch goes
// through the bounded ingest queue — a saturated queue answers 429 with
// Retry-After rather than buffering without limit — then is WAL-logged
// and fsynced (durable stores), applied to the graph and the incremental
// weak summary, and published as a new epoch, all while concurrent
// queries keep reading their snapshots. Followers never get here:
// mutating answers them first, so s.lv and s.queue are set.
func (s *server) handleTriples(w http.ResponseWriter, r *http.Request) {
	triples, bytes, ok := parseTriplesBody(w, r)
	if !ok {
		return
	}
	_, epoch, err := s.queue.Add(triples, bytes)
	if errors.Is(err, rdfsum.ErrIngestQueueFull) {
		writeOverloaded(w, s.queue.Stats())
		return
	}
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	httpapi.WriteJSON(w, map[string]any{
		"added":   len(triples),
		"triples": s.lv.Snapshot().Graph.NumEdges(),
		"epoch":   epoch,
		"durable": s.lv.Durable(),
	})
}

// handleDeleteTriples removes every stored copy of the triples in an
// N-Triples body as one acknowledged batch: the deletion is WAL-logged
// and fsynced (durable stores), the graph and maintained summaries
// shrink, and a tombstone run publishes in the tiered index. Concurrent
// queries on earlier epochs are unaffected. Triples not present are
// ignored; "removed" reports the copies actually deleted.
func (s *server) handleDeleteTriples(w http.ResponseWriter, r *http.Request) {
	triples, bytes, ok := parseTriplesBody(w, r)
	if !ok {
		return
	}
	removed, epoch, err := s.queue.Delete(triples, bytes)
	if errors.Is(err, rdfsum.ErrIngestQueueFull) {
		writeOverloaded(w, s.queue.Stats())
		return
	}
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	httpapi.WriteJSON(w, map[string]any{
		"removed": removed,
		"triples": s.lv.Snapshot().Graph.NumEdges(),
		"epoch":   epoch,
		"durable": s.lv.Durable(),
	})
}

// handleCompact folds the WAL into a fresh snapshot generation.
func (s *server) handleCompact(w http.ResponseWriter, _ *http.Request) {
	lv := s.state()
	if !lv.Durable() {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusConflict, httpapi.CodeMemoryOnly,
			"store is memory-only (start rdfsumd with -live to enable compaction)"))
		return
	}
	if err := lv.Compact(); err != nil {
		httpapi.WriteError(w, err)
		return
	}
	st := lv.Stats()
	httpapi.WriteJSON(w, map[string]any{
		"epoch":      st.Epoch,
		"generation": st.Gen,
		"wal_bytes":  st.WALBytes,
	})
}

// handleQuery evaluates a SPARQL BGP posted in the body against the
// current epoch snapshot.
//
// Parameters: ?saturate=true evaluates against G∞; ?limit=N caps the rows
// (default 10000, capped at 100000); ?explain=true adds the execution
// report; ?prune selects the summary kind gating provably-empty queries
// (default weak, "off" disables). The response reports the epoch of the
// data the rows reflect, whether the row set was truncated, and — when
// the pruning gate was actually applied — prune_epoch, which is then the
// evaluated epoch (see Live.PruneGate).
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody+1))
	if err != nil {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusBadRequest, httpapi.CodeInvalidArgument, "%v", err))
		return
	}
	if len(body) > maxQueryBody {
		// Refuse rather than parse a silently truncated prefix.
		httpapi.WriteError(w, httpapi.Errorf(http.StatusRequestEntityTooLarge, httpapi.CodeTooLarge,
			"query text exceeds %d bytes", maxQueryBody))
		return
	}
	q, err := rdfsum.ParseQuery(string(body))
	if err != nil {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusBadRequest, httpapi.CodeParse, "%v", err))
		return
	}
	limit, err := limitParam(r)
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	t0 := time.Now()
	wantExplain, err := boolParam(r, "explain")
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	opts := &rdfsum.QueryOptions{
		Limit: limit,
		// With the slow-query log armed, every query captures its plan so
		// a slow one can be logged with what each pattern enumerated; the
		// response only includes it when the client asked.
		Explain: wantExplain || s.slow.Enabled(),
	}
	// Pin the serving store and its epoch once: on a follower a
	// re-bootstrap may swap the store mid-request.
	lv := s.state()
	if opts.Explain {
		// Planner statistics only feed the estimates an explanation
		// reports (without them every estimate is unknown).
		if stats, err := lv.PlanStats(); err != nil {
			s.logger.Warn("planner stats unavailable", "error", err)
		} else {
			opts.Stats = stats
		}
	}
	snap := lv.Snapshot()
	g, ix := snap.Graph, snap.Index
	saturated, err := boolParam(r, "saturate")
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	if saturated {
		g, ix = snap.Saturated()
	}
	if r.URL.Query().Get("prune") != "off" {
		kind, err := kindParam(r, "prune", "weak")
		if err != nil {
			httpapi.WriteError(w, err)
			return
		}
		if opts.Pruner, err = lv.PruneGate(kind, snap.Epoch); err != nil {
			httpapi.WriteError(w, err)
			return
		}
	}
	res, err := rdfsum.EvalQueryWithOptions(g, ix, q, opts)
	if err != nil {
		httpapi.WriteError(w, httpapi.Errorf(http.StatusBadRequest, httpapi.CodeInvalidArgument, "%v", err))
		return
	}
	s.slow.Record(r.Context(), string(body), time.Since(t0), len(res.Rows), snap.Epoch, res.Explain)
	rows := make([][]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, term := range row {
			cells[i] = term.String()
		}
		rows = append(rows, cells)
	}
	// "epoch" is the epoch of the data the rows were computed from, G∞
	// under ?saturate included.
	payload := map[string]any{
		"vars":      res.Vars,
		"rows":      rows,
		"count":     len(rows),
		"truncated": res.Truncated,
		"epoch":     snap.Epoch,
	}
	if opts.Pruner != nil {
		payload["prune_epoch"] = snap.Epoch
	}
	if res.Explain != nil && wantExplain {
		payload["explain"] = res.Explain
	}
	httpapi.WriteJSON(w, payload)
}
