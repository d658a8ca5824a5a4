# The targets here are exactly what CI runs (.github/workflows/ci.yml).
# `make check` runs every CI job but one, the fuzz job (`make fuzz`), so a
# green `make check` locally means a green build up to fuzzing.

GO ?= go

# Fuzz smoke duration per target (CI uses the default; raise locally for
# real fuzzing sessions: make fuzz FUZZTIME=10m).
FUZZTIME ?= 30s

# Coverage-gated packages and the minimum total coverage each must hold.
COVER_PKGS = ./internal/dict ./internal/store ./internal/live ./internal/core ./internal/query
COVER_MIN  = 70

.PHONY: all build test race vet lint fmt fmt-check obs-check est-check bench bench-unit bench-core bench-load bench-smoke boot-profile heap-profile test-nommap stress replication-smoke ingest-smoke fuzz cover cover-check check loc clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# What the CI lint job runs: vet always, staticcheck when installed
# (`go install honnef.co/go/tools/cmd/staticcheck@latest`).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Observability gate (mirrored as a CI step): the exposition-format
# linter over a live /metrics scrape, the legacy series-name contract,
# per-route latency histograms, and the request-ID round trip.
obs-check:
	$(GO) test -count=1 \
		-run 'TestMetricsExposition|TestLegacyMetricSeries|TestEveryV1Route|TestServerRequestID|TestLint|TestExpositionFormat|TestMiddleware' \
		./internal/obs/ ./cmd/rdfsumd/

# Join-work and estimation gate (mirrored as a CI step): on the committed
# BSBM/LUBM mixes and scan-lubm's pool, the triples the executor
# enumerates do not depend on the order the patterns are written in (nor
# on the statistics) and stay within 1% of the recorded work; the median
# q-error stays bounded over the mixes and the golden corpora; and
# single-pattern estimates are exact.
est-check:
	$(GO) test -count=1 \
		-run 'TestJoinWorkPermutationInvariant|TestEstimationAccuracyMixes|TestEstimatorQErrorGolden|TestEstimatorExactSinglePattern' \
		./internal/query/

# The end-to-end harness under benchmark/ is its own module (it imports
# this one through a replace directive), so `go build|vet|test ./...`
# here never compile it. This does (mirrored as a CI step): an API change
# that breaks the harness fails here, not at the next benchmark run.
bench-unit:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test -short ./...

# What building and maintaining a summary costs, per kind, on one CPU: a
# from-scratch Summarize on BSBM and LUBM, and the engine's first write,
# steady-state batch and snapshot over a seeded builder; and what one
# compaction of a live store allocates (BenchmarkLiveCompact's B/op). Six
# runs each, so two commits compare by spread and not by one number
# (docs/benchmarks/pr17-runs.md has the procedure).
# BenchmarkComputeWeights times the weak summary's planner weights on
# BSBM and LUBM; BenchmarkMappedDict a reopened store's dictionary
# (decode, lookup hit, lookup miss) on LUBM and BSBM; BenchmarkIndexJoins
# scan-lubm's query pool over a heap base and over the mapped base a
# durable store serves; BenchmarkIndexPattern the skip scan over POS that
# serves ?s ?p <o> and <s> ?p <o> on the mapped LUBM and BSBM bases.
bench-core:
	$(GO) test -run 'XXX-none' -benchmem -count 6 -cpu 1 \
		-bench 'BenchmarkFig13SummarizationTime|BenchmarkLUBMSummaries|BenchmarkIncrementalSummaries|BenchmarkComputeWeights|BenchmarkLiveCompact|BenchmarkMappedDict|BenchmarkIndexJoins|BenchmarkIndexPattern' .

# What loading a dump costs, on one CPU: the N-Triples reader with three
# dictionary Encodes a triple (BenchmarkParseNTriples), a streamed load
# of gzipped N-Triples and Turtle (BenchmarkStreamingIngest) and a whole
# cold boot (BenchmarkSeedBoot). Six runs each, as bench-core: compare two
# commits by building `go test -c` binaries and alternating them.
bench-load:
	$(GO) test -run 'XXX-none' -benchmem -count 6 -cpu 1 \
		-bench 'BenchmarkParseNTriples|BenchmarkStreamingIngest|BenchmarkSeedBoot' .

# Full benchmark sweep.
bench:
	$(GO) test -run 'XXX-none' -bench . ./...

# One iteration of every benchmark, skipping the slow sweeps — the CI
# smoke check that perf code at least runs.
bench-smoke:
	$(GO) test -run 'XXX-none' -bench . -benchtime 1x -short ./...

# Where a boot's time goes: BenchmarkSeedBoot (load a 170k-triple dump →
# write it as a fresh store's snapshot-1 and open that generation → warm
# the weak summary and its pruner — the sequence benchmark/ times as
# setup_s) on one CPU under the CPU profiler: the top 20 functions by
# cumulative time, then who calls the run sort (store.sortTriples) and for
# how long — one caller, WriteSnapshotV2, means the boot sorts its triples
# only to write snapshot-1, which it then serves; a reopen sorts nothing.
# BOOT picks the arm: bsbm-nt (BSBM as N-Triples, what probe-bsbm and
# mixed-bsbm boot from), lubm-ttl-gz (LUBM as gzipped Turtle, scan-lubm's
# cold boot) or lubm-reopen (scan-lubm's restart: reopen that store under
# -maintain weak and warm the same two). The test binary and profile live
# in a temp directory.
BOOT ?= bsbm-nt
boot-profile:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) test -run 'XXX-none' -bench 'BenchmarkSeedBoot$$/^$(BOOT)$$' -benchtime 10x -cpu 1 \
		-o "$$d/rdfsum.test" -cpuprofile "$$d/cpu.out" . && \
	$(GO) tool pprof -top -cum -nodecount 20 -focus 'rdfsum_test\.(seedBoot|reopenBoot)' -hide '^testing\.' "$$d/rdfsum.test" "$$d/cpu.out" && \
	$(GO) tool pprof -peek 'store\.sortTriples$$' "$$d/rdfsum.test" "$$d/cpu.out" | sed -n '/flat%/,$$p'

# Who holds the heap, and who churns it: BenchmarkLiveCycle (a store
# seeded with a 170k-triple BSBM graph — served, like a reopened one,
# from its mapped snapshot — takes 50 batches, deletes 25 of them again
# batch by batch, compacts and serves a summary of every kind, three
# times over) under the heap profiler, sampling every 4 KB. First what
# is still in use when the process exits with the store open (the
# live-heap breakdown: dictionary, components, index runs, builders,
# cached summaries and their name overlays), then what the compactions
# allocated on the way, and what the delete stream allocated — where the
# delta tail and DeleteBatch's component copies set the peak of
# probe-bsbm and scan-lubm.
heap-profile:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) test -run 'XXX-none' -bench 'BenchmarkLiveCycle$$' -benchtime 3x -cpu 1 \
		-o "$$d/rdfsum.test" -memprofile "$$d/mem.out" -memprofilerate 4096 . && \
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount 25 "$$d/rdfsum.test" "$$d/mem.out" && \
	$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount 25 -focus 'Compact|WriteSnapshotV2' "$$d/rdfsum.test" "$$d/mem.out" && \
	$(GO) tool pprof -sample_index=alloc_space -top -cum -nodecount 15 -focus 'DeleteBatch' "$$d/rdfsum.test" "$$d/mem.out"

# The mmap-free portability build: every mapped path falls back to eager
# reads (mirrored as a CI job).
test-nommap:
	$(GO) build -tags nommap ./...
	$(GO) test -tags nommap ./...

# Live-subsystem stress under the race detector (mirrored as a CI step):
# readers query epoch snapshots while a writer ingests batches and
# compacts; readers materialize every maintained summary kind during
# ingest; readers take the pruning gate of their epoch, its G∞ and the
# planner weights while adds, deletes and compactions publish epochs;
# snapshot iterators are held across concurrent Compact calls
# while deletes land (tiered-index generation swaps); the ingest queue's
# admission bound, applied on the writers' own goroutines, and its HTTP
# 429 path; plus the WAL crash-recovery property test and the
# replication suite (bootstrap,
# tail, re-bootstrap across compaction). -count=2 reruns with fresh
# schedules. replication-smoke then boots a real leader + follower pair
# as separate processes and asserts catch-up, identical /v1/query
# results and post-delete convergence.
stress: replication-smoke
	$(GO) test -race -count=2 \
		-run 'TestLiveStress|TestLiveMaintainedStress|TestLiveDerivedCachesStress|TestLiveIngestDuringConcurrentQueries|TestLiveCrashRecoveryPrefix|TestLiveSnapshotAcrossCompactStress|TestLiveIngestQueueBackpressureStress|TestIngestQueue|TestIngestBackpressure429|TestFollower' \
		./internal/live ./cmd/rdfsumd ./internal/repl

# Two-process replication smoke (run by stress, so by CI): leader ingests,
# follower bootstraps + tails to lag 0, query results match on both
# sides, deletes and a compaction converge.
replication-smoke:
	$(GO) test -race -count=1 -run 'TestE2EReplication' ./cmd/rdfsumd

# Streaming-ingest smoke (mirrored as a CI step): a real rdfsumd boots
# from a cold gzipped Turtle dump straight into serving summaries and
# queries, then a gzip-compressed streaming upload lands through the
# typed client.
ingest-smoke:
	$(GO) test -race -count=1 -run 'TestE2EStreamingIngest' ./cmd/rdfsumd

# Fuzz smoke (mirrored as a CI job): the N-Triples parser; the Turtle
# load against its reference (the streamed load == FromTriples of the
# parsed triples, term for term, ID for ID and component for component;
# malformed input fails both on the same line); the two readers against
# each other (whatever the N-Triples reader accepts, the Turtle reader
# reads to identical triples); the dictionary's term
# keys (every term round-trips through its key); the dictionary's pages
# (any pages, directory and symbol table either fail to open or decode
# every term and write sections that open to the same terms); the symbol
# table (any table and codes either fail or decode to at most eight bytes
# a code, the same by every decode path); the WAL record
# decoder/replayer; the snapshot graph decode (header counts and the
# payloads of all six sections — vocabulary, dictionary pages, directory
# and symbol table, and both columns — checksums resealed; a graph it
# returns is served in full); and one column payload (an error or
# in-range IDs, never a panic), each seeded from its f.Add calls and the
# committed corpus under the package's testdata/fuzz/ directory.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) -run='^$$' ./internal/ntriples
	$(GO) test -fuzz=FuzzDictKeyRoundTrip -fuzztime=$(FUZZTIME) -run='^$$' ./internal/dict
	$(GO) test -fuzz=FuzzDictPages -fuzztime=$(FUZZTIME) -run='^$$' ./internal/dict
	$(GO) test -fuzz=FuzzSymbolTable -fuzztime=$(FUZZTIME) -run='^$$' ./internal/dict
	$(GO) test -fuzz=FuzzTurtleLoad -fuzztime=$(FUZZTIME) -run='^$$' ./internal/load
	$(GO) test -fuzz=FuzzNTriplesIsTurtle -fuzztime=$(FUZZTIME) -run='^$$' ./internal/load
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) -run='^$$' ./internal/live
	$(GO) test -fuzz=FuzzWALRecordDecode -fuzztime=$(FUZZTIME) -run='^$$' ./internal/live
	$(GO) test -fuzz=FuzzReadGraph -fuzztime=$(FUZZTIME) -run='^$$' ./internal/store
	$(GO) test -fuzz=FuzzColumn -fuzztime=$(FUZZTIME) -run='^$$' ./internal/store

# Per-package coverage table for the gated packages (COVER_PKGS).
cover:
	@for p in $(COVER_PKGS); do \
		$(GO) test -count=1 -coverprofile=.cover.tmp $$p > /dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=.cover.tmp | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
		printf "%-24s %6s%%\n" $$p $$pct; \
	done; rm -f .cover.tmp

# The CI coverage gate: fail when any gated package drops below
# $(COVER_MIN)% total statement coverage.
cover-check:
	@fail=0; for p in $(COVER_PKGS); do \
		$(GO) test -count=1 -coverprofile=.cover.tmp $$p > /dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=.cover.tmp | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
		printf "%-24s %6s%%" $$p $$pct; \
		if awk -v p=$$pct -v min=$(COVER_MIN) 'BEGIN{exit !(p+0 < min)}'; then \
			printf "  FAIL (< $(COVER_MIN)%%)\n"; fail=1; \
		else \
			printf "  ok\n"; \
		fi; \
	done; rm -f .cover.tmp; exit $$fail

check: build lint fmt-check race obs-check est-check bench-unit stress ingest-smoke test-nommap bench-smoke cover-check

# Lines of non-test Go outside benchmark/ (its own module) and hidden
# directories: the size figure ROADMAP.md and CHANGES.md quote.
loc:
	@find . -path './.*' -prune -o -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

clean:
	$(GO) clean ./...
