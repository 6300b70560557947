# Verification entry points. `make verify` is the PR gate: build, vet,
# and the full test suite under the race detector — the resilient-ingest
# retry/resume path and the streaming filter are concurrent-adjacent
# code, so every change gets race-checked.

GO ?= go

.PHONY: all build test vet race verify verify-race verify-shard no-stale-refs bench-contract diff-smoke subscribe-smoke correlate-smoke loadgen-smoke fuzz fuzz-smoke

# Every test invocation gets a hard wall-clock budget (a wedged-shard or
# crash-recovery bug must fail the gate, not hang it) and a shuffled
# execution order, so accidental inter-test ordering dependencies
# surface in CI instead of in the field.
TEST_TIMEOUT ?= 10m

# run-tests: $(call run-tests,<go test flags>,<-run pattern>,<packages>).
# `go test -run` exits 0 when its pattern matches nothing, so a renamed
# test would silently drop out of its gate; here a package with no
# matching test fails the target.
define run-tests
	@log=$$(mktemp); $(GO) test $(1) -run '$(2)' $(3) >$$log 2>&1; status=$$?; cat $$log; \
	if grep -q 'no tests to run' $$log; then echo "FAIL: -run '$(2)' matches no test in a package above"; status=1; fi; \
	rm -f $$log; exit $$status
endef

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on -timeout $(TEST_TIMEOUT) ./...

race:
	$(GO) test -race -shuffle=on -timeout $(TEST_TIMEOUT) ./...

# Focused race pass over the storage/compaction/cache concurrency
# surface, with -count=1 so the concurrent append/scan/seal/compact
# stress test and the crash-window recovery suite actually re-run
# instead of replaying cached results. This is the gate for the store's
# locking protocol (compactMu before mu), the aggregate cache, and the
# view kernel's Seq fence (internal/view — the one place a baseline is
# fenced, installed and re-baselined; its generated schedules re-run).
# The segment column projection's once-only build — eight scans racing
# to a fresh segment while a compaction drops it, and a sticky build
# error — and the in-place tail read — Scan and ScanColumns beside
# appends and seals, each answer the acknowledged entries as of its
# Seq — re-run ten times on top.
verify-race:
	$(GO) test -race -count=1 -shuffle=on -timeout $(TEST_TIMEOUT) ./internal/store/... ./internal/view/... ./internal/query/... ./cmd/logstudy/...
	$(call run-tests,-race -count=10 -timeout $(TEST_TIMEOUT),Projection|TailSnapshot,./internal/store/)

# Focused race pass over the cluster's failure envelope: the
# scatter-gather router, circuit breakers, per-shard kill/recovery
# windows, and the fault-injection layer that drives them, plus the HTTP
# differentials over every on-disk layout and shard count, the degraded
# (partial / 503) answers, the on-disk-shape open rules, and the
# backpressure tests. -count=1 so the crash-window and breaker state
# machines re-execute every run.
verify-shard:
	$(GO) test -race -count=1 -shuffle=on -timeout $(TEST_TIMEOUT) ./internal/shard/... ./internal/faultinject/...
	$(call run-tests,-race -count=1 -timeout $(TEST_TIMEOUT),MatchesBatchPipeline|QueryEndpoint|ShardedAggregate|PartialResult|NoShardAnswered|OnDiskShape|NoShardOpens|ServedInPlace|Backpressure429|NoGoroutines,./cmd/logstudy/)

verify: build vet race no-stale-refs bench-contract diff-smoke subscribe-smoke correlate-smoke loadgen-smoke fuzz-smoke

# Standing-query gate: the view kernel's suite (internal/view: the
# scan-snapshot fence under out-of-order delivery, one scan per build
# under continuous commits, invalidation at every point of a build
# (past the fence: installed stale, rebuilt once), failing scans, Close
# mid-scan, seeded random schedules against a model), the
# incremental-vs-rescan differential suites (registry and cluster,
# every mutation class, shard counts 1/2/4/7; seals and compactions are
# notes, only retention rebuilds — the registry's close test rebuilds
# on a retention pass), the
# single-event-per-crossing latch tests, and the HTTP subscribe smoke
# (POST subscribe → SSE fires exactly once per crossing, webhook
# delivered at most once). -race because the views sit on the store
# mutation stream; -count=1 so the kernel's generated schedules and the
# consumers' re-baselines re-execute.
subscribe-smoke:
	$(call run-tests,-race -count=1 -timeout $(TEST_TIMEOUT),View|Standing|Registry|Subscribe,./internal/view/ ./internal/query/ ./internal/shard/ ./cmd/logstudy/)

# Correlation-mining gate: the incremental-vs-batch miner differentials
# (every mutation class, warm starts, cluster shard counts 1/2/4/7),
# compactions rebuilding neither the miner nor a standing view, a crash
# restart cold-starting because only Close writes the artifact (the
# second line fails if either test is renamed away), and
# the /api/correlations + /api/predict HTTP smoke across layouts,
# including the served-equals-batch prediction purity check and the
# bounded-limit contract. -race because the miner sits on the store mutation stream;
# -count=1 so its baselines, warm starts and folds re-execute every run
# (the Seq fence they install through is internal/view's, gated by
# subscribe-smoke and verify-race).
correlate-smoke:
	$(GO) test -race -count=1 -timeout $(TEST_TIMEOUT) ./internal/correlate/
	$(call run-tests,-race -count=1 -timeout $(TEST_TIMEOUT),CompactionRebuildsNoView|CrashRestartColdStarts,./internal/correlate/)
	$(call run-tests,-race -count=1 -timeout $(TEST_TIMEOUT),ClusterCorrelate|ClusterPrediction,./internal/shard/)
	$(call run-tests,-race -count=1 -timeout $(TEST_TIMEOUT),Correlations|Predict|ListLimit|SubscriptionsLimit,./cmd/logstudy/)

# Aggregate differential smoke: the columnar fold — the one aggregate
# implementation, body= filters included — must answer byte-identically
# to the row-decode reference, which lives on the test side (select
# everything, then the pure query.Aggregate; one helper per test
# package), at the store, library, and HTTP layers, every layout and
# shard count (see DESIGN.md §11), and a sealed segment identically to
# the tail it was. The select differentials ride along: a bounded
# select (limit pushed into the scan through store.ErrPastBound) must
# equal the full sort truncated to limit at the store, library, cluster
# and HTTP layers, ties across segments included. -count=1 so the
# differential matrices re-execute every run.
diff-smoke:
	$(call run-tests,-count=1 -timeout $(TEST_TIMEOUT),Columnar|ScanColumns|BodyFilter|DecodeReference|Unmap|SealedEqualsTail|PastBound|BoundedSelect|SelectMerges|QueryEndpoint,./internal/store/ ./internal/query/ ./internal/shard/ ./cmd/logstudy/)

# The stage-loop ledger (the bench package and subcommand, its JSON file,
# its make targets) was deleted in favour of BENCHMARK.json +
# benchmark/, the stochastic failure-process package because nothing imported it
# (internal/simulate carries its own processes), and the second
# aggregate implementation with its switch, planner predicate and
# optional-interface fallback (plus the test-only whole-stream parallel
# reader) because the columnar fold serves every filter, and the
# callerless series autocorrelation helper, the view kernel's
# re-read retry (the store's lock-free sequence counter and the pause
# between attempts) because a scan's own snapshot is its fence, and the
# test-only statistics and tree-reading helpers, and the callerless
# single-percentile and median wrappers, log-histogram total and
# sample min/max (the shared-sort percentiles are the one form, and the
# interarrival summary reads min and max off its sorted gaps), and the
# second and third line readers (the plain streaming loop, the
# chunk-parallel parse with its year stitch and helpers, the collecting
# Read, the per-dialect stream parsers, the exported dialect label, the
# per-line panic wrapper, the checkpoint's quarantine count, which always
# equalled Stats.ParseErrors) because every raw line goes through the
# one loop, and the collection-path models' second copies (the relay's
# and mailbox's record methods, the identity TCP path, the event
# renderer, per-source file grouping and ranking), and the callerless
# helpers of the catalog, corruption, jobs, mining and core packages,
# and the tagger's pool-options variant, and the standing registry's
# own ids, threshold latch, event type and notify sink, its by-id
# readers, its event counter, and the cluster's per-shard sub-id
# reverse map, because a registry is a set of views reached through
# handles and the cluster holds the one latch (Unregister is named in
# its method forms), and the tagger's sampled alert-rate estimate, its
# capacity rule and sample bound, because every record is tagged once,
# and the correlation miner's save worker, its wake, the persisted edge
# form and the per-shard node and edge gauges, because the miner keeps
# only columns and writes its artifact once, at Close, and the segment's
# decoded sparse-index arrays and the standing registry's row-form delta,
# because walks binary-search the column projection and a delta is a
# column fold; fail if a doc, comment or target names any of
# them again. Deliver and Collect live on as the
# generic syslogng.Deliver and rasdb.Collect, so only their method forms
# are names here, and FuzzReadFunc keeps its name. Of the root-level
# Markdown files only the design notes, README and experiments are
# checked: the others are the change log, the roadmap and reference
# material, which record the deletions themselves. The one-letter
# brackets keep this line from matching itself.
STALE_REFS = 'BENCH_[p]ipeline|internal/[b]ench|bench-[s]moke|logstudy [b]ench|internal/[f]ailure|Disable[C]olumnar|ErrNot[I]ndexAnswerable|Index[A]nswerable|Column[S]canner|ReadAll[P]arallel|Auto[c]orrelation|Mutation[S]eq|min[P]ause|max[P]ause|Read[T]ree|ECD[F]|New[H]istogram|Spatial[C]oncentration|stats\.[P]ercentile([^s]|$$)|func [P]ercentile\(|stats\.[M]edian|func [M]edian\(|LogHistogram\) [T]otal\(|LogHistogram\.[T]otal|stats\.M[i]n\(|stats\.M[a]x\(|Parse[A]ll|Parse[S]tream|ParseEvent[S]tream|parsed[C]hunk|rolls[O]ver|re[p]arse\(|(^|[^z])Read[F]unc|\(rd Reader\) Read\(|rd\.R[e]ad\(|ingest\.[D]ialect|func [D]ialect\(|safe[P]arse|record[S]tats|TagAll[P]arallel|Render[E]vent|FileBy[S]ource|syslogng\.[S]ources|func [S]ources\(|TCP[P]ath|Relay\) [D]eliver|rl\.[D]eliver\(|Mailbox\) [C]ollect|mb\.[C]ollect\(|Mailbox(\(\)|\{\})\.[C]ollect|mailbox[O]rder|cp\.[Q]uarantined|ingest_[q]uarantined_total|MarkCorrupted[S]ources|PlannedNode[H]ours|Wildcard[F]raction|Matches[B]ody|Mean[B]urst|Standing[E]vent|Set[N]otify|Aggregate[O]f|Total[O]f|PartialSnapshot[O]f|shardSub[K]ey|by[S]hard|shard[S]ubs|standing_[e]vents_total|Registry\) [U]nregister|\.[U]nregister\(|estimate[R]ate|alert[C]ap|sample[L]imit|wake[S]ave|save[L]oop|artifact[E]dge|correlate_[e]dges|correlate_[n]odes|idx[O]ffsets|idx[N]anos|delta[O]f'
no-stale-refs:
	@if git grep -nE $(STALE_REFS) -- . ':(top,glob,exclude)*.md' || git grep -nE $(STALE_REFS) -- DESIGN.md README.md EXPERIMENTS.md; then \
		echo "FAIL: stale reference to a deleted package, target or name (the bench ledger: see DESIGN.md §7 for the per-layer metric that replaced it; the decode aggregate: DESIGN.md §11)"; exit 1; fi

# benchmark/ is its own module, so root `go build ./...` never compiles
# it, yet it imports internal/{shard,store,query,correlate}: vet and
# unit-test it here so a refactor of those packages that breaks the
# harness fails in this gate, not in the benchmark driver.
bench-contract:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Load-harness gate: plan determinism, the graphite connector's
# paused-sink/drop/backoff contract, and the serve-tier-under-load
# regression trio (SSE exempt from request deadlines, drain-rate-derived
# 429 retry contract on every layout, graceful drain-and-seal with acked
# batches durable), ending with the loadgen CLI end-to-end against a
# self-hosted 4-shard serve writing its standalone -o report.
# Race on — the harness, the pump, and the shard queues are all
# concurrency; -count=1 so the kill and
# backpressure state machines re-execute every run.
loadgen-smoke:
	$(GO) test -race -count=1 -timeout $(TEST_TIMEOUT) ./internal/loadgen/ ./internal/connectors/...
	$(call run-tests,-race -count=1 -timeout $(TEST_TIMEOUT),Loadgen|RequestDeadline|SSESurvives|Backpressure429|RetryAfter|GracefulShutdown|Graphite,./cmd/logstudy/)

# Short exploratory fuzz of every parser and the streaming framer, and
# of the BSD-syslog parser and the block framer against their
# test-side references (native Go fuzzing; seed corpora always run
# under plain `make test`). -fuzz is a pattern that must match exactly
# one target, hence the anchors.
FUZZTIME ?= 20s
fuzz:
	$(GO) test ./internal/syslogng -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/syslogng -fuzz FuzzParseMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rasdb -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ddn -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -fuzz FuzzReadFunc -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -fuzz FuzzFramerMatchesReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/filter -fuzz FuzzStreamMatchesBatch -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -fuzz FuzzSegmentWalk -fuzztime $(FUZZTIME)

# Brief fuzz runs as part of `make verify`: a few seconds each on the
# read loop, the parser and block framer differentials, the
# online-vs-batch filter differential, and the segment walk against its
# sequential-decode reference, enough to explore past the seed corpus
# on every PR without stalling the gate.
SMOKE_FUZZTIME ?= 3s
fuzz-smoke:
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzReadFunc -fuzztime $(SMOKE_FUZZTIME)
	$(GO) test ./internal/syslogng -run '^$$' -fuzz FuzzParseMatchesReference -fuzztime $(SMOKE_FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzFramerMatchesReference -fuzztime $(SMOKE_FUZZTIME)
	$(GO) test ./internal/filter -run '^$$' -fuzz FuzzStreamMatchesBatch -fuzztime $(SMOKE_FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzSegmentWalk -fuzztime $(SMOKE_FUZZTIME)
