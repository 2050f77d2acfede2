GO ?= go

.PHONY: all build vet test race bench bench-json bench-churn bench-scale bench-search check check-churn check-obs check-repl check-scale check-search crash fuzz load-smoke load-json soak

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every registered experiment under go test -bench (slow). Use
# BENCH=E7r etc. to narrow.
BENCH ?= .
bench:
	$(GO) test -run '^$$' -bench 'Experiments/$(BENCH)' -benchmem ./internal/bench

# Machine-readable records of every registered experiment: one per
# op and parameter point, each with its registry counter deltas.
BENCHJSON ?= BENCH_PR10.json
bench-json:
	$(GO) run ./cmd/lsdb-bench -json $(BENCHJSON)

# E10c dependency-tracked invalidation + delete propagation: warm
# hit-rate retention under unrelated-predicate writes and the
# single-retraction repair path, as a rendered table.
bench-churn:
	$(GO) run ./cmd/lsdb-bench E10c

# Churn oracles: the differential harness over high-churn schedules
# (interleaved assert/retract/toggle bursts, shared and disjoint
# relationship classes), driving the dependency-eviction and
# delete-propagation paths, plus the E10c acceptance test under -race.
check-churn:
	$(GO) run ./cmd/lsdb-check -churn -seeds 12
	$(GO) test -race -count=1 -run 'TestRunCleanOnChurnWorlds|TestChurnWorldsShrink|TestE10cWarmRetention' ./internal/check ./internal/bench

# E9s memory-scale smoke: the sealed posting-list index at 10⁵ facts
# (CI-sized; raise with SCALEMAX=10000000 for the 10⁷ sweep).
SCALEMAX ?= 100000
bench-scale:
	$(GO) run ./cmd/lsdb-bench -scalemax $(SCALEMAX) E9s

# E12 keyword-search sweep: inverted-index build throughput and warm
# query latency on a Zipf scale world (CI-sized by SCALEMAX).
bench-search:
	$(GO) run ./cmd/lsdb-bench -scalemax $(SCALEMAX) E12

# Keyword-search correctness: the search-vs-scan differential (index
# answers must equal a brute-force store scan, full ranking, exact
# float equality) across seeds and churn schedules, the ranking-quality
# acceptance gate, the /search endpoint contract, and the query
# tokenizer fuzz target — the racy parts under -race.
check-search:
	$(GO) run ./cmd/lsdb-check -search -seeds 150
	$(GO) test -race -count=1 -run 'TestSearchVsScan|TestSearch|TestTokenize|TestNavigatePagination|TestTryPagination' ./internal/check ./internal/search ./internal/serve
	$(GO) test -count=1 -run 'TestE12RankingQuality' ./internal/bench
	$(GO) test -run xxx -fuzz FuzzTokenize -fuzztime 5s ./internal/search

# Observability suite: the metrics registry and trace recorder unit
# tests, the metric-contract and admission-control workload pins, and
# the serving layer's /metrics, /stats, /batch and ?trace=1 endpoint
# tests — all under -race, plus go vet over the new packages.
check-obs:
	$(GO) vet ./internal/obs ./internal/serve
	$(GO) test -race ./internal/obs ./internal/serve ./cmd/lsdbd
	$(GO) test -race -run 'TestMetricContract|TestAdmissionControlContract|TestCacheStatsRace|TestMetricsRegistered|TestRebuildCounters|TestMatchBoundedTrace|TestTrace' . ./internal/rules

# Multi-tenant load smoke: a short lsdb-load run against an
# in-process lsdbd (generated tenant worlds, seeded browse sessions)
# must achieve nonzero throughput with zero non-429 errors.
load-smoke:
	$(GO) run ./cmd/lsdb-load -smoke -tenants 2 -workers 2 -duration 2s
	$(GO) run ./cmd/lsdb-load -smoke -tenants 1 -workers 8 -duration 1s -max-inflight 2

# Full load report with the committed-artifact parameters.
LOADJSON ?= BENCH_PR7.json
load-json:
	$(GO) run ./cmd/lsdb-load -tenants 3 -workers 4 -duration 5s -seed 7 -json $(LOADJSON)

# Durability crash fault injection: sweeps hundreds of byte-accurate
# crash points through the WAL, checkpointing and compaction paths and
# asserts recovery never loses an acknowledged-durable commit.
crash:
	$(GO) test -race -count=1 -run 'TestCrash' ./internal/check

# Torn-replication oracle: the acceptance sweep. 75 fault points per
# scenario per seed across four scenarios (stream drops, follower
# crashes, bootstrap faults, primary crashes) = 300+ byte-accurate
# points under -race, each checked for the prefix, recoverability and
# closure invariants. REPLPOINTS=8 for a quick pass.
REPLPOINTS ?= 75
check-repl:
	LSDB_REPL_POINTS=$(REPLPOINTS) $(GO) test -race -count=1 -run 'TestReplScan|TestCutTransport|TestReplFailure' ./internal/check
	$(GO) test -race -count=1 ./internal/repl
	$(GO) test -race -count=1 -run 'TestRepl|TestRecoverLog' ./internal/serve
	$(GO) test -count=1 -run 'TestE11|TestLoadFollowerTarget' ./internal/bench

# Native Go fuzzing across every target. FUZZTIME=2m for a longer run;
# go test accepts one fuzz target per invocation, hence the fan-out.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run xxx -fuzz FuzzSnapshot -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run xxx -fuzz FuzzLogReplay -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run xxx -fuzz FuzzParseRule -fuzztime $(FUZZTIME) ./internal/rules
	$(GO) test -run xxx -fuzz FuzzLoad -fuzztime $(FUZZTIME) ./internal/factfile
	$(GO) test -run xxx -fuzz FuzzImportCSV -fuzztime $(FUZZTIME) ./internal/factfile
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run xxx -fuzz FuzzTokenize -fuzztime $(FUZZTIME) ./internal/search

# Differential soak: random worlds through every oracle in
# internal/check. SEEDS=5000 or SOAKFLAGS='-duration 10m' to go deeper.
SEEDS ?= 200
SOAKFLAGS ?=
soak:
	$(GO) run ./cmd/lsdb-check -seeds $(SEEDS) $(SOAKFLAGS)

# Sealed-vs-mutable differential on a Zipf scale world, with the
# concurrent probe goroutines under the race detector. SCALEFACTS=1000000
# for a million-fact run.
SCALEFACTS ?= 200000
check-scale:
	LSDB_SCALE_FACTS=$(SCALEFACTS) $(GO) test -race -count=1 -run TestSealedVsMutableScale ./internal/check
	$(GO) run ./cmd/lsdb-check -seeds 10 -scale $(SCALEFACTS)

# Tier-1 verification plus the race detector, a short soak, and a
# brief pass over every fuzz target.
check: build vet test race
	$(MAKE) check-obs
	$(MAKE) load-smoke
	$(MAKE) crash
	$(MAKE) check-repl REPLPOINTS=8
	$(MAKE) soak SEEDS=50
	$(MAKE) check-churn
	$(MAKE) check-scale SCALEFACTS=100000
	$(MAKE) check-search
	$(MAKE) bench-scale
	$(MAKE) bench-search
	$(MAKE) fuzz FUZZTIME=5s
