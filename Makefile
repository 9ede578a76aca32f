# Developer entry points. `make check` is the full pre-commit gate. Its race
# target runs every test once under -race, the e2e gates below included;
# chaos, crash, failover, drain and streaming stay as targets for running
# one gate verbosely. The bench-* targets print hot-path timings for a human
# to read; the numbers that are tracked come from `benchmark/run.sh`, and the
# bounds worth enforcing (Select40 and WindowScheduler allocations, the
# streaming analyzer's heap) are tests.

GO ?= go

.PHONY: check build test vet fmt race bench bench-smoke bench-analytics bench-streaming chaos crash failover drain streaming fuzz-smoke cli-smoke clean-state

check: fmt vet build race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Hot-path timings: engine event loop, whole-sim small scale, DN selection,
# DN churn (a peer's departure plus another's re-registration), the small
# month's analysis (both record streams folded, then the full report) from a
# finished simulation, one offline analysis pass over a sealed 128k-record
# segment store (the read side netsession-analyze takes), one 4,000-record
# segment decoded by the log pipeline's gzip reader and by compress/gzip
# (MB/s of decoded text), the piece data
# path (codec round trip at 64 and 256 KiB, verified store put, synthetic
# body), the swarm path (one leecher pulling an 8 MiB object from four
# in-memory seeders over loopback, MB/s and allocs per download), and the
# CN query path (queries/s, ConnectTo frames delivered and dropped per query
# and B/op against 1,000 holders behind a paper-like NAT mix).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineEvents$$|BenchmarkSimSmall$$|BenchmarkSelect40$$|BenchmarkDirectoryChurn$$' \
		-benchtime 2x -benchmem ./internal/sim ./internal/selection
	$(GO) test -run '^$$' -bench 'BenchmarkAnalyzeMonth$$' -benchtime 2x -benchmem ./internal/analysis
	$(GO) test -run '^$$' -bench 'BenchmarkSummarizeStore$$' -benchtime 2x -benchmem ./internal/logpipe
	$(GO) test -run '^$$' -bench 'BenchmarkGunzip$$' -benchtime 20x -benchmem ./internal/logpipe
	$(GO) test -run '^$$' -bench 'BenchmarkPieceRoundTrip$$|BenchmarkMemStorePut$$|BenchmarkSyntheticBody$$' \
		-benchtime 200ms -benchmem ./internal/protocol ./internal/content
	$(GO) test -run '^$$' -bench 'BenchmarkSwarmDownload$$' -benchtime 2x -benchmem ./internal/peer
	$(GO) test -run '^$$' -bench 'BenchmarkCNQuery$$' -benchtime 2000x -benchmem ./internal/controlplane

# Streaming-analytics timing: a full streaming pass over a sealed 128k-record
# segment store, with the bounded-heap test alongside (BENCH_analytics.json
# holds an earlier run).
bench-analytics:
	$(GO) test -run 'TestStreamingBoundedMemory$$' -bench 'BenchmarkStreamingSummarize$$' \
		-benchtime 3x -benchmem -v ./internal/logpipe

# Fault-injection end-to-end: a live cluster with a flapping edge, a dying
# CN and a poisoned swarm; every download must still complete verified.
chaos:
	$(GO) test -race -run 'Chaos|Faults' -v . ./internal/sim

# Crash-recovery end-to-end: peers killed mid-download (in-process and by
# real SIGKILL of a re-exec'd child) must resume from their state dir
# without refetching verified pieces; a killed DN must rebuild its
# directory from peer RE-ADDs.
crash:
	$(GO) test -race -run 'Crash' -v .

# Control-plane failover end-to-end: a three-node CP cluster loses the node
# owning the busiest region mid-run; every download must complete verified,
# the ring must converge, and the summed accounting must byte-equal a
# no-kill baseline run.
failover:
	$(GO) test -race -run 'Failover' -v .

# Planned-drain end-to-end: a fourth node joins a running cluster knowing
# one status URL (seed exchange), then the busiest node drains gracefully —
# regions hand off with zero RE-ADD rebuilds and accounting byte-equals an
# undisturbed baseline. Includes the kill-vs-drain stampede contrast.
drain:
	$(GO) test -race -run 'Drain' -v .

# Streaming-delivery end-to-end: a live cluster streams objects at a
# feasible bitrate (zero deadline misses, metrics flow through logpipe into
# the offline summary and the live analytics) and at an infeasible bitrate under
# injected edge/CN faults (nonzero rebuffers, urgent-window edge rescues,
# download still completes verified).
streaming:
	$(GO) test -race -run 'StreamingE2E' -v .

# Deadline-scheduler timing: the playback-window piece picker on a 1000-piece
# object (BENCH_streaming.json holds an earlier run).
bench-streaming:
	$(GO) test -run '^$$' -bench 'BenchmarkWindowScheduler$$' \
		-benchtime 100x -benchmem ./internal/streaming

# Fuzz smoke: each decoder of untrusted bytes (segments and the store readers
# over them, the analytics merge, the download decoder, the wire codec, the
# usage entry, the handoff import, the ack-store replay, the ingest batch
# framing, the cluster status document and the peer's state and checkpoint
# files, and the log pipeline's gzip reader against compress/gzip) fuzzed
# for 30s; the first failure stops the run.
fuzz-smoke:
	$(GO) test -run FuzzReadSegment -fuzz FuzzReadSegment -fuzztime 30s ./internal/logpipe
	$(GO) test -run FuzzGunzip -fuzz FuzzGunzip -fuzztime 30s ./internal/logpipe
	$(GO) test -run FuzzStreamingSummaryMerge -fuzz FuzzStreamingSummaryMerge -fuzztime 30s ./internal/analysis
	$(GO) test -run FuzzDecodeDownload -fuzz FuzzDecodeDownload -fuzztime 30s ./internal/analysis
	$(GO) test -run FuzzReadMessage -fuzz FuzzReadMessage -fuzztime 30s ./internal/protocol
	$(GO) test -run FuzzUsageEntry -fuzz FuzzUsageEntry -fuzztime 30s ./internal/controlplane
	$(GO) test -run FuzzHandoffImport -fuzz FuzzHandoffImport -fuzztime 30s ./internal/controlplane
	$(GO) test -run FuzzAckStoreLoad -fuzz FuzzAckStoreLoad -fuzztime 30s ./internal/logpipe
	$(GO) test -run FuzzIngestBatch -fuzz FuzzIngestBatch -fuzztime 30s ./internal/logpipe
	$(GO) test -run FuzzStatusDocument -fuzz FuzzStatusDocument -fuzztime 30s ./internal/cluster
	$(GO) test -run FuzzPeerStateFiles -fuzz FuzzPeerStateFiles -fuzztime 30s ./internal/peer

# CLI smoke: build netsession-sim and netsession-analyze, export the small
# month into a temporary directory and analyze it there; the analyzer must
# stream exactly as many download records as the simulator reports.
cli-smoke:
	@set -e; tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/netsession-sim ./cmd/netsession-analyze; \
	"$$tmp/netsession-sim" -scenario small -telemetry=false -out "$$tmp/logs" >"$$tmp/sim.txt" 2>&1 || \
		{ cat "$$tmp/sim.txt"; exit 1; }; \
	"$$tmp/netsession-analyze" -logs "$$tmp/logs" >"$$tmp/analyze.txt" 2>&1 || \
		{ cat "$$tmp/analyze.txt"; exit 1; }; \
	want="$$(sed -n 's/.*simulated \([0-9][0-9]*\) downloads.*/\1/p' "$$tmp/sim.txt")"; \
	got="$$(sed -n 's/.*streamed \([0-9][0-9]*\) download records.*/\1/p' "$$tmp/analyze.txt")"; \
	if [ -z "$$want" ] || [ "$$want" != "$$got" ]; then \
		cat "$$tmp/sim.txt" "$$tmp/analyze.txt"; \
		echo "cli-smoke: simulated '$$want' downloads, analyzer streamed '$$got'"; exit 1; \
	fi; \
	echo "cli-smoke: simulated and analyzed $$want downloads"

# Remove state directories left behind by interrupted live runs (the README
# examples put netsession-peer -state-dir under ./state/).
clean-state:
	rm -rf ./state

