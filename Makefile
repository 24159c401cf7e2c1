GO ?= go

.PHONY: build loc test race race-all fuzz-smoke vet fmt staticcheck govulncheck lint allocgate bench-smoke bench bench-gate digests bench-scale scale-gate race-dataplane test-experiments goldens examples profile profile-scale chaos check print-staticcheck-version print-govulncheck-version

build:
	$(GO) build ./...

# loc prints the lines of non-test Go outside bench/ (testdata fixtures
# excluded): the size CHANGES.md and ROADMAP.md quote, shown in every CI
# log so a simplification's deletion is visible.
loc:
	@git ls-files '*.go' ':!bench' ':!*_test.go' ':!*testdata*' | xargs cat | wc -l

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-all is the uncached full-tree race pass: every package, -count=1.
# The chaos, dataplane and eval suites exercise real goroutine
# interleavings, so a cached "ok" proves nothing about a scheduler or
# locking change; CI runs this as its own job (see ci.yml).
race-all:
	$(GO) test -race -count=1 ./...

# fuzz-smoke gives each fuzzer a short budget on every run: ten seconds
# of FuzzMessageCodec (the control-plane wire codec), then ten of
# FuzzReadFrame (the TCP frame reader a kept connection loops on), then
# ten of FuzzVoicePacket (the voice datagram parser and the relay behind
# it), then ten of FuzzSTUN (the STUN server and a flow waiting in
# discovery), then ten each of FuzzParseAddr and FuzzParsePrefix (the address
# parsers a join's IP and the bootstrap's prefix table go through), then
# ten of FuzzChaosApply (the asapd -chaos spec parser), each over its
# corpus plus fresh mutations. Deep fuzzing is a
# background activity; this gate just keeps the parsers honest against
# the easy classes of malformed input.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzMessageCodec' -fuzztime 10s ./internal/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/transport/
	$(GO) test -run '^$$' -fuzz 'FuzzVoicePacket' -fuzztime 10s ./internal/transport/udp/
	$(GO) test -run '^$$' -fuzz '^FuzzSTUN$$' -fuzztime 10s ./internal/transport/udp/
	$(GO) test -run '^$$' -fuzz '^FuzzParseAddr$$' -fuzztime 10s ./internal/bgp/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePrefix$$' -fuzztime 10s ./internal/bgp/
	$(GO) test -run '^$$' -fuzz '^FuzzChaosApply$$' -fuzztime 10s ./internal/transport/

vet:
	$(GO) vet ./...

# fmt fails when any file needs gofmt, so formatting drift cannot land.
fmt:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "gofmt: the following files need formatting (run gofmt -w):"; \
		echo "$$bad"; exit 1; \
	fi; \
	echo "gofmt: clean"

# staticcheck runs when the tool is installed and is skipped (with a
# notice) otherwise, so the gate works in minimal containers too. CI
# installs a pinned version (see .github/workflows/ci.yml), so the gate
# always runs there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Pinned tool versions, shared with CI so local and CI runs agree.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# print-*-version let CI read the pins above without duplicating them.
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)

print-govulncheck-version:
	@echo $(GOVULNCHECK_VERSION)

# govulncheck scans dependencies for known vulnerabilities. The vuln DB
# lives at vuln.go.dev, so the target downgrades to a notice when the
# tool is missing or the network is unreachable (offline containers).
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		out=$$(govulncheck ./... 2>&1); st=$$?; \
		if [ $$st -ne 0 ] && echo "$$out" | grep -qiE 'dial|connection|lookup|timeout|proxy|no such host'; then \
			echo "govulncheck: vulnerability DB unreachable; skipping (offline)"; \
		elif [ $$st -ne 0 ]; then \
			echo "$$out"; exit $$st; \
		else \
			echo "$$out"; \
		fi; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# lint runs asaplint, the repo's invariant gate (DESIGN.md §11, §16).
# It loads internal/ as one program, never reading a *_test.go file,
# and runs ten analyzers of one shape over it: time model (schedtime),
# seed reproducibility (seededrand), scheduler-accounted goroutines
# (schedgo), deterministic map iteration in output paths (maporder),
# the snapshot-probe-commit locking discipline (lockio), transport pool
# ownership (poolreturn), task/timer accounting (taskleak),
# protocol-enum/codec drift (protosync), lock-order cycles (lockorder)
# and retry error classification (errclass). Suppress a finding with a
# justified `//lint:allow <analyzer> <why>` comment; see README.md.
lint:
	$(GO) run ./cmd/asaplint ./internal/...

# allocgate re-runs every allocation-regression test in the tree (each
# test whose name contains `Allocs`; its budget lives in the test, next
# to the code it bounds) in a plain build: the race runs above skip most
# of them because -race instruments allocations, so without this target
# `check` would never enforce the zero-alloc wire path and
# kept-connection TCP round trip (DESIGN.md §15), the zero-alloc
# virtual-clock event and one-allocation timer and waiter (§10), the
# zero-alloc voice packet (§12) and relay proof check (§13), the
# zero-alloc warm session tick, the staged select-close-relay and its
# radix rank (§5), or the fixed-count route-table build and zero-alloc
# close-set probe round (§9). A new alloc test joins the gate by its
# name alone.
allocgate:
	$(GO) test -run 'Allocs' -count=1 ./...

# bench-smoke runs the benchmark module's own tests (~3 s): registry
# against BENCHMARK.json, a smoke run of every workload, span-tree
# well-formedness. bench/ is a module of its own, so the root
# `go test ./...` never sees it.
bench-smoke:
	cd bench && $(GO) test ./...

# bench runs the repo's one benchmark (BENCHMARK.json): five workloads,
# end-to-end call metrics and the per-layer ledger. `bash bench/run.sh
# -list` names every metric; -workload, -seconds, -runs/-out and
# -compare are passed the same way.
bench:
	bash bench/run.sh -seed 1

# bench-gate compares a run set (BENCH_JSON=<file>, e.g. CI's BENCH.json)
# against the tracked results/bench_baseline.seed1.json and prints the
# table. It fails only when an allocs_per_op or bytes_per_op row reads
# `worse`: counted metrics repeat across machines, timed ones do not (a
# 2-vCPU guest is bimodal), so timed and `unresolved` rows print without
# failing. The outcome digests have their own gate (digests). A PR that
# moves a counted metric on purpose re-tracks the baseline
# (`bash bench/run.sh -seed 1 -runs 3 -out results/bench_baseline.seed1.json`).
bench-gate:
	@test -n "$(BENCH_JSON)" || { echo "bench-gate: usage: make bench-gate BENCH_JSON=<file>"; exit 2; }
	@out=$$(bash bench/run.sh -compare results/bench_baseline.seed1.json $(BENCH_JSON)); st=$$?; \
	echo "$$out"; \
	if [ $$st -gt 1 ]; then exit $$st; fi; \
	if echo "$$out" | grep -qE '^ +(allocs_per_op|bytes_per_op) .* worse$$'; then \
		echo "bench-gate: a counted metric is worse than the baseline"; exit 1; \
	fi; \
	echo "bench-gate: counted metrics within their bounds"

# digests prints, per workload, the benchmark readings that depend on the
# seed alone: the outcome digest plus msgs_per_call, setup_virtual_ms_p50
# and _p99 and rescued_ratio where the workload has them (the pinned
# repetitions make them independent of -seconds). Two commits that print
# the same lines behave byte-identically on the benchmark's inputs.
# SEED=<n> picks the seed (default 1); results/digests.seed<n>.txt tracks
# seeds 1 and 7. With BENCH_JSON=<file> it reads a summary that already
# exists (the CI bench job's BENCH.json, one group per run) instead of
# running the benchmark; every run of the set must read the same, and the
# set prints once. A reading that differs between runs names itself and
# fails the target.
SEED ?= 1
digests:
	@$(if $(BENCH_JSON),cat $(BENCH_JSON),bash bench/run.sh -seed $(SEED) -seconds 1 -trace 0) | awk ' \
		function keep(k, v) { \
			if (!(k in val)) { val[k] = v; order[++n] = k } \
			else if (val[k] != v) { bad = bad "\n  " k ": " val[k] " vs " v } } \
		/"workload":/ { gsub(/[",]/, ""); w = $$2 } \
		/"(msgs_per_call|setup_virtual_ms_p50|setup_virtual_ms_p99|rescued_ratio)": \{/ { \
			gsub(/[":{]/, ""); k = $$1; getline; gsub(/,/, ""); keep(w " " k, $$2) } \
		/"outcome_digest":/ { gsub(/[",:]/, ""); keep(w " " $$1, $$2) } \
		END { \
			if (bad != "") { print "digests: the runs of the set disagree:" bad > "/dev/stderr"; exit 1 } \
			for (i = 1; i <= n; i++) print order[i], val[order[i]] }'

# bench-scale climbs the million-node deployment ladder (DESIGN.md §14):
# 10^4, 10^5 and 10^6 live protocol nodes joining, churning and calling
# on the virtual clock, sharded across the conservative-lookahead
# runner. Reports events/sec, bytes-per-node, peak RSS and the fig. 17
# relay-quality extension per rung into BENCH_scale.json; protocol
# outcomes are byte-identical for any -parallel value. SCALE_NODES
# overrides the ladder ceiling (CI uses 100000 to stay under the job
# clock, and results/BENCH_scale.json tracks that depth: the 10^6 rung
# peaks above 11 GB resident).
SCALE_NODES ?= 1000000
bench-scale:
	$(GO) run ./cmd/asapsim -scale -nodes $(SCALE_NODES) -parallel 4 -benchout BENCH_scale.json

# scale-gate checks a ladder run (BENCH_SCALE_JSON=<file>, e.g. the
# BENCH_scale.json bench-scale writes) against the tracked
# results/BENCH_scale.json. Every rung whose node count the tracked file
# holds must match it in shards, clusters, events and the call outcomes:
# all are functions of the rung's node count and bench-scale's fixed
# -parallel 4. Wall time, RSS and bytes per node are machine-dependent
# and not compared. It fails on any difference, or when no rung matched.
define SCALE_GATE_JQ
def pick: {shards, clusters, events, calls, latent, relayed, degraded, failed, mean_relay_est_ms};
[$$got[0].rungs[] as $$g | $$want[0].rungs[] | select(.nodes == $$g.nodes)
	| {nodes, same: (pick == ($$g | pick)), want: pick, got: ($$g | pick)}] as $$m
| ($$m[] | if .same then "scale-gate: \(.nodes) nodes match"
	else "scale-gate: \(.nodes) nodes differ\n  want \(.want | tojson)\n  got  \(.got | tojson)" end),
  (if ($$m | length) == 0 then "scale-gate: no rung matched a tracked one" else empty end),
  (($$m | length) > 0 and all($$m[]; .same))
endef
export SCALE_GATE_JQ
scale-gate:
	@test -n "$(BENCH_SCALE_JSON)" || { echo "scale-gate: usage: make scale-gate BENCH_SCALE_JSON=<file>"; exit 2; }
	@out=$$(jq -r -n --slurpfile want results/BENCH_scale.json --slurpfile got "$(BENCH_SCALE_JSON)" "$$SCALE_GATE_JQ") || exit 1; \
	echo "$$out" | sed '$$d'; \
	test "$$(echo "$$out" | tail -n 1)" = true || { echo "scale-gate: outcomes differ from results/BENCH_scale.json"; exit 1; }

# race-dataplane runs the media-plane packages (transport, NAT
# emulation, session monitoring) under the race detector — the layers
# that juggle keepalive timers, re-establishment and relay expiry
# concurrently — then stresses the TCP transport's connection hand-off
# (Call, the park list, Close) twenty times over, and System's scratch
# free list, which close-set builds and selections share, the virtual
# clock's Waiter/Timer hand-off (a Wake or Stop against a firing
# deadline, a re-armed waiter), the bootstrap's valley-free walk, which
# concurrent MsgGetSurrogates share under its lock, the graph's
# route-build scratch free list, which concurrent misses for different
# destinations pass from build to build, and the NAT box's warm reserve,
# which passes a bound external socket from owner to owner under the
# box's lock, ten times over each: their races are between a handful of
# goroutines and one pass rarely lines them up. The route build's
# single-goroutine reference test races nothing, so it runs once.
race-dataplane:
	$(GO) test -race -count=1 ./internal/transport/... ./internal/nat/... ./internal/session/...
	$(GO) test -race -count=20 -run 'TCP' ./internal/transport/
	$(GO) test -race -count=10 -run 'TestCloseSet|TestSelectCloseRelayConcurrent|TestBootstrapConcurrentGetSurrogates' ./internal/core/
	$(GO) test -race -count=10 -run 'Waiter|Timer|Clock' ./internal/sim/
	$(GO) test -race -count=10 -run 'Router|^TestRouteTable' ./internal/asgraph/
	$(GO) test -race -count=1 -run 'TestBuildRouteTableMatchesHeapReference' ./internal/asgraph/
	$(GO) test -race -count=10 -run 'Mapping|Reserve|Ports|BoxClose' ./internal/nat/

# test-experiments runs the virtual-time experiment suite with a tight
# timeout: everything in internal/eval runs on the simulated clock, so
# a wall-clock stall is a determinism bug, not a slow test.
test-experiments:
	$(GO) test -race -count=1 -timeout 60s ./internal/eval/

# goldens regenerates the small-profile figures (~5 s) and fails if the
# set of CSVs or any byte in them differs from the tracked
# results/small/: a figure that moved must be re-tracked in the PR that
# moved it. The CSVs are identical for any -parallel value;
# results/small_run.txt carries timings and is not compared.
goldens:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/asapsim -profile small -figs all -csv "$$dir" >/dev/null && \
	diff -rq results/small "$$dir" && echo "goldens: results/small matches"

# examples runs the four examples that live on the virtual clock and
# fails if any prints a byte other than its tracked
# results/examples/<name>.txt: an example whose output moved must be
# re-tracked in the PR that moved it. livenet uses real TCP and is not
# pinned.
EXAMPLES = quickstart callcenter churn failover
examples:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for e in $(EXAMPLES); do $(GO) run ./examples/$$e > "$$dir/$$e.txt" || exit 1; done && \
	diff -r results/examples "$$dir" && echo "examples: results/examples matches"

# profile regenerates the small-profile comparison figures with CPU and
# heap profiling enabled; inspect with `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/asapsim -profile small -figs 11,13,15,18 -cpuprofile cpu.prof -memprofile mem.prof

# profile-scale profiles the deployment ladder's 10^4 rung (joins, close
# sets, lease churn and calls on the sharded virtual clock) the same way;
# inspect with `go tool pprof scale_cpu.prof`. It writes BENCH_scale.json
# too, like bench-scale.
profile-scale:
	$(GO) run ./cmd/asapsim -scale -nodes 10000 -parallel 4 -cpuprofile scale_cpu.prof -memprofile scale_mem.prof

# chaos runs the seeded fault-injection soak under the race detector:
# drop probability, a bootstrap outage, a surrogate kill and a relay
# failure burst over the in-memory transport.
chaos:
	$(GO) test -race -run 'TestChaosSoak' -count=1 -v ./internal/core/

# check is the CI gate: everything must build, be gofmt-clean, vet and
# staticcheck clean, honor the asaplint invariants (time model, seeded
# randomness, scheduler-accounted goroutines, deterministic map
# iteration, lock/I/O discipline, pool ownership, task/timer
# accounting, protocol-enum sync, lock ordering, retry error
# classification), pass the full test suite under the race detector,
# hold the zero-alloc wire, clock-event and voice-packet paths, keep the
# benchmark module building and self-consistent, and carry no
# known-vulnerable dependencies.
check: build vet fmt staticcheck lint race allocgate bench-smoke govulncheck
