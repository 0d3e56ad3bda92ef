#!/bin/sh
# Verify tiers for the Motor repo.
#
#   tier 1 (default): build + full test suite — the repo's gate.
#   tier 2 (-race):   vet + race-enabled tests over the whole tree.
#   tier 3 (bench):   opt-in: the repo's one benchmark, every
#                     workload untraced then traced (benchmark/README.md).
#   stress tier:      race-enabled concurrency stress/chaos/progress
#                     tests with GORACE=halt_on_error=1 — the async
#                     progress engine's acceptance gate.
#   vet tier:         go vet + the load-time bytecode verifier over
#                     every masm module under examples/.
#   lint tier:        go vet + the motorlint analyzer suite
#                     (docs/ANALYSIS.md) over the whole module. Fails
#                     on any unsuppressed finding; //lint:ignore
#                     motorlint/<name> <reason> is the escape hatch
#                     and must carry a reason.
#   quicken tier:     every masm module under examples/ run verified
#                     and with -noverify (the lowering with facts and
#                     the fact-free lowering) — both must succeed, and
#                     the examples self-check their payloads — the
#                     valid corpus's jacobi array kernel both ways,
#                     which must print the same checksum, plus the
#                     differential property suites against the
#                     reference interpreter, which demand bit-identical
#                     value/stdout/trap behaviour on deterministic
#                     programs. The quickening pass's behavioural gate.
#   obs tier:         the observability gate — stall watchdog, trace
#                     stitching, flight recorder (incl. the <5%
#                     always-on overhead budget), live telemetry
#                     endpoint over real HTTP, and the cross-rank
#                     merge round-trip through cmd/mtrace.
#   gc tier:          the collector gate (docs/GC.md) — the parity
#                     suite checking both policies against the
#                     reference model, the cond-pin race regression and
#                     the fixed-arena growth test under -race, and a
#                     bounded heap-ops fuzz smoke.
#
# Usage: scripts/verify.sh [quick|race|stress|all|bench|vet|lint|quicken|obs|gc]
#   quick   tier 1 with -short (chaos sweeps skipped; < ~30s), the
#           trace export smoke, one run of the lent-DATA benchmark and
#           the collective re-measurement recipe (mpstat -collalgo)
#   race    tier 2 only
#   stress  stress tier only: shared-rank goroutine stress, fault
#           injection, deterministic-harness property/replay tests,
#           registry snapshot races — all under -race
#   all     tier 1 then tier 2 then vet (default)
#   bench   tier 1 quick, then `go run ./benchmark`; opt-in because
#           timing-sensitive and minutes long
#   vet     static checks only: go vet + motor -mode check examples/
#   lint    motorlint tier only: build cmd/motorlint, run the suite
#           over ./..., fail on unignored findings
#   quicken quicken tier only: examples and the jacobi array kernel
#           verified and -noverify + the quickening differential tests
#   obs     obs tier only: telemetry smoke, watchdog-on-injected-stall,
#           merge round-trip, flight-recorder budget
#   gc      gc tier only: parity + race regression under -race, fuzz
#           smoke
set -eu
cd "$(dirname "$0")/.."

mode="${1:-all}"

tier1() {
	echo "== tier 1: go build + go test"
	go build ./...
	if [ "$1" = short ]; then
		go test -short ./...
	else
		go test ./...
	fi
}

tier2() {
	echo "== tier 2: go vet + go test -race"
	go vet ./...
	go test -race ./...
}

tier3() {
	echo "== tier 3: go run ./benchmark"
	go run ./benchmark
}

# Stress tier: the concurrency acceptance gate for the async progress
# engine. Every test here shares one rank's Comm/Device between many
# goroutines (or drives it from the seeded deterministic harness) and
# must stay race-clean with zero leaked requests; halt_on_error makes
# the first race fatal instead of a warning. The channel and device
# packages run whole: the lock-free shm queue is only as good as its
# -race record, and a lent rendezvous send is completed by the peer's
# goroutine under the sender's device lock. The queue's slots publish
# themselves (a per-slot sequence word, no shared index), so its ring
# tests run 20 more rounds. The -run regex also picks
# up the use-after-recycle tests (TestStressStaleRequestHandle in mp,
# TestStressStaleManagedRequest in core): a recycled request reused by
# a new operation while its old handle or managed id is still used.
# A stream reader rewires references between chunk commits, so its
# partly wired graph must survive collections there; those tests run
# 10 more rounds. The last pass runs the core and mp blocking-wait
# tests, and the probe and OO tests (whose probe, chunk and ACK waits
# are requests in the same wait), on one processor, where a wait's idle
# step must yield at every poll (adi.Device.Idle) or the peer it waits
# for never runs.
tier_stress() {
	echo "== stress: -race concurrency stress + chaos + progress harness"
	GORACE=halt_on_error=1 go test -race -timeout 600s \
		-run 'Stress|Chaos|Progress|Snapshot' \
		. ./internal/mp/ ./internal/core/ ./internal/vm/
	echo "== stress: -race shm queue, payload slabs, lent RTS, sock channel, device"
	GORACE=halt_on_error=1 go test -race -timeout 600s ./internal/mp/channel/ ./internal/mp/adi/
	echo "== stress: -race shm slot protocol, 20 rounds"
	GORACE=halt_on_error=1 go test -race -timeout 600s -count=20 \
		-run 'ShmRing|ShmSlot|Slab' ./internal/mp/channel/
	echo "== stress: -race OO stream reader, rewiring between commits, 10 rounds"
	GORACE=halt_on_error=1 go test -race -timeout 600s -count=10 \
		-run 'StreamReader|Rewire|OOReader' ./internal/serial/ ./internal/core/
	echo "== stress: -race blocking waits at GOMAXPROCS=1 (every idle step yields)"
	GOMAXPROCS=1 GORACE=halt_on_error=1 go test -race -timeout 600s \
		-run 'Stress|PingPong|Wait|Probe|ORecv|OSend' ./internal/core/ ./internal/mp/
}

# Static tier: go vet plus the MASM bytecode verifier over every
# example module. A module that stops verifying is a regression in
# either the module or the verifier.
tier_vet() {
	echo "== vet: go vet + bytecode verifier over examples/"
	go vet ./...
	modules=$(find examples -name '*.masm' | sort)
	if [ -n "$modules" ]; then
		# shellcheck disable=SC2086
		go run ./cmd/motor -mode check $modules
	fi
}

# Lint tier: the motorlint analyzer suite (docs/ANALYSIS.md) — the
# repo's own invariants (safepoint rooting, typed transport errors,
# atomic field discipline, tracer nil-gating, lock ranks) checked
# mechanically over the whole module. motorlint exits nonzero on any
# unsuppressed finding, so a clean run means the tree is
# violation-free modulo documented //lint:ignore escapes.
tier_lint() {
	echo "== lint: go vet + motorlint analyzer suite"
	go vet ./...
	lintbin=$(mktemp /tmp/motorlint.XXXXXX)
	go build -o "$lintbin" ./cmd/motorlint
	"$lintbin" ./... || {
		echo "verify: motorlint found unsuppressed violations" >&2
		rm -f "$lintbin"
		exit 1
	}
	rm -f "$lintbin"
}

# Quicken tier: the behavioural gate for the quickening pass
# (docs/QUICKEN.md). Every example module must run to success verified
# (lowered with the verifier's facts) and with -noverify (lowered
# without them); the examples self-check payload integrity and exit
# nonzero on corruption, and their stdout embeds wall-clock timings, so
# byte comparison is left to the deterministic suites. The one array
# kernel, testdata/valid/jacobi.masm, is deterministic and prints its
# checksum, so its two runs are compared byte for byte. Then the
# differential property suites — randomized programs, the verifier's
# valid corpus and the kernels, compared on value/stdout/trap identity
# against the reference interpreter and between the two lowerings.
tier_quicken() {
	echo "== quicken: examples verified and -noverify"
	modules=$(find examples -name '*.masm' | sort)
	for m in $modules; do
		echo "-- $m (verified)"
		go run ./cmd/motor -np 2 "$m"
		echo "-- $m (-noverify, fact-free lowering)"
		go run ./cmd/motor -np 2 -noverify "$m"
	done
	# jacobi's main returns the checksum bits (the Go differential suite
	# compares them), which cmd/motor turns into a nonzero exit status:
	# only the printed checksum is judged here, and it must be present.
	jacobi=internal/vm/bcverify/testdata/valid/jacobi.masm
	echo "-- $jacobi (verified vs -noverify)"
	facts=$(go run ./cmd/motor -np 1 "$jacobi" 2>/dev/null || true)
	nofacts=$(go run ./cmd/motor -np 1 -noverify "$jacobi" 2>/dev/null || true)
	if [ -z "$facts" ] || [ "$facts" != "$nofacts" ]; then
		echo "quicken: $jacobi: verified printed '$facts', -noverify '$nofacts'" >&2
		exit 1
	fi
	echo "   checksum $facts both ways"
	echo "== quicken: differential property suites"
	go test -count=1 -run 'TestQuicken|TestFused|TestConvF2I|TestMasmCorpus|FuzzQuickenMasm|TestMalformed|TestBranchToNonInstruction' \
		./internal/vm/ ./internal/vm/bcverify/
}

# Obs tier: the observability acceptance gate (docs/OBSERVABILITY.md).
# Go-level checks first — watchdog fires on a planted stall, 4-rank
# stitch schema + straggler attribution, text/JSON metrics parity,
# flight-recorder duty cycle/dump/overhead budget, per-process Join
# trace export — then three end-to-end smokes over real processes: the
# live telemetry endpoint answered over HTTP while a world runs, the
# cross-rank merge round-trip through cmd/mtrace in both layouts (one
# in-process multi-rank file; one file per OS process of a sock
# world), and a trapping guest program whose flight dump must land in
# MOTOR_FLIGHT_DIR.
tier_obs() {
	echo "== obs: watchdog + stitching + parity + flight-recorder tests"
	go test -count=1 -run 'TestWatchdog|TestStitch|TestMetricsTextJSONParity|TestFlight|TestCycleFlight|TestTelemetryEndpoint|TestMerge' \
		./internal/obs/ ./internal/mp/
	go test -count=1 -tags obsbudget -run 'TestFlightRecorderOverhead|TestJoinTraceExport|TestTraceRoundTrip' .

	dir=$(mktemp -d /tmp/motor-obs.XXXXXX)
	trap 'rm -rf "$dir"' EXIT
	go build -o "$dir/mpstat" ./cmd/mpstat
	go build -o "$dir/motor" ./cmd/motor
	go build -o "$dir/mtrace" ./cmd/mtrace

	echo "== obs: live telemetry endpoint smoke"
	tport="${MOTOR_VERIFY_TELEMETRY_PORT:-19716}"
	"$dir/mpstat" -np 2 -size 256 -iters 5000000 \
		-telemetry "127.0.0.1:$tport" >/dev/null &
	tpid=$!
	ok=0
	i=0
	while [ $i -lt 50 ]; do
		if curl -fsS "http://127.0.0.1:$tport/metrics" >"$dir/metrics.txt" 2>/dev/null; then
			ok=1
			break
		fi
		kill -0 "$tpid" 2>/dev/null || break
		sleep 0.2
		i=$((i + 1))
	done
	if [ "$ok" = 1 ]; then
		curl -fsS "http://127.0.0.1:$tport/healthz" >"$dir/healthz.txt"
		curl -fsS "http://127.0.0.1:$tport/metrics?format=json" >"$dir/metrics.json"
	fi
	kill "$tpid" 2>/dev/null || true
	wait "$tpid" 2>/dev/null || true
	[ "$ok" = 1 ] || { echo "verify: telemetry endpoint never answered" >&2; exit 1; }
	grep -q '^motor_' "$dir/metrics.txt" || {
		echo "verify: /metrics has no motor_ counters" >&2
		exit 1
	}
	grep -q '^ok ' "$dir/healthz.txt" || {
		echo "verify: /healthz not ok" >&2
		exit 1
	}
	grep -q '"version"' "$dir/metrics.json" || {
		echo "verify: /metrics?format=json is not a snapshot" >&2
		exit 1
	}

	echo "== obs: merge round-trip (in-process 4-rank collectives)"
	MOTOR_TRACE="$dir/world.json" "$dir/mpstat" -np 4 -coll -iters 40 >/dev/null
	"$dir/mtrace" -o "$dir/merged.json" "$dir/world.json" \
		>"$dir/report.txt" 2>"$dir/mtrace.err"
	grep -q '"traceEvents"' "$dir/merged.json" || {
		echo "verify: merged trace is not a Chrome trace" >&2
		exit 1
	}
	grep -q 'flow pairs' "$dir/mtrace.err" || {
		echo "verify: mtrace reported no flow pairs" >&2
		exit 1
	}
	if grep -q '(0 flow pairs' "$dir/mtrace.err"; then
		echo "verify: merged trace has zero flow pairs" >&2
		exit 1
	fi
	grep -q '^straggler report: [1-9]' "$dir/report.txt" || {
		echo "verify: straggler report aligned no collective instances" >&2
		exit 1
	}
	grep -q '^rank 3:' "$dir/report.txt" || {
		echo "verify: straggler report is missing ranks" >&2
		exit 1
	}

	echo "== obs: merge round-trip (one trace file per OS process)"
	mport="${MOTOR_VERIFY_ROOT_PORT:-19717}"
	"$dir/motor" -mode serve -addr "127.0.0.1:$mport" -np 2 &
	spid=$!
	MOTOR_TRACE="$dir/rank0.json" "$dir/motor" -mode rank \
		-root "127.0.0.1:$mport" -rank 0 -np 2 \
		examples/managed-pingpong/pingpong.masm >/dev/null &
	rpid=$!
	MOTOR_TRACE="$dir/rank1.json" "$dir/motor" -mode rank \
		-root "127.0.0.1:$mport" -rank 1 -np 2 \
		examples/managed-pingpong/pingpong.masm >/dev/null
	wait "$rpid"
	wait "$spid"
	"$dir/mtrace" -q -o "$dir/merged2.json" "$dir/rank0.json" "$dir/rank1.json" \
		2>"$dir/mtrace2.err"
	grep -q '"traceEvents"' "$dir/merged2.json" || {
		echo "verify: multi-process merged trace is not a Chrome trace" >&2
		exit 1
	}
	if grep -q '(0 flow pairs' "$dir/mtrace2.err"; then
		echo "verify: multi-process merge paired no edges" >&2
		exit 1
	fi

	echo "== obs: MOTOR_FLIGHT_DIR receives a guest trap's flight dump"
	# main loads index 9 of a 4-element int32[]: it verifies, then traps.
	cat >"$dir/trap.masm" <<'MASM'
.method main (0) int32
  ldc.i4 4
  newarr int32
  ldc.i4 9
  ldelem
  ret.val
.end
MASM
	mkdir "$dir/flight"
	if MOTOR_FLIGHT_DIR="$dir/flight" "$dir/motor" -np 1 "$dir/trap.masm" 2>"$dir/trap.err"; then
		echo "verify: the out-of-range load did not trap" >&2
		exit 1
	fi
	dumps=$(find "$dir/flight" -name 'motor-flight-*-guest-trap.json' | wc -l)
	if [ "$dumps" -ne 1 ]; then
		echo "verify: $dumps guest-trap flight dumps in MOTOR_FLIGHT_DIR, want 1" >&2
		cat "$dir/trap.err" >&2
		exit 1
	fi

	echo "== obs: watchdog fires on an injected stall, in every blocking wait"
	go test -count=1 -run 'TestWatchdogDetectsStalledRank|TestWatchdogFiresOnStall|TestWatchdogReportsEnginePeer|TestWatchdogSeesEveryWait' \
		./internal/mp/ ./internal/obs/ ./internal/core/
	rm -rf "$dir"
	trap - EXIT
}

# GC tier: the collector acceptance gate (docs/GC.md). The parity
# suite replays identical mutator scripts on the §5.2 and the moving
# policy and demands that each one's object graph, pinned and held
# addresses and cond-pin examinations equal the reference model's,
# and that both agree on collection stats; the race regression forces
# a cond-pin to complete mid-mark from a parked thread; the fuzz smoke replays
# byte-coded heap-op sequences with invariant checks after every
# collection (short minimize budget so the smoke stays bounded). Pause
# times are guarded by the benchmark's gc-churn workload.
tier_gc() {
	echo "== gc: model parity + cond-pin race regression + mark stress + fixed arena (-race)"
	GORACE=halt_on_error=1 go test -race -timeout 600s -count=1 \
		-run 'TestGCDifferentialParity|TestStressCondPinMidMarkResolution|TestStressMarkWideAndDeep|TestDonationSubHeaderTail|TestArenaNeverMoves|TestAllocsCompaction' \
		./internal/vm/
	# The allocation guards are built without -race only.
	echo "== gc: a scavenge and a compacting full collection allocate nothing per object"
	go test -count=1 -run 'TestAllocsScavenge|TestAllocsCompaction' ./internal/vm/
	echo "== gc: heap-ops fuzz smoke"
	go test -count=1 -run FuzzHeapOps -fuzz FuzzHeapOps \
		-fuzztime 30s -fuzzminimizetime 5s ./internal/vm/
}

# Trace smoke: a traced mpstat run must produce a loadable Chrome
# trace (exercises the MOTOR_TRACE env path end to end).
smoke_trace() {
	echo "== smoke: MOTOR_TRACE Chrome trace export"
	out=$(mktemp /tmp/motor-trace.XXXXXX)
	MOTOR_TRACE="$out" go run ./cmd/mpstat -np 2 -size 1024 -iters 20 -metrics >/dev/null
	grep -q '"traceEvents"' "$out" || {
		echo "verify: $out is not a Chrome trace" >&2
		rm -f "$out"
		exit 1
	}
	rm -f "$out"
}

# One iteration of the shm lent round trip (the receiver and the
# waiting lender each copy half), so the benchmark cannot rot.
smoke_lend() {
	echo "== smoke: BenchmarkShmLendPingPong, one iteration"
	go test -run '^$' -bench '^BenchmarkShmLendPingPong$' -benchtime 1x ./internal/mp/channel/
}

# A shm rendezvous is one frame: the RTS lends its payload, with no
# CTS back and no DATA forward. A 20-iteration 128 KiB ping-pong moves
# 20 frames each way per rank (RTS, CTS, DATA read 60/60).
smoke_rndv() {
	echo "== smoke: one-frame shm rendezvous (mpstat wire frames)"
	bin=$(mktemp /tmp/motor-mpstat.XXXXXX)
	go build -o "$bin" ./cmd/mpstat
	got=$("$bin" -np 2 -size 131072 -iters 20 | grep -c 'wire: frames(out/in)=20/20 ') || true
	rm -f "$bin"
	if [ "$got" != 2 ]; then
		echo "verify: $got of 2 ranks read wire: frames(out/in)=20/20" >&2
		exit 1
	fi
}

# docs/COLLECTIVES.md's re-measurement recipe for a few iterations:
# every rank's coll: line must count exactly the forced algorithms. At
# 64 KiB auto-selection picks the large-message algorithms, so the
# recipe also runs forcing the small-message ones.
smoke_coll() {
	echo "== smoke: mpstat -coll -collalgo re-measurement recipe"
	bin=$(mktemp /tmp/motor-mpstat.XXXXXX)
	go build -o "$bin" ./cmd/mpstat
	n=5
	for run in \
		"allreduce=ring,allgather=ring,bcast=pipelined|allreduce(rd/ring)=0/$n allgather(gb/ring)=0/$n bcast(bin/pipe)=0/$n" \
		"allreduce=recdbl,allgather=gatherbcast,bcast=binomial|allreduce(rd/ring)=$n/0 allgather(gb/ring)=$n/0 bcast(bin/pipe)=$n/0"; do
		spec=${run%%|*}
		want=${run#*|}
		got=$("$bin" -np 4 -coll -size 65536 -iters "$n" -collalgo "$spec" | grep -cF "$want") || true
		if [ "$got" != 4 ]; then
			echo "verify: -collalgo $spec: $got of 4 ranks count '$want'" >&2
			rm -f "$bin"
			exit 1
		fi
	done
	rm -f "$bin"
}

case "$mode" in
quick)
	tier1 short
	smoke_trace
	smoke_lend
	smoke_rndv
	smoke_coll
	;;
race) tier2 ;;
stress) tier_stress ;;
all)
	tier1 full
	tier2
	tier_vet
	tier_lint
	tier_quicken
	tier_obs
	tier_gc
	smoke_trace
	;;
bench)
	tier1 short
	tier3
	;;
vet) tier_vet ;;
lint) tier_lint ;;
quicken) tier_quicken ;;
obs) tier_obs ;;
gc) tier_gc ;;
*)
	echo "usage: $0 [quick|race|stress|all|bench|vet|lint|quicken|obs|gc]" >&2
	exit 2
	;;
esac
echo "verify: OK ($mode)"
