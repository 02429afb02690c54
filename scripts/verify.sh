#!/bin/sh
# verify.sh — the pre-merge gate, in order: formatting, build, vet,
# roglint (the invariant analyzer — it runs before any test so a broken
# invariant fails fast, prints per-pass wall time, distinguishes a
# tree the analyzer cannot load — exit 2, a build problem — from real
# findings, and repeats itself for one package's findings alone), the full
# test suite, a kernels stage (the tensor package vetted for arm64, where only
# the Go body exists, and its bit-identity tests rerun at GOAMD64=v3;
# `verify.sh kernels` = `make kernels` runs it alone), a fuzz stage (eight
# differential fuzz targets, a fixed number of inputs each; `verify.sh fuzz` =
# `make fuzz` runs it alone), a trace smoke (a tiny traced simnet run, a
# FLOWN run whose plans skip and a lossy run, each read in both rogtrace
# views: no structural error, ≥99% of every worker's wall time decomposed,
# and the gate stalls attributed — the observability pipeline must stay
# usable end to end, not just unit-green), a crash-recovery
# smoke (a run whose parameter server is killed and recovered from its
# checkpoint store, then resumed by a fresh process, then one composed run —
# aggregators, loss, a robot crash and a server crash together — whose
# trace must be well-formed), a serve smoke (a
# rogserve -listen process training in the background while a gated
# client and then a lossy retrying client exercise the inference tier
# over a real socket), and the
# race-sensitive packages (the concurrent livenet server, the policy
# engine it executes, the simnet drivers and version store that share
# engine.State with it, the wire transport, the lossnet datagram
# transport, the durable checkpoint store and the serving tier's
# snapshot publisher, the nn substrate, the simnet kernel and channel and the
# atp ranker that engine and core drive and, in -short mode, the harness whose
# workload memo and Evaluate fan-out share builds across goroutines) again
# under -race (engine and livenet three times), plus the lossnet burst tests
# twenty times over (their liveness depends on goroutine scheduling, so one
# green run proves little), and serve's read-gate tests twenty times under
# -race. `verify.sh race` runs that stage alone — it is
# what `make race` calls, so the package list lives only here. The final
# stage reruns the newest BENCH_<n>.json snapshot of every experiment that
# has one and fails the gate if any leaf of a report differs (the virtual
# clock is deterministic: a moved number arrives with a re-saved snapshot
# and a CHANGES.md line, or not at all); `verify.sh bench-drift` (= `make
# bench-drift`) runs it alone.
# The bench-build stage right after build vets, builds and tests the nested
# bench/ module, which root `go build ./...` and `go test ./...` do not see;
# `verify.sh bench-build` runs it alone. Each stage reports its wall time.
set -eu

cd "$(dirname "$0")/.."

stage() {
	name=$1
	shift
	echo "== $name =="
	t0=$(date +%s)
	"$@"
	echo "   [$name: $(($(date +%s) - t0))s]"
}

check_fmt() {
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		return 1
	fi
}

run_race() {
	# engine.Peer's gate edge and the sharded merges cross the Server.mu
	# boundary; three runs, since one schedule proves little.
	go test -race -count=3 ./internal/engine/... ./internal/livenet/...
	go test -race ./internal/rowsync/... ./internal/core/... ./internal/transport/... \
		./internal/lossnet/... ./internal/durable/... ./internal/obs/... \
		./internal/serve/... ./internal/nn/... ./internal/simnet/... \
		./internal/atp/...
	# The workload memo and Evaluate's scoring goroutines; -short leaves the
	# registry sweep (minutes under the race detector) to the plain test stage.
	go test -race -short ./internal/harness/...
	go test ./internal/lossnet -run 'Burst' -count=20
	# A lost read-gate wakeup shows only when a park races a publish.
	go test -race -run ReadGate -count=20 ./internal/serve
}

run_test() {
	# The suite runs once, through -json for each test's elapsed time. awk
	# prints what the plain run shows — every package's line and the output
	# of each failed test — and then the ten slowest tests. A subtest counts
	# as a test: a parent whose subtests run in parallel reports 0 s itself.
	tmp=$(mktemp)
	rc=0
	go test -json ./... >"$tmp" || rc=$?
	awk '
	function str(key) {
		if (!match($0, "\"" key "\":\"[^\"]*\"")) return ""
		return substr($0, RSTART + length(key) + 4, RLENGTH - length(key) - 5)
	}
	NR == FNR {
		action = str("Action")
		if (action == "fail") failed[str("Package") " " str("Test")] = 1
		if ((action == "pass" || action == "fail") && str("Test") != "" &&
			match($0, /"Elapsed":[0-9.]+/))
			printf "%9.2fs  %s %s\n", substr($0, RSTART + 10, RLENGTH - 10), str("Package"), str("Test") | slowest
		next
	}
	index($0, "\"Output\":\"") {
		test = str("Test")
		if (test != "" && !failed[str("Package") " " test]) next
		out = substr($0, index($0, "\"Output\":\"") + 10)
		sub(/"}$/, "", out)
		sub(/\\n$/, "", out)
		gsub(/\\t/, "\t", out)
		gsub(/\\u003c/, "<", out)
		gsub(/\\u003e/, ">", out)
		gsub(/\\u0026/, "\\&", out)
		gsub(/\\"/, "\"", out)
		gsub(/\\\\/, "\\", out)
		if (out !~ /^(=== |PASS$)/) print out
	}
	END {
		print "   ten slowest tests:"
		fflush()
		close(slowest)
	}' slowest='sort -rn | head -10' "$tmp" "$tmp"
	rm -f "$tmp"
	return $rc
}

run_kernels() {
	# The Go body of addScaledRows is the only one off amd64: it must build
	# there (the vet stage's asmdecl has checked the .s frame offsets on amd64).
	GOARCH=arm64 go vet ./internal/tensor
	# The assembly never fuses a multiply-add; no toolchain fuses the Go loop
	# at amd64.v3 today. The day one does, the bodies stop matching here. The
	# nn tests hold the fused Linear+ReLU and argmax to their references, the
	# fan-out test the merge's AXPY passes to the scalar AddUnit loop.
	GOAMD64=v3 go test -count=1 -run 'BitIdentical|Digest|NotAllocate|ArgmaxMatchesReference|InferenceMatchesForward|FanOutMatchesPerWorkerAddUnit' \
		./internal/tensor ./internal/nn ./internal/harness
}

run_fuzz() {
	# The test stage runs every fuzz target's seed corpus only. These eight —
	# the codec against its branchy reference, the frame reader against its
	# reference decoder, the protocol parser, the vector kernel against its Go
	# body, the affine row pass (compaction, bias, rectifier) against the plain
	# loops, the merge fan-out against a per-worker AddUnit loop, the paged
	# in-memory file against a flat slice, the serve frames' scratch decoders
	# against the allocating ones — also fuzz, for a fixed number of inputs
	# rather than a duration, so the stage costs the same every run.
	for target in compress:FuzzEncodeMatchesReference transport:FuzzRecv livenet:FuzzParse \
		tensor:FuzzAddScaledRowsMatchesGo tensor:FuzzRowPassMatchesReference \
		rowsync:FuzzFanOutMatchesAddUnit durable:FuzzMemFSMatchesFlat \
		serve:FuzzServeFrameDecode; do
		go test -run '^$' -fuzz "^${target#*:}\$" -fuzztime 50000x "./internal/${target%%:*}"
	done
}

run_serve_smoke() {
	tmp=$(mktemp -d)
	# The inference tier end to end over a real socket: a rogserve -listen
	# process trains in the background while a -connect client demands a
	# snapshot at least 2 versions in (the read gate must hold it until
	# training publishes that far), then a lossy client retries through a
	# frame-dropping channel.
	go build -o "$tmp/rogserve" ./cmd/rogserve
	"$tmp/rogserve" -listen 127.0.0.1:7917 -period 0.1 >"$tmp/listen.out" 2>&1 &
	srv=$!
	sleep 1
	out=$("$tmp/rogserve" -connect 127.0.0.1:7917 -n 5 -min-version 2) || {
		kill "$srv" 2>/dev/null
		cat "$tmp/listen.out" >&2
		rm -rf "$tmp"
		echo "serve smoke: gated client failed" >&2
		return 1
	}
	case "$out" in
	*"reply  4"*) ;;
	*)
		kill "$srv" 2>/dev/null
		echo "$out" >&2
		rm -rf "$tmp"
		echo "serve smoke: gated client finished short of 5 replies" >&2
		return 1
		;;
	esac
	out=$("$tmp/rogserve" -connect 127.0.0.1:7917 -n 5 -loss 0.5 -timeout 0.3 -retries 20 -seed 11) || {
		kill "$srv" 2>/dev/null
		rm -rf "$tmp"
		echo "serve smoke: lossy client never completed" >&2
		return 1
	}
	kill "$srv" 2>/dev/null
	rm -rf "$tmp"
	case "$out" in
	*"lossy channel dropped"*) ;;
	*)
		echo "$out" >&2
		echo "serve smoke: loss channel report missing" >&2
		return 1
		;;
	esac
}

run_recover_smoke() {
	tmp=$(mktemp -d)
	# Leg 1: kill the parameter server mid-run; it recovers from its own
	# checkpoints and the run completes.
	go run ./cmd/rogtrain -strategy rog -threshold 4 -minutes 2 \
		-checkpoint-dir "$tmp/ckpt" -checkpoint-every 20 \
		-faults "servercrash@45+10" >"$tmp/leg1.out" || {
		cat "$tmp/leg1.out" >&2
		rm -rf "$tmp"
		echo "recover smoke: crashed run failed" >&2
		return 1
	}
	case "$(cat "$tmp/leg1.out")" in
	*"recovery: recoveries 1"*) ;;
	*)
		cat "$tmp/leg1.out" >&2
		rm -rf "$tmp"
		echo "recover smoke: run never recovered from the scripted server crash" >&2
		return 1
		;;
	esac
	# Leg 2: a fresh process resumes the finished run from the same store.
	go run ./cmd/rogtrain -strategy rog -threshold 4 -minutes 3 \
		-checkpoint-dir "$tmp/ckpt" -resume >"$tmp/leg2.out" || {
		cat "$tmp/leg2.out" >&2
		rm -rf "$tmp"
		echo "recover smoke: resume failed over the surviving store" >&2
		return 1
	}
	# Leg 3: everything at once through the CLI — an aggregated fleet on a
	# lossy channel, a robot whose rejoin falls inside a server outage — and
	# the trace of it must be well-formed: rogtrace exits 0 (no pairing
	# violations) and rogtrace critpath reports no structural violation (it
	# still exits 1: a crashed robot's downtime is not decomposable, so its
	# coverage is short of 99% by construction).
	go run ./cmd/rogtrain -workers 8 -aggregators 2 \
		-faults "crash:1@60+40,servercrash@90+15" -loss 0.05 \
		-checkpoint-dir "$tmp/ckpt3" -trace "$tmp/t.jsonl" -minutes 4 >"$tmp/leg3.out" || {
		cat "$tmp/leg3.out" >&2
		rm -rf "$tmp"
		echo "recover smoke: composed run failed" >&2
		return 1
	}
	case "$(cat "$tmp/leg3.out")" in
	*"disconnects 1 reconnects 1"*"recoveries 1"*) ;;
	*)
		cat "$tmp/leg3.out" >&2
		rm -rf "$tmp"
		echo "recover smoke: composed run lost its rejoin or its recovery" >&2
		return 1
		;;
	esac
	go run ./cmd/rogtrace "$tmp/t.jsonl" >"$tmp/agg.out" || {
		cat "$tmp/agg.out" >&2
		rm -rf "$tmp"
		echo "recover smoke: composed trace has pairing violations" >&2
		return 1
	}
	out=$(go run ./cmd/rogtrace critpath "$tmp/t.jsonl") || true
	rm -rf "$tmp"
	case "$out" in
	*"structural violations"* | "")
		echo "$out" >&2
		echo "recover smoke: composed trace is structurally broken" >&2
		return 1
		;;
	esac
}

run_trace_smoke() {
	tmp=$(mktemp -d)
	# Three traces, each generated once and read in both rogtrace views: a
	# gated RSP run; a FLOWN run, whose plans skip (cause="skip"), which no
	# gauntlet cell runs, and must pair too, one plan per (worker, iter); and
	# a lossy run, whose comm segments must not count retransmission rounds
	# twice. Each view's exit code IS the assertion: rogtrace exits non-zero
	# on a structural error, rogtrace critpath also when any worker's
	# decomposition covers <99% of its wall time.
	go run ./cmd/rogtrain -paradigm crimp -strategy rog -threshold 4 \
		-minutes 2 -trace "$tmp/run.jsonl" >/dev/null &&
		go run ./cmd/rogtrain -strategy flown -minutes 2 -trace "$tmp/flown.jsonl" >/dev/null &&
		go run ./cmd/rogtrain -strategy rog -threshold 4 -minutes 3 -loss 0.05 \
			-trace "$tmp/loss.jsonl" >/dev/null &&
		go build -o "$tmp/rogtrace" ./cmd/rogtrace || {
		rm -rf "$tmp"
		echo "trace smoke: a traced run failed" >&2
		return 1
	}
	for t in run flown loss; do
		"$tmp/rogtrace" "$tmp/$t.jsonl" >"$tmp/$t.agg" &&
			"$tmp/rogtrace" critpath "$tmp/$t.jsonl" >"$tmp/$t.crit" || {
			cat "$tmp/$t.agg" "$tmp/$t.crit" >&2
			rm -rf "$tmp"
			echo "trace smoke: the $t trace is broken or its decomposition incomplete" >&2
			return 1
		}
	done
	agg=$(cat "$tmp/run.agg")
	crit=$(cat "$tmp/run.crit")
	rm -rf "$tmp"
	case "$agg" in
	*"avg iteration"*) ;;
	*)
		echo "trace smoke: rogtrace missing the composition summary" >&2
		return 1
		;;
	esac
	case "$crit" in
	*"critical path"*"top blockers"*) ;;
	*)
		echo "trace smoke: rogtrace critpath missing the per-worker table or the stall attribution of a gated RSP run" >&2
		return 1
		;;
	esac
}

run_bench_build() {
	# bench/ is a nested module (its own go.mod, replace rog => ../): root
	# `go build ./...` never sees it, so an engine/core/livenet API change
	# can break the wall-clock benchmark unnoticed. Vet, build and test it here.
	(cd bench && go vet . && go build -o /dev/null . && go test .)
}

run_bench_drift() {
	# The newest snapshot of each experiment: walk BENCH_<n>.json in
	# ascending n, keyed by the report's "experiment" field, later wins.
	latest=$(ls BENCH_[0-9]*.json 2>/dev/null | sort -t_ -k2 -n | while read -r f; do
		echo "$(sed -n 's/^ *"experiment": *"\([^"]*\)".*/\1/p' "$f" | head -1) $f"
	done | awk '{ last[$1] = $2 } END { for (e in last) print last[e] }' | sort -t_ -k2 -n)
	if [ -z "$latest" ]; then
		echo "   (no BENCH_<n>.json snapshot; run make bench-save to record one)"
		return 0
	fi
	# Every snapshot is rerun even after one has drifted, so a single pass
	# lists everything that moved; rogbench exits non-zero on a differing
	# leaf and when the experiment cannot run.
	rc=0
	for f in $latest; do
		go run ./cmd/rogbench -drift "$f" || rc=1
	done
	return $rc
}

case "${1:-}" in
race)
	stage race run_race
	exit
	;;
bench-drift)
	stage bench-drift run_bench_drift
	exit
	;;
bench-build)
	stage bench-build run_bench_build
	exit
	;;
fuzz)
	stage fuzz run_fuzz
	exit
	;;
kernels)
	stage kernels run_kernels
	exit
	;;
esac

stage fmt check_fmt
stage build go build ./...
stage bench-build run_bench_build
stage vet go vet ./...
stage lint sh scripts/lint.sh
stage test run_test
stage kernels run_kernels
stage fuzz run_fuzz
stage trace-smoke run_trace_smoke
stage recover-smoke run_recover_smoke
stage serve-smoke run_serve_smoke
stage race run_race
stage bench-drift run_bench_drift

echo "verify: OK"
