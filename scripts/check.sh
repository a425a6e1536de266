#!/bin/sh
# Offline gate: formatting, clippy, the workspace tests and the project
# linter across the whole workspace. Run from anywhere; everything resolves relative
# to the repo root. Each stage reports its wall time so gate slowdowns
# are visible in CI logs, and the analyzer budget is enforced: if the
# project linter blows its --budget-ms the gate FAILS instead of only
# warning.
set -eu

cd "$(dirname "$0")/.."

LINT_BUDGET_MS=5000

now_ms() {
    date +%s%3N
}

stage_t0=0
stage_begin() {
    echo "== $1 =="
    stage_t0=$(now_ms)
}
stage_end() {
    echo "-- stage wall time: $(( $(now_ms) - stage_t0 )) ms"
}

stage_begin "cargo fmt --check"
cargo fmt --all --check
stage_end

stage_begin "cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings
stage_end

stage_begin "cargo test --workspace"
# Every crate's unit, integration and doc tests in one run, not just the
# root package: a test that only passes in isolation (say, a global
# counter shared by the harness threads) fails here.
cargo test --workspace --offline -q
stage_end

stage_begin "carpool-lint (line + flow + call-graph + taint analysis)"
# Fails on any new L001-L015 violation or a stale baseline entry (exit
# 1), or on an internal analyzer error (exit 2). The cold run bypasses
# the incremental cache (--no-cache): the analyzer budget below is a
# promise about a from-scratch scan, and the cache must never be what
# keeps it honest. The JSON trend report (per-rule counts and timings,
# hot-path, flow and taint stats) lands next to the bench baselines for
# tracking; the SARIF log is the CI/editor artifact.
cargo run --offline -q -p carpool-lint -- --no-cache --budget-ms "$LINT_BUDGET_MS"
cargo run --offline -q -p carpool-lint -- --no-cache --json --budget-ms "$LINT_BUDGET_MS" \
    --sarif target/lint.sarif > crates/bench/BENCH_lint.json
echo "SARIF artifact: target/lint.sarif"
# The budget is fatal here: a static analyzer that creeps past its wall
# budget stops being a pre-commit tool, so the gate rejects it.
lint_cold_ms=$(sed -n 's/.*"elapsed_ms": *\([0-9]*\).*/\1/p' crates/bench/BENCH_lint.json | head -n 1)
if [ -z "$lint_cold_ms" ]; then
    echo "FATAL: could not read elapsed_ms from crates/bench/BENCH_lint.json"
    exit 1
fi
if [ "$lint_cold_ms" -gt "$LINT_BUDGET_MS" ]; then
    echo "FATAL: carpool-lint took ${lint_cold_ms} ms, over its ${LINT_BUDGET_MS} ms budget"
    exit 1
fi
# Warm incremental re-run over the cache the cold run just wrote. Its
# wall time rides along in the trend report next to the cold time so
# cache regressions show up in CI history; the warm path is advisory
# here (its byte-identity and <1 s contract are enforced by the lint
# crate's own tests).
warm_json=$(mktemp)
cargo run --offline -q -p carpool-lint -- --json > "$warm_json"
lint_warm_ms=$(sed -n 's/.*"elapsed_ms": *\([0-9]*\).*/\1/p' "$warm_json" | head -n 1)
rm -f "$warm_json"
lint_warm_ms=${lint_warm_ms:-0}
# Append the cold/warm pair to the JSON report (valid JSON: a trailing
# key-value pair spliced in before the closing brace).
sed -i '$ s/^}$/  ,"lint_cold_ms": '"$lint_cold_ms"', "lint_warm_ms": '"$lint_warm_ms"'\n}/' \
    crates/bench/BENCH_lint.json
echo "carpool-lint budget ok: cold ${lint_cold_ms} ms of ${LINT_BUDGET_MS} ms (warm rescan: ${lint_warm_ms} ms)"
stage_end

stage_begin "perf snapshot (phy_micro throughput)"
# Times the parallel PHY Monte-Carlo driver plus the SNR-sweep workload
# (TX-waveform cache on, bit-identity to the uncached run asserted),
# checks 1-thread vs pool determinism, and prints per-kernel and
# end-to-end deltas against the committed
# crates/bench/BENCH_perf_baseline.json. Regressions beyond 15% on the
# TX, channel and RX full chains (tx_1500B_*, channel_1500B_*,
# rx_1500B_*), the Viterbi kernels
# (viterbi_*) or the sharded MAC event engine (mac_dense_events_per_s)
# are FATAL — those rows anchor this repo's perf work; regressions on the
# remaining rows stay advisory (wall-clock noise must not fail the gate
# for unanchored rows).
cargo bench --offline -q -p carpool-bench --bench phy_micro | grep -A 60 "obs overhead gate:"
if grep -q '"rx_gate_ok":false' crates/bench/BENCH_perf.json; then
    echo "FATAL: a tx_1500B_*/channel_1500B_*/rx_1500B_*/viterbi_*/mac_dense_events_per_s row" \
         "regressed beyond 15%" \
         "against crates/bench/BENCH_perf_baseline.json (see crates/bench/BENCH_perf.json)"
    exit 1
fi
echo "perf gate ok: no tx_1500B_*/channel_1500B_*/rx_1500B_*/viterbi_*/mac_dense row worse" \
     "than baseline by >15%"
stage_end

stage_begin "obs overhead gate (flight recorder)"
# The phy_micro run above wrote crates/bench/BENCH_obs.json. The
# tracing-*disabled* decode path must stay within 1% of the plain decode
# (the hooks are a single predicted branch each) — blowing that budget
# fails the gate. The *enabled*-tracing budget is advisory: exceeding it
# prints a warning but opting into tracing is allowed to cost something.
if grep -q '"disabled_regressed":true' crates/bench/BENCH_obs.json; then
    echo "FATAL: tracing-disabled RX path regressed beyond its 1% budget" \
         "(see crates/bench/BENCH_obs.json)"
    exit 1
fi
if grep -q '"tracing_within_budget":false' crates/bench/BENCH_obs.json; then
    echo "warning: enabled flight-recorder tracing exceeds its documented" \
         "budget (non-fatal; see crates/bench/BENCH_obs.json)"
fi
echo "obs overhead ok: disabled path within 1% of the plain decode"
stage_end

echo "ok"
