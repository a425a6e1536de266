#!/bin/sh
# Offline gate: the `pub fn` ratchet, the atomic-ordering notes,
# formatting, clippy, rustdoc, the workspace tests (the dead-API and
# unit-suffix source rules are one of them, `tests/source_rules.rs`) and
# the perfbench tests across the whole workspace. Run from anywhere;
# everything resolves relative to the repo root. Each stage reports its
# wall time so gate slowdowns are visible in CI logs.
set -eu

cd "$(dirname "$0")/.."

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

stage_begin "size report and pub fn ratchet"
# Lines of Rust and `pub fn` declarations per crate, so a removal change
# can quote its before/after from one command. The line counts are
# informational. The `pub fn` counts are a ratchet: each directory's
# count may not exceed its ceiling in scripts/pub_fn_ceilings.txt (a
# directory with no ceiling has a ceiling of 0), so the public surface
# never grows. A change that removes pub fns lowers the ceilings it
# beats. perfbench/ (the benchmark harness) is not counted.
ceilings=scripts/pub_fn_ceilings.txt
over=0
for dir in crates/* src tests examples; do
    [ -d "$dir" ] || continue
    lines=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l) || lines=?
    pub_fns=$(grep -rh --include='*.rs' 'pub fn' "$dir" | wc -l)
    ceiling=$(awk -v d="$dir" '$1 == d { print $2 }' "$ceilings")
    printf '  %-20s %7s lines %5s pub fn (ceiling %s)\n' "$dir" "$lines" "$pub_fns" "${ceiling:-0}"
    if [ "$pub_fns" -gt "${ceiling:-0}" ]; then
        echo "  FATAL: $dir has $pub_fns pub fn, over its ceiling of ${ceiling:-0} in $ceilings"
        over=1
    fi
done
total=$(find crates src tests examples -name '*.rs' -exec cat {} + | wc -l) || total=?
echo "  workspace .rs total: $total lines"
if [ "$over" -ne 0 ]; then
    exit 1
fi
stage_end

stage_begin "atomic ordering notes (crates/par, crates/obs)"
# The two crates whose atomics touch results: every `Ordering::` in their
# non-test code (a file's test module comes last) carries an
# `// ordering: <why>` note, on its line or in the comment block directly
# above. `Relaxed` orders nothing else, so its note must name a counter.
awk 'FNR == 1 { in_test = 0; note = "" }
    /^mod tests/ { in_test = 1 }
    in_test { next }
    /^[[:space:]]*\/\// { note = note " " $0; next }
    /Ordering::/ {
        own = index($0, "//") ? substr($0, index($0, "//")) : ""
        text = tolower(note " " own)
        if (text !~ /ordering:/ || (/Ordering::Relaxed/ && text !~ /(^|[^a-z0-9_])counter([^a-z0-9_]|$)/)) {
            print FILENAME ":" FNR ": `Ordering::` without an `// ordering:` note (a counter, for Relaxed)"
            bad = 1
        }
    }
    { note = "" }
    END { exit bad }' crates/par/src/*.rs crates/obs/src/*.rs
stage_end

stage_begin "cargo fmt --check"
cargo fmt --all --check
stage_end

stage_begin "cargo clippy (-D warnings)"
# The project lints live in Cargo.toml [workspace.lints] and clippy.toml
# at `warn`; -D warnings makes every one of them fatal here.
cargo clippy --workspace --all-targets --offline -- -D warnings
stage_end

stage_begin "cargo doc (-D warnings)"
# Broken intra-doc links and public docs that link private items are
# rustdoc warnings; -D warnings makes them fatal here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
stage_end

stage_begin "cargo test --workspace"
# Every crate's unit, integration and doc tests in one run, not just the
# root package: a test that only passes in isolation (say, a global
# counter shared by the harness threads) fails here.
cargo test --workspace --offline -q
stage_end

stage_begin "cargo test perfbench (its own workspace)"
# perfbench/ is a package with its own [workspace] that builds the
# library crates by path and calls their pub items, so nothing above
# compiles it: a renamed or deleted pub fn it uses would only surface
# when the benchmark runs. Its build lands under target/ like the rest.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
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
