#!/bin/sh
# Offline gate: a size report, formatting, clippy, rustdoc, the workspace
# tests, the PHY tests in release, the perfbench tests and the
# paired perf gate against the parent commit. Run from anywhere;
# everything resolves relative to the repo root. Each stage reports its
# wall time so gate slowdowns are visible in CI logs.
#
# Visibility is checked in two layers. rustc's `unreachable_pub`
# (Cargo.toml), fatal under clippy's -D warnings, flags a `pub` item that
# nothing outside its crate can reach. The root test
# `tests/source_rules.rs` (L010) flags a `pub` item of a library crate
# that nothing outside its crate's `src/` names (or, for a method, calls
# as `.name(` or `::name`): another crate, a `tests/`, `benches/` or
# `examples/` file, or `perfbench/src/`. The same test holds the
# atomic-ordering notes (L009), the unit-suffix rule (L013), the barrier
# tag (L015) and the `pub fn` ratchet.
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

stage_begin "size report"
# Lines of Rust per crate, so a removal change can quote its
# before/after from one command. Informational only: the `pub fn`
# ratchet is the root test `tests/source_rules.rs`, which counts
# declarations in code rather than the words in strings and comments.
# perfbench/ (the benchmark harness) is not counted.
for dir in crates/* src tests examples; do
    [ -d "$dir" ] || continue
    lines=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l) || lines=?
    printf '  %-20s %7s lines\n' "$dir" "$lines"
done
total=$(find crates src tests examples -name '*.rs' -exec cat {} + | wc -l) || total=?
echo "  workspace .rs total: $total lines"
stage_end

stage_begin "cargo fmt --check"
cargo fmt --all --check
stage_end

stage_begin "cargo clippy (-D warnings)"
# The project lints live in Cargo.toml [workspace.lints] and clippy.toml
# at `warn`; -D warnings makes every one of them fatal here, rustc's
# `unreachable_pub` among them.
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

stage_begin "cargo test --release -p carpool-phy -p carpool-channel"
# The PHY kernels and the channel must stay bit-identical to their
# references, and the optimizer decides some of their floating-point
# results (a constant-folded 0/0 once differed between debug and
# release), while the workspace run above is a debug build. So every
# carpool-phy and carpool-channel test runs again in release, the
# optimised build perfbench uses: the golden hashes of
# transmit/receive/Viterbi and of the channel's output among them, and
# the channel's one-allocation-per-frame pin. The Viterbi overflow-trap
# tests can only pass where `i32` overflow traps, so they compile only
# under `debug_assertions` and run in the debug stage above.
cargo test --release --offline -q -p carpool-phy
cargo test --release --offline -q -p carpool-channel
stage_end

stage_begin "cargo test perfbench (its own workspace)"
# perfbench/ is a package with its own [workspace] that builds the
# library crates by path and calls their pub items, so nothing above
# compiles it: a renamed or deleted pub fn it uses would only surface
# when the benchmark runs. Its build lands under target/ like the rest.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
stage_end

stage_begin "paired perf gate (phy_micro against the parent commit)"
# Times this tree's phy_micro against the parent commit's, 20 runs each
# in alternating order on this host, and judges each row by the median
# of the per-pair change/parent ratios with a 95% bootstrap interval
# (the module doc of crates/bench/benches/phy_micro.rs has the rule).
# FATAL: a TX, channel or RX full-chain row (tx_1500B_*,
# channel_1500B_*, rx_1500B_{qpsk12,qam16,qam64}), a Viterbi row or the
# sharded MAC engine row (mac_dense_16ap) whose whole interval lies
# above 1.15, and a tracing-disabled decode whose whole interval against
# the plain decode lies above 1.01. Enabled tracing over 1.25 only
# warns. The parent is HEAD when the working tree has changes, else
# HEAD~1; the crates/bench/BENCH_*.json snapshots this stage rewrites do
# not count as changes, or a second run would compare HEAD with itself.
# `git archive` extracts the parent into target/perf-parent/ (git
# registers nothing) and its phy_micro is built there. The verdicts land
# in crates/bench/BENCH_perf.json and crates/bench/BENCH_obs.json.
if [ -n "$(git status --porcelain -- . ':(exclude)crates/bench/BENCH_*.json')" ]; then
    parent_rev=HEAD
else
    parent_rev=HEAD~1
fi
parent_dir="$(pwd)/target/perf-parent"
rm -rf "$parent_dir/tree"
mkdir -p "$parent_dir/tree"
git archive "$parent_rev" | tar -x -C "$parent_dir/tree"
if ! cargo bench --offline --no-run -p carpool-bench --bench phy_micro \
    --manifest-path "$parent_dir/tree/Cargo.toml" \
    --target-dir "$parent_dir/target" >"$parent_dir/build.log" 2>&1; then
    cat "$parent_dir/build.log"
    echo "FATAL: cannot build the phy_micro of $parent_rev"
    exit 1
fi
parent_bin=$(sed -n 's/^ *Executable benches\/phy_micro\.rs (\(.*\))$/\1/p' "$parent_dir/build.log")
# Cargo prints the path relative to the working directory when it can;
# phy_micro runs from crates/bench.
case $parent_bin in
    /*) ;;
    *) parent_bin="$(pwd)/$parent_bin" ;;
esac
echo "parent: $parent_rev ($(git rev-parse --short "$parent_rev")), $parent_bin"
if ! cargo bench --offline -q -p carpool-bench --bench phy_micro -- --against "$parent_bin"; then
    echo "FATAL: the paired perf gate failed against $parent_rev" \
         "(see crates/bench/BENCH_perf.json and crates/bench/BENCH_obs.json)"
    exit 1
fi
stage_end

echo "ok"
