#!/bin/sh
# Offline gate: a size report, the atomic-ordering notes, formatting,
# clippy, rustdoc, the workspace tests (among them the dead-API,
# unit-suffix and `pub fn` ratchet source rules, `tests/source_rules.rs`),
# the perfbench tests and the paired perf gate against the parent commit. Run from anywhere;
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
