#!/bin/sh
# Golden figure outputs: runs every figure/table bench target of
# crates/bench (all but the phy_micro microbenchmark) at
# CARPOOL_THREADS=1 and at 4 and compares its stdout byte for byte with
# crates/bench/golden/<target>.txt. On a mismatch it names the target,
# the thread count and the first differing line, and exits 1 once every
# target has run. A target without a golden file, or a golden file
# without a target, fails too.
#
#   scripts/golden.sh          check (a stage of scripts/check.sh)
#   scripts/golden.sh bless    rewrite the golden files from this tree
#                              (a declared output change: review the diff)
set -eu

cd "$(dirname "$0")/.."

mode=${1:-check}
case $mode in
    check | bless) ;;
    *)
        echo "usage: scripts/golden.sh [bless]" >&2
        exit 2
        ;;
esac

golden_dir=crates/bench/golden
out_dir=target/golden
mkdir -p "$out_dir" "$golden_dir"
if ! cargo bench --offline --no-run -p carpool-bench >"$out_dir/build.log" 2>&1; then
    cat "$out_dir/build.log"
    echo "FATAL: cannot build the bench targets"
    exit 1
fi

# `Executable benches/<target>.rs (<path>)`, one line per bench target.
targets=$(sed -n 's/^ *Executable benches\/\([a-z0-9_]*\)\.rs (.*)$/\1/p' "$out_dir/build.log" |
    grep -v '^phy_micro$' | sort)
fail=0
for golden in "$golden_dir"/*.txt; do
    [ -e "$golden" ] || continue
    name=$(basename "$golden" .txt)
    if ! echo "$targets" | grep -qx "$name"; then
        echo "FAIL: $golden has no bench target"
        fail=1
    fi
done

for target in $targets; do
    exe=$(sed -n "s/^ *Executable benches\/$target\.rs (\(.*\))$/\1/p" "$out_dir/build.log")
    case $exe in
        /*) ;;
        *) exe="$(pwd)/$exe" ;;
    esac
    golden="$golden_dir/$target.txt"
    for threads in 1 4; do
        out="$out_dir/$target.$threads.txt"
        # Bench targets run from their package directory, as under
        # `cargo bench`.
        (cd crates/bench && CARPOOL_THREADS=$threads "$exe" --bench) >"$out"
        if [ "$mode" = bless ] && [ "$threads" = 1 ]; then
            cp "$out" "$golden"
        fi
        if [ ! -e "$golden" ]; then
            echo "FAIL: $target has no golden file $golden"
            fail=1
            break
        fi
        if ! cmp -s "$golden" "$out"; then
            # The first hunk of the diff starts at the first differing
            # line of the golden file.
            first=$(diff "$golden" "$out" | sed -n '1s/^\([0-9]*\).*/\1/p')
            echo "FAIL: $target at CARPOOL_THREADS=$threads differs from $golden from line $first:"
            diff "$golden" "$out" | sed -n '2,7p'
            fail=1
        fi
    done
done
if [ "$fail" != 0 ]; then
    exit 1
fi
count=$(echo "$targets" | wc -l)
if [ "$mode" = bless ]; then
    echo "golden: wrote $count files to $golden_dir"
else
    echo "golden: $count targets byte-identical at CARPOOL_THREADS=1 and 4"
fi
