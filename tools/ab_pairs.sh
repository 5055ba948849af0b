#!/usr/bin/env bash
# Alternating A/B runs of the host-throughput benchmark (perfbench/)
# between a parent revision and the working tree.
#
#   tools/ab_pairs.sh <parent-rev> <workload> <pairs> <seconds> <out.jsonl> [perfbench args...]
#
# Builds both sides' perfbench with `cargo build --release --offline`:
# the parent from a `git archive` export of <parent-rev> under
# target/ab/<commit>/ (reused by later calls), the change in place. It
# then runs `--workload <workload> --seconds <seconds>` plus any extra
# arguments (e.g. `--seed 11`, `--trace 1`) <pairs> times per side,
# parent first in odd pairs and change first in even ones, and appends
# one line per run to <out.jsonl>: the benchmark's result object tagged
# with its workload, seed, pair, side and trace mode. A run whose output
# has no result line stops the script.
#
# Both sides run from one empty directory, target/ab/cwd/. The benchmark
# names the commit from `.git` in its working directory, and that one
# small allocation shifts the heap layout enough to move `ocean-scoma`'s
# peak RSS by up to 3 MB: the same binary read 42.3 MB without `.git`
# and 45.3 MB with it. Run from the checkout and the export, the sides
# would differ for that reason alone.
set -euo pipefail

if [ "$#" -lt 5 ]; then
    sed -n '4,15p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4 out=$5
shift 5
extra=("$@")

root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
parent_dir="$root/target/ab/$commit"
cwd="$root/target/ab/cwd"
mkdir -p "$cwd"
if [ ! -d "$parent_dir/perfbench" ]; then
    mkdir -p "$parent_dir"
    git -C "$root" archive "$commit" | tar -x -C "$parent_dir"
fi
for dir in "$parent_dir" "$root"; do
    cargo build --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml"
done

run() { # <side> <pair>
    local dir
    if [ "$1" = parent ]; then dir=$parent_dir; else dir=$root; fi
    local output host result
    output=$(cd "$cwd" && "$dir/perfbench/target/release/prism-perfbench" \
        --workload "$workload" --seconds "$seconds" ${extra[@]+"${extra[@]}"})
    host=$(printf '%s\n' "$output" | grep -m1 '^host:')
    result=$(printf '%s\n' "$output" | tail -n 1)
    case $result in
        '{"correct"'*) ;;
        *) echo "ab_pairs: no result line from the $1 run of pair $2" >&2; exit 1 ;;
    esac
    local seed=${host##*seed=} trace=${host##*trace=}
    seed=${seed%% *}
    printf '{"workload": "%s", "seed": %s, "pair": %s, "side": "%s", "trace": %s, %s\n' \
        "$workload" "$seed" "$2" "$1" "$trace" "${result#\{}" >> "$out"
    echo "pair $2 $1: ${result:0:120}" >&2
}

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run "$side" "$pair"
    done
done
