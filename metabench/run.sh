#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash metabench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Two builds share the sources: a plain one
# for the end-to-end metrics and one with the program's `obs` feature
# for the traced run. A traced run first makes the untraced run at the
# same seed, so it can report tracing overhead and check that tracing
# changes no output bit. Build output and scratch files go under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"

build() {
    local dir="$1"
    shift
    cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" \
        --target-dir "$target/$dir" "$@" >&2
}
build plain
build traced --features obs

work="$target/metabench-work"
trace=0
untraced=()
while (($#)); do
    if [[ "$1" == "--trace" && $# -ge 2 ]]; then
        trace="$2"
        untraced+=(--trace 0)
        shift 2
    else
        untraced+=("$1")
        shift
    fi
done

plain_bin="$target/plain/release/metadse-metabench"
if [[ "$trace" != "1" ]]; then
    exec "$plain_bin" "${untraced[@]}" --workdir "$work"
fi
baseline="$("$plain_bin" "${untraced[@]}" --workdir "$work" | tail -n 1)"
exec "$target/traced/release/metadse-metabench" "${untraced[@]:0:${#untraced[@]}}" \
    --workdir "$work" --baseline "$baseline" --trace 1
