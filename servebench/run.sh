#!/usr/bin/env bash
# Builds `marioh` and the benchmark from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash servebench/run.sh --workload fresh --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates || ! -f servebench/Cargo.toml ]]; then
    echo "servebench: run from the root of a marioh checkout" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$target"
target="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --bin marioh >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2

exec "$target/release/servebench" "$@" --marioh "$target/release/marioh"
