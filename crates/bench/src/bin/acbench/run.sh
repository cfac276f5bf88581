#!/usr/bin/env bash
# Builds the release `acspec` and `acbench` from this checkout, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash crates/bench/src/bin/acbench/run.sh --workload suite-cold --seed 0 --seconds 10 --trace 0
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/core ]]; then
    echo "acbench: run from the root of an acspec checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --bin acspec >&2
cargo build --offline --release --quiet --manifest-path crates/bench/src/bin/acbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/acbench" "$@"
