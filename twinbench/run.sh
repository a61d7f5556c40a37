#!/usr/bin/env bash
# Build the release `sraps` daemon and the benchmark, then run one
# workload. Run from the repository root:
#
#   bash twinbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Both builds share $CARGO_TARGET_DIR (default: target). Build output goes
# to stderr, so the last stdout line is the benchmark's JSON result.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "twinbench: run from the repository root (no Cargo.toml/crates here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p sraps-serve --bin sraps >&2
cargo build --release --offline --quiet --manifest-path twinbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/twinbench" --sraps "$CARGO_TARGET_DIR/release/sraps" "$@"
