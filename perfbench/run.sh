#!/usr/bin/env bash
# Build the benchmark's two binaries, then run the untraced one, which
# spawns the traced one itself when asked for `--trace 1`.
#
# Usage: bash perfbench/run.sh --workload NAME [--seed N] [--seconds N] [--trace 0|1]
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/hog-perfbench" "$@"
