#!/usr/bin/env bash
# Build the benchmark and run it from benchmark/, so that
# benchmark/.cargo/config.toml (target-cpu=native) applies whatever the
# caller's working directory is. Arguments go to the binary unchanged:
#   bash benchmark/run.sh --workload ska_dense --seed 1 --seconds 15 --trace 0
set -euo pipefail
# a relative CARGO_TARGET_DIR is relative to the caller's directory
if [[ -n "${CARGO_TARGET_DIR:-}" && "${CARGO_TARGET_DIR}" != /* ]]; then
    export CARGO_TARGET_DIR="${PWD}/${CARGO_TARGET_DIR}"
fi
cd "$(dirname "${BASH_SOURCE[0]}")"
exec cargo run --release --offline --quiet -- "$@"
