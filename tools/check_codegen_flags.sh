#!/usr/bin/env bash
# Fail unless rustc compiles idg_kernels with the codegen flags of
# .cargo/config.toml, in the workspace build (debug, as `cargo test`
# builds it) and in the benchmark/ build (release, as benchmark/run.sh
# builds it).
#
#   tools/check_codegen_flags.sh
#
# A `RUSTFLAGS` variable replaces the config's flags, so the check reads
# whatever the caller's environment builds: run it once as CI runs its
# builds and once with `env -u RUSTFLAGS` for what a plain checkout
# builds. It touches crates/kernels/src/lib.rs so that cargo re-runs
# rustc for that one crate and prints its command line.
set -euo pipefail

repo=$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)
want=(target-cpu=native target-feature=-prefer-256-bit)
status=0
for build in workspace benchmark; do
    if [[ $build == workspace ]]; then
        dir=$repo args=(--offline)
    else
        dir=$repo/benchmark args=(--offline --release)
    fi
    touch "$repo/crates/kernels/src/lib.rs"
    line=$(cd "$dir" && cargo build "${args[@]}" -v -p idg-kernels 2>&1 \
        | grep -- '--crate-name idg_kernels ' || true)
    if [[ -z $line ]]; then
        echo "$build build: no rustc command line for idg_kernels" >&2
        status=1
        continue
    fi
    echo "$build build: idg_kernels gets" $(grep -o -- '-C target-[a-z-]*=[^ `]*' <<< "$line")
    for flag in "${want[@]}"; do
        if ! grep -q -- "-C $flag" <<< "$line"; then
            echo "$build build: idg_kernels is built without -C $flag" >&2
            status=1
        fi
    done
done
exit $status
