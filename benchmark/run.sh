#!/usr/bin/env bash
# Builds the benchmark once, then runs one set: every workload untraced
# (RUNS times, each with another seed), then traced, and prints one table.
#
#   benchmark/run.sh [--runs N] [--first-seed S] [--out FILE]
set -euo pipefail
cd "$(dirname "$0")/.."
echo "host: nproc=$(nproc) kernel=$(uname -r) $(rustc --version)" >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec python3 benchmark/sets.py run "$@"
