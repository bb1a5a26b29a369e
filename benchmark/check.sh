#!/usr/bin/env bash
# Runs two consecutive sets of the same commit and compares them: fails if
# any end-to-end median of the second set is worse than the first by more
# than the metric's bound, or if any exact count (codegen.exec.*,
# engine-hybrid.staged_*, core.plan_cache_hit_rate, core.shed_count,
# protocol.request_bytes, protocol.bytes_per_row) differs at all.
#
#   benchmark/check.sh [--runs N]
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
benchmark/run.sh "$@" --out benchmark/out/set-a.json
benchmark/run.sh "$@" --out benchmark/out/set-b.json
python3 benchmark/sets.py compare benchmark/out/set-a.json benchmark/out/set-b.json
