#!/usr/bin/env bash
# Bench smoke: run the heaviest experiments and every gated one at
# quick scale, so a refactor that silently breaks an experiment (wrong
# columns, panicking engine, plan/pool regression) or misses one of
# the T7-T11 gates is caught without a full evaluation run. `repro`
# prints each gate and exits non-zero when one fails. The CSVs go to
# a temporary directory, so the tracked results/ stay untouched.
#
# Run from anywhere: ./scripts/bench_smoke.sh
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"

FISHEYE_RESULTS_DIR="$(mktemp -d)"
export FISHEYE_RESULTS_DIR
trap 'rm -rf "$FISHEYE_RESULTS_DIR"' EXIT

echo "bench-smoke: repro smoke (quick scale, gated)"
cargo run --release --offline -p fisheye-bench --bin repro -- smoke

# Emitted kernel sources are pinned as snapshots; a drift here means
# the WGSL/C emitters changed output without the snapshots (and the
# review they force) being updated.
echo "bench-smoke: fisheye-codegen kernel snapshots"
cargo test --release --offline -p fisheye-codegen --test snapshots

echo "bench-smoke: OK"
