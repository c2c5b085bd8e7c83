#!/usr/bin/env bash
# Regenerate every committed artifact under bench_results/ in place: the
# profile and DSL goldens, TRACES.sha256, GOLDEN_examples.sha256,
# BENCH_suite.json, BENCH_paper_btio.json and every figure file. Uses the same recipes that
# scripts/check.sh gates (scripts/artifacts.sh). Run it once after an
# intentional change of simulated behaviour and commit what `git diff
# bench_results` shows; on unchanged behaviour only the wall-clock fields
# of the two BENCH_* files move.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/artifacts.sh

cargo build --release --offline
out=bench_results
tmp="$(mktemp -d /tmp/dualpar-regen.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

profile_golden "$out/PROFILE_quickstart_golden.json" "$tmp/spans.jsonl"
dsl_golden "$out/GOLDEN_dsl_multitenant.json" "$tmp/multitenant.jsonl"
interference_trace "$tmp/interference_small.jsonl"
trace_sums "$tmp" > "$out/TRACES.sha256"
example_sums "$tmp" > "$out/GOLDEN_examples.sha256"
small_suite "$out/BENCH_suite.json" --jobs 1
paper_btio "$out/BENCH_paper_btio.json"
figures "$out" "$(nproc)"
echo "regen.sh: wrote $out/; review with git diff $out"
