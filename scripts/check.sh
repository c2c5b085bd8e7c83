#!/usr/bin/env bash
# Repo gate: build, test, clippy, audit. Run before every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# The tests crate turns the strict-invariants feature on for the whole
# graph, so `cargo test` compiles every inline invariant check.
cargo test -q --offline
# Enforces the determinism rules in clippy.toml (see docs/AUDIT.md).
cargo clippy --offline --all-targets -- -D warnings

# Trace audit: replay the paper's interference scenario (scaled down),
# record the adaptive run's event trace, and check every simulation
# invariant over it — registered trace kinds, monotone time, disk
# exclusivity, PEC pairing, EMC transition legality, cache byte
# conservation.
golden="$(mktemp /tmp/dualpar-golden.XXXXXX.jsonl)"
trap 'rm -f "$golden"' EXIT
cargo run --release --offline -q -p dualpar-bench --example interference -- \
    --small --trace "$golden"
./target/release/dualpar-audit trace "$golden"

# Profile smoke: run the profiler on the quickstart fixture, audit the
# span stream (pairing/nesting/stage order), and baseline-diff the report
# against the committed golden profile — any simulated-time drift (new
# costs, reordered service, changed makespan) fails the gate. Regenerate
# the golden on intentional changes (--trace matters: it sets the trace
# counters embedded in the report):
#   cargo run --release -p dualpar-bench --bin dualpar -- profile quickstart \
#       --json --trace /dev/null > bench_results/PROFILE_quickstart_golden.json
prof="$(mktemp -d /tmp/dualpar-prof.XXXXXX)"
trap 'rm -f "$golden"; rm -rf "$prof"' EXIT
cargo run --release --offline -q -p dualpar-bench --bin dualpar -- \
    profile quickstart --json --trace "$prof/spans.jsonl" > "$prof/profile.json"
./target/release/dualpar-audit trace "$prof/spans.jsonl"
./target/release/dualpar-audit trace --baseline \
    bench_results/PROFILE_quickstart_golden.json "$prof/profile.json" \
    --max-regress-pct 0
cmp bench_results/PROFILE_quickstart_golden.json "$prof/profile.json"

# DSL smoke: build the committed 3-tenant mixed scenario (workload DSL +
# Poisson arrivals, see docs/WORKLOADS.md) from JSON, run it with a trace,
# audit every simulation invariant over the trace, and baseline-diff +
# byte-compare the report against the committed golden. Regenerate the
# golden on intentional changes:
#   cargo run --release -p dualpar-bench --bin dualpar -- \
#       examples/specs/multitenant.json --trace /dev/null \
#       > bench_results/GOLDEN_dsl_multitenant.json
dsl="$(mktemp -d /tmp/dualpar-dsl.XXXXXX)"
trap 'rm -f "$golden"; rm -rf "$prof" "$dsl"' EXIT
cargo run --release --offline -q -p dualpar-bench --bin dualpar -- \
    examples/specs/multitenant.json --trace "$dsl/trace.jsonl" > "$dsl/report.json"
./target/release/dualpar-audit trace "$dsl/trace.jsonl"
./target/release/dualpar-audit trace --baseline \
    bench_results/GOLDEN_dsl_multitenant.json "$dsl/report.json" \
    --max-regress-pct 0
cmp bench_results/GOLDEN_dsl_multitenant.json "$dsl/report.json"
# The same scenario through the parallel suite runner: reports must be
# byte-identical between --jobs 4 and the serial twin.
cargo run --release --offline -q -p dualpar-bench --bin dualpar -- \
    suite --spec examples/specs/multitenant.json --jobs 4 --verify-serial \
    --out "$dsl/suite.json"

# Schema-migration smoke: the committed v0-era specs (no version field,
# closed-enum-era workload tags) must still load and run.
cargo run --release --offline -q -p dualpar-bench --bin dualpar -- \
    examples/specs/quickstart_v0.json > /dev/null
cargo run --release --offline -q -p dualpar-bench --bin dualpar -- \
    examples/specs/interference_v0.json > /dev/null

# Criterion smoke: run each hot-path benchmark body once (`--test` mode of
# the vendored criterion stub) so a bench-only compile break or panic fails
# the gate without paying for timed samples.
cargo bench --offline -p dualpar-bench --bench hot_path -- --test

# Suite smoke: the parallel runner over the small figure-set suite, with
# the serial-twin determinism check (exits non-zero on any byte-level
# report divergence between --jobs N and serial), a per-run wall-clock
# timeout so a hung simulation fails its entry instead of wedging the
# gate (one retry before an entry is declared failed), and engine-speed
# numbers timed into the log (see docs/BENCH.md).
suite_out="$(mktemp -d /tmp/dualpar-suite.XXXXXX)"
trap 'rm -f "$golden"; rm -rf "$prof" "$dsl" "$suite_out"' EXIT
time cargo run --release --offline -q -p dualpar-bench --bin dualpar -- \
    suite --jobs "$(nproc)" --scale small --verify-serial \
    --timeout-secs 300 --retry 1 --out "$suite_out/BENCH_suite.json"

# Suite gate: diff the artifact the smoke run just produced against the
# committed BENCH_suite.json. Per-run sim_events and report fingerprints
# must match exactly (they are simulation-determined, machine-independent);
# the events-per-second delta is reported for the log but never gated —
# wall clocks are this machine's business. Regenerate the committed
# artifact on intentional simulation changes:
#   cargo run --release -p dualpar-bench --bin dualpar -- \
#       suite --jobs 1 --scale small --out bench_results/BENCH_suite.json
./target/release/dualpar-audit trace --baseline \
    bench_results/BENCH_suite.json "$suite_out/BENCH_suite.json"

echo "check.sh: all green"
