#!/usr/bin/env bash
# Repo gate: format, build, test, clippy, audit. Run before every commit.
set -euo pipefail
cd "$(dirname "$0")/.."
# The artifact recipes, shared with scripts/regen.sh: each gate below
# writes its artifact into a temp dir with the recipe that regenerates the
# committed copy, so a gate and its recipe cannot drift.
source scripts/artifacts.sh

# Formatting: every workspace member as `cargo fmt` leaves it.
cargo fmt --all --check
cargo build --release --offline
# The tests crate turns the strict-invariants feature on for the whole
# graph, so `cargo test` compiles every inline invariant check.
cargo test -q --offline
# Enforces the determinism rules in clippy.toml (see docs/AUDIT.md).
cargo clippy --offline --all-targets -- -D warnings
# Rustdoc: every intra-doc link must resolve, private items' docs
# included, and no public doc may link to a private item (a link left
# behind by a deleted item fails here).
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --document-private-items

# Trace audit: replay the paper's interference scenario (scaled down),
# record the adaptive run's event trace, and check every simulation
# invariant over it — registered trace kinds, monotone time, disk
# exclusivity, PEC pairing, EMC transition legality, cache byte
# conservation. The trace is also pinned byte for byte (below), so a
# change of event order fails even when every invariant still holds.
traces="$(mktemp -d /tmp/dualpar-traces.XXXXXX)"
trap 'rm -rf "$traces"' EXIT
interference_trace "$traces/interference_small.jsonl"
./target/release/dualpar-audit trace "$traces/interference_small.jsonl"

# Profile smoke: run the profiler on the quickstart fixture, audit the
# span stream (pairing/nesting/stage order), and baseline-diff the report
# against the committed golden profile — any simulated-time drift (new
# costs, reordered service, changed makespan) fails the gate. Every
# committed artifact is regenerated on an intentional change with
# scripts/regen.sh.
prof="$(mktemp -d /tmp/dualpar-prof.XXXXXX)"
trap 'rm -rf "$traces" "$prof"' EXIT
profile_golden "$prof/profile.json" "$prof/spans.jsonl"
./target/release/dualpar-audit trace "$prof/spans.jsonl"
./target/release/dualpar-audit trace --baseline \
    bench_results/PROFILE_quickstart_golden.json "$prof/profile.json" \
    --max-regress-pct 0
cmp bench_results/PROFILE_quickstart_golden.json "$prof/profile.json"

# DSL smoke: build the committed 3-tenant mixed scenario (workload DSL +
# Poisson arrivals, see docs/WORKLOADS.md) from JSON, run it with a trace,
# audit every simulation invariant over the trace, and baseline-diff +
# byte-compare the report against the committed golden.
dsl="$(mktemp -d /tmp/dualpar-dsl.XXXXXX)"
trap 'rm -rf "$traces" "$prof" "$dsl"' EXIT
dsl_golden "$dsl/report.json" "$traces/multitenant.jsonl"
./target/release/dualpar-audit trace "$traces/multitenant.jsonl"
./target/release/dualpar-audit trace --baseline \
    bench_results/GOLDEN_dsl_multitenant.json "$dsl/report.json" \
    --max-regress-pct 0
cmp bench_results/GOLDEN_dsl_multitenant.json "$dsl/report.json"

# Trace pin: the two traces above must match the committed sha256 sums,
# so any drift in event order or trace content fails the gate, not only
# an invariant violation.
diff bench_results/TRACES.sha256 <(trace_sums "$traces")
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

# Example pin: run every example once and diff the sums of their stdout
# against the committed GOLDEN_examples.sha256, so an example that panics,
# exits non-zero or prints anything different fails the gate (about 1.5 s).
exs="$(mktemp -d /tmp/dualpar-examples.XXXXXX)"
trap 'rm -rf "$traces" "$prof" "$dsl" "$exs"' EXIT
diff bench_results/GOLDEN_examples.sha256 <(example_sums "$exs")

# Criterion smoke: run each hot-path benchmark body once (`--test` mode of
# the vendored criterion stub) so a bench-only compile break or panic fails
# the gate without paying for timed samples.
cargo bench --offline -p dualpar-bench --bench hot_path -- --test
cargo bench --offline -p dualpar-bench --bench sim_microbench -- --test

# Benchmark smoke: perfbench/ is a Cargo package of its own that compiles
# against the crates' public API (scripts, `plan_strided`, `ghost_walk`,
# the cache), so an API change that breaks it fails here, not in the next
# benchmark run. Builds into .bench_build/ and runs each workload briefly.
python3 perfbench/run.py --smoke

# Suite smoke: the parallel runner over the small figure-set suite, with
# the serial-twin determinism check (exits non-zero on any byte-level
# report divergence between --jobs N and serial), a per-run wall-clock
# timeout so a hung simulation fails its entry instead of wedging the
# gate, and engine-speed
# numbers timed into the log (see docs/BENCH.md).
suite_out="$(mktemp -d /tmp/dualpar-suite.XXXXXX)"
trap 'rm -rf "$traces" "$prof" "$dsl" "$exs" "$suite_out"' EXIT
time small_suite "$suite_out/BENCH_suite.json" --jobs "$(nproc)" --verify-serial \
    --timeout-secs 300

# Suite gate: diff the artifact the smoke run just produced against the
# committed BENCH_suite.json. Per-run sim_events and report fingerprints
# must match exactly (they are simulation-determined, machine-independent);
# the events-per-second delta is reported for the log but never gated —
# wall clocks are this machine's business.
./target/release/dualpar-audit trace --baseline \
    bench_results/BENCH_suite.json "$suite_out/BENCH_suite.json"

# Figure-artifact drift gate: regenerate every registered figure (about
# 20 s of simulation on 2 cores) into a scratch directory and require the
# committed figure files back exactly: a file whose bytes differ, a
# committed figure file that is not written, or a written file that is not
# committed all fail. The other committed artifacts (BENCH_*, GOLDEN_*,
# PROFILE_*, TRACES.sha256) are gated above and below.
figs="$(mktemp -d /tmp/dualpar-figs.XXXXXX)"
trap 'rm -rf "$traces" "$prof" "$dsl" "$exs" "$suite_out" "$figs"' EXIT
figures "$figs" "$(nproc)"
committed_figs="$(git ls-files bench_results \
    | sed 's|^bench_results/||' | grep -v -e '^BENCH_' -e '^GOLDEN_' -e '^PROFILE_' -e '^TRACES\.')"
# Every file is compared, and each differing, missing or extra one is
# named, before the gate fails once.
written_figs="$(LC_ALL=C ls "$figs")"
committed_figs="$(echo "$committed_figs" | LC_ALL=C sort)"
fig_drift=0
for f in $(LC_ALL=C comm -23 <(echo "$committed_figs") <(echo "$written_figs")); do
    echo "figure gate: committed $f was not written" >&2
    fig_drift=1
done
for f in $(LC_ALL=C comm -13 <(echo "$committed_figs") <(echo "$written_figs")); do
    echo "figure gate: written $f is not committed" >&2
    fig_drift=1
done
for f in $(LC_ALL=C comm -12 <(echo "$committed_figs") <(echo "$written_figs")); do
    if ! cmp -s "bench_results/$f" "$figs/$f"; then
        echo "figure gate: $f differs from the committed copy" >&2
        fig_drift=1
    fi
done
if [ "$fig_drift" -ne 0 ]; then
    echo "figure gate: figure artifacts drifted (files named above)" >&2
    exit 1
fi

# Paper-scale memory bound: BTIO's checkpoint under forced DualPar at the
# paper's size (445 M cells) must complete inside 4 GB of address space,
# where flattened datatypes once aborted it.
time paper_btio "$suite_out/BENCH_paper_btio.json"
# Paper-scale order gate: the same run's sim_events and fingerprint are
# diffed against the committed artifact, as for the small suite above, so
# an event-order drift that only shows at paper scale fails here too.
./target/release/dualpar-audit trace --baseline \
    bench_results/BENCH_paper_btio.json "$suite_out/BENCH_paper_btio.json"

echo "check.sh: all green"
