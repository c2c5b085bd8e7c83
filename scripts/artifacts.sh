# shellcheck shell=bash
# The recipes that write the committed artifacts under bench_results/.
# Sourced by scripts/check.sh, which writes them into temp dirs and compares
# them with the committed files, and by scripts/regen.sh, which writes them
# into bench_results/ in place, so a gate and the recipe that regenerates
# its artifact are one piece of code. Run from the repo root after
# `cargo build --release --offline`. Every run is deterministic: only the
# wall-clock fields of the two BENCH_* files differ between runs.

dualpar=./target/release/dualpar

# PROFILE_quickstart_golden.json: the profiler on the quickstart fixture.
# Args: report file, span trace file (--trace sets the trace counters
# embedded in the report, so the golden is written with it too).
profile_golden() {
    "$dualpar" profile quickstart --json --trace "$2" > "$1"
}

# GOLDEN_dsl_multitenant.json: the committed 3-tenant mixed scenario
# (workload DSL + Poisson arrivals, see docs/WORKLOADS.md).
# Args: report file, event trace file (multitenant.jsonl of TRACES.sha256).
dsl_golden() {
    "$dualpar" examples/specs/multitenant.json --trace "$2" > "$1"
}

# The paper's interference scenario, scaled down, with the adaptive run's
# event trace. Args: trace file (interference_small.jsonl of TRACES.sha256).
interference_trace() {
    cargo run --release --offline -q -p dualpar-bench --example interference -- \
        --small --trace "$1"
}

# TRACES.sha256: the sums of the two pinned traces, interference_small.jsonl
# and multitenant.jsonl, both written into the directory given.
trace_sums() {
    (cd "$1" && sha256sum interference_small.jsonl multitenant.jsonl)
}

# GOLDEN_examples.sha256: the sums of every example's stdout, one line per
# example in examples/*.rs order, named <example>.out. Args: directory the
# outputs are written into.
example_sums() {
    local ex name
    for ex in examples/*.rs; do
        name="$(basename "$ex" .rs)"
        cargo run --release --offline -q -p dualpar-bench --example "$name" > "$1/$name.out"
        (cd "$1" && sha256sum "$name.out")
    done
}

# BENCH_suite.json: the small figure-set suite. Args: artifact file, then
# any further `suite` flags (the committed file is written with --jobs 1).
small_suite() {
    local out="$1"
    shift
    "$dualpar" suite --scale small --out "$out" "$@"
}

# BENCH_paper_btio.json: BTIO's checkpoint under forced DualPar at the
# paper's size (445 M cells), inside 4 GB of address space. Calls the built
# binary directly so the limit applies to the simulator, not to cargo.
# Args: artifact file.
paper_btio() {
    (
        ulimit -v 4000000
        "$dualpar" suite --scale paper --jobs 1 --filter-exact btio_dualpar --out "$1"
    )
}

# Every registered figure, table and ablation (about 20 s on 2 cores).
# Args: output directory, worker count.
figures() {
    "$dualpar" figure --out "$1" --jobs "$2" > /dev/null
}
