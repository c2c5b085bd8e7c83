#!/usr/bin/env python3
"""Benchmark of the DualPar simulator's host cost: run time, set-up time,
peak memory and simulated throughput on three workloads, plus a traced run
that splits the cost by layer. See perfbench/README.md.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run it from the repository root. It builds perfbench/ (a Cargo package of
its own) into $CARGO_TARGET_DIR (default .bench_build), then runs one
simulation per child process, one at a time, until --seconds have passed.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1). Every finished run is appended to .bench_out/results.jsonl as it
completes, stamped with the machine and build.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("btio-ckpt-dualpar", "hpio-read-vanilla", "adaptive-mix")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_mbps": "MB/s",
}
PER_LAYER = {
    "workloads.build_s": "s",
    "workloads.regions": "count",
    "cluster.build_s": "s",
    "cluster.programs": "count",
    "cluster.events": "count",
    "cluster.ns_per_event": "ns",
    "cluster.ev.proc_ready": "count",
    "cluster.ev.sub_done": "count",
    "cluster.ev.server_recv": "count",
    "cluster.ev.disk_done": "count",
    "cluster.ev.ghost_done": "count",
    "cluster.ev.emc_tick": "count",
    "simcore.queue_depth_max": "count",
    "cache.replay_s": "s",
    "cache.calls": "count",
    "cache.ns_per_call": "ns",
    "cache.hit_ratio": "ratio",
    "cache.misprefetch_ratio": "ratio",
    "cache.prefetched_mb": "MB",
    "cache.evicted_mb": "MB",
    "cache.dirty_hwm_mb": "MB",
    "core.ghost_walk_s": "s",
    "core.crm_plan_s": "s",
    "core.mode_switches": "count",
    "core.phases": "count",
    "core.crm_merge_ratio": "ratio",
    "core.crm_subrequests": "count",
    "mpiio.sieve_plan_s": "s",
    "mpiio.sieve_hole_ratio": "ratio",
    "disk.avg_seek_sectors": "sectors",
    "disk.util": "ratio",
    "disk.service_p50_ms": "ms",
    "disk.service_p99_ms": "ms",
    "disk.queue_wait_p99_ms": "ms",
    "disk.queue_depth_max": "count",
    "disk.bytes_amplification": "ratio",
    "telemetry.overhead_pct": "%",
}

# A child over either cap fails as one operation; the runs before it keep
# their results.
MEMORY_CAP_BYTES = 4 << 30
RUN_CAP_S = 120.0
# Launch no run after this many seconds of measuring, so the whole
# benchmark ends well inside three minutes.
LAST_LAUNCH_S = 100.0
TOTAL_CAP_S = 170.0
MIN_UNTRACED_RUNS = 3
# With --trace 1, this share of --seconds goes to untraced runs, the
# baseline for telemetry.overhead_pct and cluster.ns_per_event.
TRACED_BASELINE_SHARE = 0.4
# The yardstick kernel (`perfbench --calibrate`) takes this long on the
# reference machine (Intel Xeon, 2 cores) when nothing else runs on it.
# Times are reported in that machine's quiet seconds; see README.md.
REFERENCE_KERNEL_S = 0.145


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"perfbench: build failed with exit code {done.returncode}")
        return None
    return target / "release" / "perfbench"


def first_line(cmd):
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and (path.suffix == ".rs" or path.name in ("Cargo.toml", "Cargo.lock")):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def stamp(seed):
    def proc_field(path, key):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    toplevel = first_line(["git", "rev-parse", "--show-toplevel"])
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    mem_kb = proc_field("/proc/meminfo", "MemTotal")
    return {
        "cpu": proc_field("/proc/cpuinfo", "model name") or platform.processor() or "unknown",
        "cores": os.cpu_count(),
        "mem_total_mb": round(int(mem_kb.split()[0]) / 1024) if mem_kb else None,
        "rustc": first_line(["rustc", "--version"]),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]) if in_repo else None,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def launch(binary, args, timeout):
    """Run one child; return (result, error)."""
    def caps():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))

    try:
        done = subprocess.run([str(binary), *args], capture_output=True, text=True,
                              timeout=timeout, preexec_fn=caps, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"over the time cap of {timeout:.0f} s"
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        return None, f"exit code {done.returncode}: {' | '.join(tail)}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "no JSON result on stdout"


def median(xs):
    return statistics.median(xs) if xs else None


class Session:
    """The runs of one benchmark invocation and their failures."""

    def __init__(self, binary, workload, seed, smoke, info):
        self.binary, self.workload, self.seed, self.smoke = binary, workload, seed, smoke
        self.info = info
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.untraced = []
        self.traced = None
        OUT.mkdir(exist_ok=True)
        self.results = OUT / "results.jsonl"

    def elapsed(self):
        return time.monotonic() - self.start

    def record(self, kind, result, error):
        entry = {"workload": self.workload, "kind": kind, "ok": error is None,
                 "error": error, "result": result, "stamp": self.info}
        with open(self.results, "a") as f:
            f.write(json.dumps(entry) + "\n")

    def timeout(self):
        return max(1.0, min(RUN_CAP_S, TOTAL_CAP_S - self.elapsed()))

    def fail(self, kind, result, error):
        self.attempted += 1
        self.failed += 1
        log(f"perfbench: {self.workload} {kind} run failed: {error}")
        self.record(kind, result, error)

    def run(self, kind, extra, calibrate_s=None):
        args = [self.workload, *extra] + (["--smoke"] if self.smoke else [])
        result, error = launch(self.binary, args, self.timeout())
        if error is None:
            error = self.check(kind, result)
        if error is not None:
            self.fail(kind, result, error)
            return None
        self.attempted += 1
        if calibrate_s is not None:
            result["calibrate_s"] = calibrate_s
        self.record(kind, result, None)
        return result

    def calibrate(self):
        """The yardstick kernel's time, taken just before a run."""
        result, error = launch(self.binary, ["--calibrate"], self.timeout())
        if error is not None:
            self.fail("calibrate", result, error)
            return None
        return result["calibrate_s"]

    def check(self, kind, result):
        if result.get("bytes_mismatches", 0) != 0:
            return f"{result['bytes_mismatches']} programs moved other than their scripts' bytes"
        if not self.untraced:
            return None
        first = self.untraced[0]
        if kind == "untraced" and result["fingerprint"] != first["fingerprint"]:
            return f"report fingerprint {result['fingerprint']} differs from {first['fingerprint']}"
        if result["programs"] != first["programs"]:
            return "per-program bytes or finish times differ from the first untraced run"
        return None

    def measure_untraced(self, budget_s, min_runs):
        while True:
            t = self.elapsed()
            if self.attempted >= min_runs and t >= budget_s:
                break
            if t >= LAST_LAUNCH_S:
                break
            extra = [] if self.untraced else ["--check-bytes"]
            calibrate_s = self.calibrate()
            if calibrate_s is None:
                break
            result = self.run("untraced", extra, calibrate_s)
            if result is None:
                break
            self.untraced.append(result)

    def measure_traced(self):
        if not self.untraced:
            return
        spans = OUT / f"spans-{self.workload}-seed{self.seed}.jsonl"
        self.traced = self.run("traced", ["--traced", "--spans-out", str(spans)])

    def end_to_end(self):
        """Medians; times in the reference machine's quiet seconds. Each
        run's time is divided by the yardstick kernel's time just before
        it, and the median of those ratios is scaled by the kernel's
        reference time."""
        if not self.untraced:
            return {}
        metrics = {}
        for name, unit in END_TO_END.items():
            if unit == "s":
                ratios = [r[name] / r["calibrate_s"] for r in self.untraced]
                metrics[name] = median(ratios) * REFERENCE_KERNEL_S
            else:
                metrics[name] = median([r[name] for r in self.untraced])
        return metrics

    def per_layer(self):
        if self.traced is None:
            return {}
        layers = dict(self.traced["layers"])
        base_run_s = median([r["run_s"] for r in self.untraced])
        layers["cluster.ns_per_event"] = base_run_s * 1e9 / max(self.traced["events"], 1)
        layers["telemetry.overhead_pct"] = (self.traced["run_s"] / base_run_s - 1.0) * 100.0
        return {name: layers[name] for name in PER_LAYER}

    def summary(self):
        runs = self.untraced
        if runs:
            for name in ("run_s", "setup_s", "peak_rss_mb", "calibrate_s"):
                xs = sorted(r[name] for r in runs)
                log(f"  {self.workload} raw {name}: min {xs[0]:.4f}, "
                    f"median {median(xs):.4f}, max {xs[-1]:.4f} (n={len(xs)})")


def emit(correct, attempted, failed, metrics, units):
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out), flush=True)


def main_run(args, binary, info):
    s = Session(binary, args.workload, args.seed, False, info)
    if args.trace:
        s.measure_untraced(args.seconds * TRACED_BASELINE_SHARE, 1)
        s.measure_traced()
        metrics, units = s.per_layer(), PER_LAYER
    else:
        s.measure_untraced(args.seconds, MIN_UNTRACED_RUNS)
        metrics, units = s.end_to_end(), END_TO_END
    s.summary()
    complete = len(metrics) == len(units)
    failed = s.failed or (0 if complete else 1)
    emit(failed == 0, max(s.attempted, failed, 1), failed, metrics, units)


def main_smoke(binary, info):
    """Every workload at tiny sizes: two untraced runs and a traced one,
    every check, every metric."""
    attempted = failed = 0
    for workload in WORKLOADS:
        s = Session(binary, workload, 0, True, info)
        s.measure_untraced(0.0, 2)
        s.measure_traced()
        e2e, layers = s.end_to_end(), s.per_layer()
        missing = [k for k in END_TO_END if e2e.get(k) is None]
        missing += [k for k in PER_LAYER if layers.get(k) is None]
        attempted += s.attempted
        failed += s.failed or (1 if missing else 0)
        status = "ok" if s.failed == 0 and not missing else "FAILED"
        if s.failed == 0 and missing:
            status += f" (missing {missing})"
        log(f"smoke {workload}: {s.attempted} runs, {s.failed} failed, {status}")
    emit(failed == 0, attempted, failed, {}, {})
    return 0 if failed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes as a self-test")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    binary = build()
    if binary is None:
        return 1
    info = stamp(args.seed)
    print("stamp: " + json.dumps(info), flush=True)
    if args.smoke:
        return main_smoke(binary, info)
    main_run(args, binary, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
