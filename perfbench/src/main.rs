//! One simulation per process, for `run.py` (see README.md).
//!
//! ```text
//! perfbench <workload> [--traced] [--smoke] [--check-bytes] [--spans-out <file>]
//! perfbench --calibrate
//! ```
//!
//! Untraced (the default): telemetry off; times `build_cluster` (set-up)
//! and `Cluster::run_sharded(1)` (run) and reads the process's peak
//! resident memory. Traced: counters and spans on; the set-up is split
//! into the calls `build_cluster` makes, each under a span, and after the
//! run the workload's I/O calls are replayed through the cache, core and
//! mpiio layers. Either way one JSON object is printed on stdout.
//! `--calibrate` times the fixed kernel `run.py` scales times by.

mod calibrate;
mod replay;
mod spans;
mod workloads;

use dualpar_bench::suite::report_fingerprint;
use dualpar_bench::{build_cluster, ExperimentSpec, WorkloadSpec};
use dualpar_cluster::{
    Cluster, IoStrategy, ProgramSpec, RunReport, TelemetryConfig, TelemetryLevel,
};
use dualpar_mpiio::{Op, ProgramScript};
use dualpar_sim::SimTime;
use spans::Spans;
use std::fmt::Write as _;
use std::time::Instant;

struct Args {
    workload: String,
    traced: bool,
    smoke: bool,
    check_bytes: bool,
    spans_out: Option<String>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let workload = it.next().ok_or("missing workload name")?;
        let mut args = Args {
            workload,
            traced: false,
            smoke: false,
            check_bytes: false,
            spans_out: None,
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--spans-out" => {
                    args.spans_out = Some(it.next().ok_or("--spans-out needs a path")?)
                }
                "--traced" => args.traced = true,
                "--smoke" => args.smoke = true,
                "--check-bytes" => args.check_bytes = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(args)
    }
}

/// A flat JSON object built key by key.
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn num(&mut self, key: &str, v: f64) {
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.0.push((key.into(), v));
    }
    fn int(&mut self, key: &str, v: u64) {
        self.0.push((key.into(), v.to_string()));
    }
    fn raw(&mut self, key: &str, json: String) {
        self.0.push((key.into(), json));
    }
    fn render(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        let mut out = Json::default();
        out.num("calibrate_s", calibrate::kernel_s());
        println!("{}", out.render());
        return;
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = match workloads::spec(&args.workload, args.smoke) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = if args.traced {
        traced(&spec, &args)
    } else {
        untraced(&spec, &args)
    };
    println!("{}", out.render());
}

/// Set-up and run with telemetry off: what a user of the simulator waits
/// for and the memory it takes. One set-up per process: a second one in
/// the same process reuses freed memory and took half the time.
fn untraced(spec: &ExperimentSpec, args: &Args) -> Json {
    let start = Instant::now();
    let mut cluster = build_cluster(spec);
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = cluster.run_sharded(1);
    let run_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    drop(cluster);
    let mut out = outputs(&report);
    out.num("setup_s", setup_s);
    out.num("run_s", run_s);
    out.num("peak_rss_mb", peak_rss_mb);
    if args.check_bytes {
        let scripts = scripts(spec);
        out.int("bytes_mismatches", bytes_mismatches(&report, &scripts));
    }
    out
}

/// The run's observable outputs, which every run of a spec must repeat.
fn outputs(report: &RunReport) -> Json {
    let json = serde_json::to_string_pretty(report).expect("a run report serialises");
    let mut out = Json::default();
    out.raw("fingerprint", format!("\"{}\"", report_fingerprint(&json)));
    out.num("sim_mbps", report.aggregate_throughput_mbps());
    out.int("events", report.events_processed);
    let mut programs = String::from("[");
    for (i, p) in report.programs.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            programs,
            "{sep}[{i},{},{},{}]",
            p.bytes_read,
            p.bytes_written,
            p.finish.nanos()
        );
    }
    programs.push(']');
    out.raw("programs", programs);
    out
}

/// The programs `build_cluster` submits, in its order: workload, file
/// label, strategy and start time. Arrival streams expand here.
fn submissions(spec: &ExperimentSpec) -> Vec<(WorkloadSpec, String, IoStrategy, f64)> {
    let mut subs: Vec<_> = spec
        .programs
        .iter()
        .enumerate()
        .map(|(i, p)| (p.workload.clone(), i.to_string(), p.strategy, p.start_secs))
        .collect();
    for (ai, stream) in spec.arrivals.iter().enumerate() {
        for (inst, t) in stream.arrivals.times().into_iter().enumerate() {
            let workload = stream.workload.reseeded(inst as u64);
            subs.push((workload, format!("a{ai}-{inst}"), stream.strategy, t));
        }
    }
    subs
}

/// Every submitted program's script, built again outside any timing.
fn scripts(spec: &ExperimentSpec) -> Vec<(ProgramScript, IoStrategy)> {
    let mut scratch = Cluster::new(spec.cluster.clone());
    submissions(spec)
        .into_iter()
        .map(|(w, label, strategy, _)| (w.materialize(&mut scratch, &label), strategy))
        .collect()
}

/// Programs whose useful bytes differ from their script's I/O volume.
fn bytes_mismatches(report: &RunReport, scripts: &[(ProgramScript, IoStrategy)]) -> u64 {
    if report.programs.len() != scripts.len() {
        return scripts.len().max(1) as u64;
    }
    report
        .programs
        .iter()
        .zip(scripts)
        .filter(|(p, (s, _))| p.bytes_read + p.bytes_written != s.total_io_bytes())
        .count() as u64
}

/// The kernel's high-water mark of this process's resident memory.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kb / 1024.0
}

/// Counters and spans on; set-up split into its calls; replays after the
/// run. Reports the per-layer figures under `layers`.
fn traced(spec: &ExperimentSpec, args: &Args) -> Json {
    let mut spans = Spans::new();
    let mut cfg = spec.cluster.clone();
    cfg.telemetry = TelemetryConfig::at(TelemetryLevel::Counters).with_spans();

    let setup = spans.open("setup", None);
    let s = spans.open("workloads.arrivals", Some(setup));
    let subs = submissions(spec);
    spans.close(s);
    let s = spans.open("cluster.new", Some(setup));
    let mut cluster = Cluster::new(cfg);
    spans.close(s);
    for (workload, label, strategy, start) in &subs {
        let s = spans.open("workloads.materialize", Some(setup));
        let script = workload.materialize(&mut cluster, label);
        spans.close(s);
        let s = spans.open("cluster.add_program", Some(setup));
        cluster.add_program(
            ProgramSpec::new(script, *strategy).starting_at(SimTime::from_secs_f64(*start)),
        );
        spans.close(s);
    }
    spans.close(setup);
    let s = spans.open("cluster.run", None);
    let report = cluster.run_sharded(1);
    spans.close(s);

    let (mut seek, mut serviced, mut busy) = (0u64, 0u64, 0.0f64);
    for i in 0..spec.cluster.num_data_servers {
        let disk = cluster.disk(i);
        seek += disk.total_seek_distance();
        serviced += disk.trace().serviced();
        busy += disk.total_busy().as_secs_f64();
    }
    drop(cluster);

    let programs = scripts(spec);
    let counts = replay::run(&programs, &report, &spec.cluster, &mut spans);

    let tele = report
        .telemetry
        .as_ref()
        .expect("counters-level telemetry yields a snapshot");
    let counter = |name: &str| tele.counters.get(name).copied().unwrap_or(0);
    let gauge = |name: &str| tele.gauges.get(name).copied().unwrap_or(0.0);
    let stage = |name: &str| {
        report
            .span_profile
            .as_ref()
            .and_then(|p| p.stage_latency.get(name).cloned())
            .unwrap_or_default()
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mb = |bytes: f64| bytes / 1e6;
    let useful: u64 = report
        .programs
        .iter()
        .map(|p| p.bytes_read + p.bytes_written)
        .sum();
    let regions: u64 = programs
        .iter()
        .flat_map(|(s, _)| &s.ranks)
        .flat_map(|r| &r.ops)
        .map(|op| match op {
            Op::Io(call) => call.regions.len() as u64,
            _ => 0,
        })
        .sum();
    let phases: u64 = report.programs.iter().map(|p| p.phases).sum();
    let misprefetch: f64 = report
        .programs
        .iter()
        .map(|p| p.avg_misprefetch * p.phases as f64)
        .sum();
    let replay_s = spans.total("cache.phase_boundary")
        + spans.total("cache.put_prefetch")
        + spans.total("cache.resume");
    let sim_secs = report.sim_end.as_secs_f64();

    let mut l = Json::default();
    l.num(
        "workloads.build_s",
        spans.total("workloads.arrivals") + spans.total("workloads.materialize"),
    );
    l.int("workloads.regions", regions);
    l.num(
        "cluster.build_s",
        spans.total("cluster.new") + spans.total("cluster.add_program"),
    );
    l.int("cluster.programs", report.programs.len() as u64);
    l.int("cluster.events", report.events_processed);
    for ev in [
        "proc_ready",
        "sub_done",
        "server_recv",
        "disk_done",
        "ghost_done",
        "emc_tick",
    ] {
        l.int(
            &format!("cluster.ev.{ev}"),
            counter(&format!("engine.ev.{ev}")),
        );
    }
    l.num("simcore.queue_depth_max", gauge("engine.queue_depth_max"));
    l.num("cache.replay_s", replay_s);
    l.int("cache.calls", counts.cache_calls);
    l.num(
        "cache.ns_per_call",
        ratio(replay_s * 1e9, counts.cache_calls as f64),
    );
    l.num(
        "cache.hit_ratio",
        ratio(
            counter("cache.read_hits") as f64,
            counter("cache.read_probes") as f64,
        ),
    );
    l.num("cache.misprefetch_ratio", ratio(misprefetch, phases as f64));
    l.num(
        "cache.prefetched_mb",
        mb(counter("cache.bytes_prefetched") as f64),
    );
    l.num(
        "cache.evicted_mb",
        mb(counter("cache.bytes_evicted") as f64),
    );
    l.num("cache.dirty_hwm_mb", mb(gauge("cache.dirty_hwm")));
    l.num("core.ghost_walk_s", spans.total("core.ghost_walk"));
    l.num("core.crm_plan_s", spans.total("core.crm_plan"));
    l.int("core.mode_switches", report.mode_events.len() as u64);
    l.int("core.phases", phases);
    l.num(
        "core.crm_merge_ratio",
        ratio(
            counter("phase.recorded_regions") as f64,
            counter("phase.prefetch_covers") as f64,
        ),
    );
    l.int("core.crm_subrequests", counter("crm.subrequests"));
    l.num("mpiio.sieve_plan_s", spans.total("mpiio.plan_strided"));
    l.num(
        "mpiio.sieve_hole_ratio",
        ratio(
            counts.sieve_hole_bytes as f64,
            counts.sieve_cover_bytes as f64,
        ),
    );
    l.num("disk.avg_seek_sectors", ratio(seek as f64, serviced as f64));
    l.num(
        "disk.util",
        ratio(busy, f64::from(spec.cluster.num_data_servers) * sim_secs),
    );
    l.num("disk.service_p50_ms", stage("disk.service").p50 * 1e3);
    l.num("disk.service_p99_ms", stage("disk.service").p99 * 1e3);
    l.num("disk.queue_wait_p99_ms", stage("server.queue").p99 * 1e3);
    l.num("disk.queue_depth_max", gauge("disk.queue_depth_max"));
    l.num(
        "disk.bytes_amplification",
        ratio(report.disk_bytes as f64, useful as f64),
    );

    if let Some(path) = &args.spans_out {
        let written = std::fs::File::create(path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            spans.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing spans to {path}: {e}");
            std::process::exit(1);
        }
    }

    let mut out = outputs(&report);
    out.num("run_s", spans.total("cluster.run"));
    out.int("bytes_mismatches", bytes_mismatches(&report, &programs));
    out.raw("layers", l.render());
    out
}
