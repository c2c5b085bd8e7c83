//! The engine's event order: `(time, lane, seq)`.
//!
//! The cluster pops events from one list ordered by time, then lane (the
//! client before server 0 before server 1 …), then scheduling order
//! (`crates/cluster/src/events.rs`, docs/PERF.md "The order rule"). The
//! first scenario here is dense with same-instant, same-lane ties and pins
//! a report and a trace. Each of the other three is built so that two
//! events of one lane land on one instant and their two orders lead to
//! different reports: the one scheduled first must run first.

use dualpar_bench::suite::report_fingerprint;
use dualpar_bench::{build_cluster, ExperimentSpec, ProgramEntry};
use dualpar_cluster::prelude::*;
use dualpar_sim::FxHasher;
use dualpar_workloads::MpiIoTest;
use std::hash::Hasher;

/// Flatten the disk model so service times are exact integers: no seek or
/// rotation cost, `overhead_ns` per request and `1e9 / sectors_per_sec` ns
/// per sector. Equal requests on different servers then finish together.
fn flat_disk(cfg: &mut ClusterConfig, overhead_ns: u64, bytes_per_sec: u64) {
    cfg.disk.seek_base_ns = 0;
    cfg.disk.seek_coef_ns = 0.0;
    cfg.disk.seek_max_ns = 0;
    cfg.disk.rotational_ns = 0;
    cfg.disk.overhead_ns = overhead_ns;
    cfg.disk.transfer_bytes_per_sec = bytes_per_sec;
}

/// One nanosecond per sector; with the default network (50 µs latency,
/// 125 MB/s, 256-byte headers) a read request takes 52 048 ns to arrive,
/// and a 16-sector read takes `52_032 + 16` ns on the disk.
const SECTOR_NS_RATE: u64 = 512_000_000_000;
const OVERHEAD_NS: u64 = 52_032;

fn fingerprint(report: &RunReport) -> String {
    report_fingerprint(&serde_json::to_string_pretty(report).expect("serialise report"))
}

fn read(f: FileId, offset: u64, len: u64) -> Op {
    Op::Io(IoCall::read(f, FileRegion::new(offset, len)))
}

fn program(name: &str, ranks: Vec<Vec<Op>>) -> ProgramScript {
    ProgramScript {
        name: name.into(),
        ranks: ranks.into_iter().map(ProcessScript::new).collect(),
    }
}

/// Eight vanilla readers with a barrier after every 16 KB call, on three
/// flat disks: symmetric stripes finish together, so acks, barrier
/// releases and disk completions keep landing on the same instant, so
/// many pops share both time and lane with the pop before them.
fn tie_heavy() -> ExperimentSpec {
    let w = MpiIoTest {
        nprocs: 8,
        file_size: 4 << 20,
        ..Default::default()
    };
    let mut cluster = ClusterConfig {
        num_data_servers: 3,
        num_compute_nodes: 2,
        ..ClusterConfig::default()
    };
    flat_disk(&mut cluster, 51_048, 16_384_000_000);
    ExperimentSpec {
        cluster,
        programs: vec![ProgramEntry {
            workload: w.into(),
            strategy: IoStrategy::Vanilla,
            start_secs: 0.0,
        }],
        ..ExperimentSpec::default()
    }
}

#[test]
fn tie_heavy_run_keeps_its_report_and_trace() {
    let report = build_cluster(&tie_heavy()).run();
    assert_eq!(fingerprint(&report), "5e0f3db532a7cd01");
    // The trace records events in pop order: equal-time records come
    // client first, then server by server, each lane in scheduling order.
    let mut spec = tie_heavy();
    spec.cluster.telemetry = TelemetryConfig::at(TelemetryLevel::Trace);
    let mut cluster = build_cluster(&spec);
    cluster.run();
    let mut jsonl = Vec::new();
    cluster.export_trace(&mut jsonl).expect("in-memory write");
    let mut h = FxHasher::default();
    h.write(&jsonl);
    assert_eq!(format!("{:016x}", h.finish()), "e278d660027162a5");
}

/// At one instant the client holds an ack scheduled before a wake-up.
/// Program x's rank 0 reads from server 0 and then releases rank 1 from a
/// barrier; program y's rank 1 reads from server 1 at the same time, so
/// both acks arrive together. Server 0's completion pops first (its lane
/// is lower), so the x ack is scheduled and pops first, and it schedules
/// rank 1's wake-up at that instant. The y ack, scheduled by server 1's
/// completion before that, runs before the wake-up. Both then send a read
/// on node 1, so the order decides who gets the link first.
#[test]
fn an_ack_from_an_earlier_window_runs_before_a_wake_up_at_its_instant() {
    let mut cfg = ClusterConfig {
        num_data_servers: 2,
        num_compute_nodes: 2,
        ..ClusterConfig::default()
    };
    flat_disk(&mut cfg, OVERHEAD_NS, SECTOR_NS_RATE);
    let mut c = Cluster::new(cfg);
    let f = c.create_file("f", 4 << 20);
    let x = program(
        "x",
        vec![
            vec![read(f, 0, 8 << 10), Op::Barrier(1)],
            vec![Op::Barrier(1), read(f, 3 << 16, 8 << 10)],
        ],
    );
    let y = program(
        "y",
        vec![
            vec![],
            vec![read(f, 1 << 16, 8 << 10), read(f, 5 << 16, 8 << 10)],
        ],
    );
    c.add_program(ProgramSpec::new(x, IoStrategy::Vanilla));
    c.add_program(ProgramSpec::new(y, IoStrategy::Vanilla));
    let report = c.run();
    // y's second read left node 1 first.
    assert!(report.programs[1].finish < report.programs[0].finish);
    assert_eq!(fingerprint(&report), "17957d714273a22d");
}

/// A request and a disk completion land on one server at the same
/// instant, the request scheduled first. Program a's read reaches the only
/// server at 52 048 ns and takes 52 048 ns on the disk; program c's far
/// read queues behind it; program b sends the read that follows a's on
/// disk at 52 048 ns, so it arrives as a's completes. The request runs
/// first, so SSTF sees both b's and c's reads at the completion and serves
/// b's, the nearer, first.
#[test]
fn a_request_scheduled_before_a_disk_completion_at_its_instant_runs_first() {
    let mut cfg = ClusterConfig {
        num_data_servers: 1,
        num_compute_nodes: 1,
        scheduler: SchedulerKind::Sstf,
        ..ClusterConfig::default()
    };
    flat_disk(&mut cfg, OVERHEAD_NS, SECTOR_NS_RATE);
    let mut c = Cluster::new(cfg);
    let f = c.create_file("f", 4 << 20);
    let wait = Op::Compute(SimDuration(52_048));
    for script in [
        program("a", vec![vec![read(f, 0, 8 << 10)]]),
        program("c", vec![vec![read(f, 2 << 20, 8 << 10)]]),
        program("b", vec![vec![wait, read(f, 8 << 10, 8 << 10)]]),
    ] {
        c.add_program(ProgramSpec::new(script, IoStrategy::Vanilla));
    }
    let report = c.run();
    assert!(report.programs[2].finish < report.programs[1].finish);
    assert_eq!(fingerprint(&report), "4d401518b3c6b032");
}

/// Two acks reach the client at the same instant from servers 1 and 0,
/// server 1's scheduled first. Program j reads 10 KB from server 1 at 0;
/// program i reads 8 KB from server 0 16 388 ns later, which the shorter
/// disk and wire times make up exactly. Server 1's ack runs first, so j's
/// next read leaves the shared node link before i's.
#[test]
fn acks_at_one_instant_run_in_scheduling_order() {
    let mut cfg = ClusterConfig {
        num_data_servers: 2,
        num_compute_nodes: 1,
        ..ClusterConfig::default()
    };
    flat_disk(&mut cfg, OVERHEAD_NS, SECTOR_NS_RATE);
    let mut c = Cluster::new(cfg);
    let f = c.create_file("f", 4 << 20);
    let wait = Op::Compute(SimDuration(16_388));
    for script in [
        program(
            "j",
            vec![vec![read(f, 1 << 16, 10 << 10), read(f, 3 << 16, 8 << 10)]],
        ),
        program(
            "i",
            vec![vec![wait, read(f, 0, 8 << 10), read(f, 2 << 16, 8 << 10)]],
        ),
    ] {
        c.add_program(ProgramSpec::new(script, IoStrategy::Vanilla));
    }
    let report = c.run();
    assert!(report.programs[0].finish < report.programs[1].finish);
    assert_eq!(fingerprint(&report), "214fcf4cebb99a7c");
}
