//! The engine's event order, pinned against the windowed engine it
//! replaced.
//!
//! The cluster pops events from one list in `(time, lane, window, class,
//! src, seq)` order (`crates/cluster/src/events.rs`, docs/PERF.md "One
//! event list"). The first scenario here is dense with same-instant,
//! same-lane ties; each of the other three is built so that exactly one
//! component of that key decides a tie whose two orders lead to different
//! reports. Every expected fingerprint and trace digest was computed by the
//! engine that kept one queue per server and exchanged messages at window
//! barriers, so a pass means the one list reproduces its order exactly.

use dualpar_bench::suite::report_fingerprint;
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
/// releases and disk completions keep landing on the same instant. An
/// instrumented build counted 381 pops that share both time and lane with
/// the pop before them, 39 of which the `window` component orders.
fn tie_heavy() -> Experiment {
    let w = MpiIoTest {
        nprocs: 8,
        file_size: 4 << 20,
        ..Default::default()
    };
    Experiment::darwin()
        .servers(3)
        .compute_nodes(2)
        .tune(|cfg| flat_disk(cfg, 51_048, 16_384_000_000))
        .file("f", w.file_size)
        .program(IoStrategy::Vanilla, move |files| w.build(files[0]))
}

#[test]
fn tie_heavy_run_matches_the_windowed_engine() {
    let report = tie_heavy().run().expect("valid experiment");
    assert_eq!(fingerprint(&report), "844f106949543fc1");
    // The trace orders equal-time records client first, then server by
    // server: the windowed engine's `(time, shard, position)` stitch.
    let mut cluster = tie_heavy()
        .telemetry(TelemetryLevel::Trace)
        .build()
        .expect("valid experiment");
    cluster.run();
    let mut jsonl = Vec::new();
    cluster.export_trace(&mut jsonl).expect("in-memory write");
    let mut h = FxHasher::default();
    h.write(&jsonl);
    assert_eq!(format!("{:016x}", h.finish()), "0569d2bae1e7bb97");
}

/// `window`: at one instant the client holds an ack sent in an earlier
/// window and a wake-up scheduled in the current one. Program x's rank 0
/// reads from server 0 and then releases rank 1 from a barrier; program
/// y's rank 1 reads from server 1 at the same time, so both acks arrive
/// together. The x ack pops first (server order) and schedules rank 1's
/// wake-up at that instant; the y ack, scheduled a window earlier, must
/// still run before it. Both then send a read on node 1, so the order
/// decides who gets the link first.
#[test]
fn an_ack_from_an_earlier_window_runs_before_a_wake_up_at_its_instant() {
    let report = Experiment::darwin()
        .servers(2)
        .compute_nodes(2)
        .tune(|cfg| flat_disk(cfg, OVERHEAD_NS, SECTOR_NS_RATE))
        .file("f", 4 << 20)
        .program(IoStrategy::Vanilla, |files| {
            let f = files[0];
            program(
                "x",
                vec![
                    vec![read(f, 0, 8 << 10), Op::Barrier(1)],
                    vec![Op::Barrier(1), read(f, 3 << 16, 8 << 10)],
                ],
            )
        })
        .program(IoStrategy::Vanilla, |files| {
            let f = files[0];
            program(
                "y",
                vec![vec![], vec![read(f, 1 << 16, 8 << 10), read(f, 5 << 16, 8 << 10)]],
            )
        })
        .run()
        .expect("valid experiment");
    // y's second read left node 1 first.
    assert!(report.programs[1].finish < report.programs[0].finish);
    assert_eq!(fingerprint(&report), "17957d714273a22d");
}

/// `class`: a request and a disk completion land on one server at the
/// same instant, both scheduled in the same window and the request first.
/// Program a's read reaches the only server at 52 048 ns and takes 52 048
/// ns on the disk; program c's far read queues behind it; program b sends
/// the read that follows a's on disk at 52 048 ns, so it arrives as a's
/// completes. The completion must run first, so SSTF sees only c's read
/// and serves it before b's.
#[test]
fn a_disk_completion_runs_before_a_request_arriving_at_its_instant() {
    let report = Experiment::darwin()
        .servers(1)
        .compute_nodes(1)
        .scheduler(SchedulerKind::Sstf)
        .tune(|cfg| flat_disk(cfg, OVERHEAD_NS, SECTOR_NS_RATE))
        .file("f", 4 << 20)
        .program(IoStrategy::Vanilla, |files| {
            program("a", vec![vec![read(files[0], 0, 8 << 10)]])
        })
        .program(IoStrategy::Vanilla, |files| {
            program("c", vec![vec![read(files[0], 2 << 20, 8 << 10)]])
        })
        .program(IoStrategy::Vanilla, |files| {
            let wait = Op::Compute(SimDuration(52_048));
            program("b", vec![vec![wait, read(files[0], 8 << 10, 8 << 10)]])
        })
        .run()
        .expect("valid experiment");
    assert!(report.programs[1].finish < report.programs[2].finish);
    assert_eq!(fingerprint(&report), "5ce35419f4c6ee9f");
}

/// `src`: two acks reach the client at the same instant from servers 1
/// and 0, scheduled in the same window, server 1's first. Program j reads
/// 10 KB from server 1 at 0; program i reads 8 KB from server 0 16 388 ns
/// later, which the shorter disk and wire times make up exactly. Server
/// 0's ack must run first, so i's next read leaves the shared node link
/// before j's.
#[test]
fn acks_at_one_instant_run_in_server_order() {
    let report = Experiment::darwin()
        .servers(2)
        .compute_nodes(1)
        .tune(|cfg| flat_disk(cfg, OVERHEAD_NS, SECTOR_NS_RATE))
        .file("f", 4 << 20)
        .program(IoStrategy::Vanilla, |files| {
            let f = files[0];
            program("j", vec![vec![read(f, 1 << 16, 10 << 10), read(f, 3 << 16, 8 << 10)]])
        })
        .program(IoStrategy::Vanilla, |files| {
            let f = files[0];
            let wait = Op::Compute(SimDuration(16_388));
            program("i", vec![vec![wait, read(f, 0, 8 << 10), read(f, 2 << 16, 8 << 10)]])
        })
        .run()
        .expect("valid experiment");
    assert!(report.programs[1].finish < report.programs[0].finish);
    assert_eq!(fingerprint(&report), "012c26ef04a96e06");
}
