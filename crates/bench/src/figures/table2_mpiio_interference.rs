//! Table II and Figure 6 — two concurrent mpi-io-test instances.
//!
//! Paper shape (Table II): aggregate read throughput 106 / 168 / 284 MB/s
//! and write throughput 54 / 67 / 127 MB/s for vanilla / collective /
//! DualPar — DualPar restores efficiency that inter-program interference
//! destroyed. Fig. 6: the vanilla LBN trace on one server hops between the
//! two files' regions; DualPar's trace shows long single-file sweeps and
//! roughly an order of magnitude smaller average seek distance.

use super::{collective, print_table, simulate, spec, FigureRun, TracePoint, STRATEGIES};
use crate::{build_cluster, paper_cluster, ExperimentSpec, WorkloadSpec};
use dualpar_cluster::{ClusterConfig, IoStrategy};
use dualpar_disk::IoKind;
use dualpar_sim::{SimDuration, SimTime};
use dualpar_workloads::MpiIoTest;
use serde::Serialize;

#[derive(Serialize)]
struct Throughputs {
    kind: String,
    vanilla_mbps: f64,
    collective_mbps: f64,
    dualpar_mbps: f64,
}

#[derive(Serialize)]
struct Table2 {
    throughput: Vec<Throughputs>,
    vanilla_trace: Vec<TracePoint>,
    dualpar_trace: Vec<TracePoint>,
    vanilla_avg_seek_sectors: f64,
    dualpar_avg_seek_sectors: f64,
}

const FILE: u64 = 512 << 20;
/// §V-C two concurrent 16-process mpi-io-test instances over `file_size`
/// bytes each — the workload of Table II, Fig. 6 and three ablations.
pub(super) fn pair_spec(
    cluster: ClusterConfig,
    strategy: IoStrategy,
    kind: IoKind,
    file_size: u64,
) -> ExperimentSpec {
    let instance = MpiIoTest {
        nprocs: 16,
        file_size,
        kind,
        collective: collective(strategy),
        barrier_every: 8,
        ..Default::default()
    };
    let pair = (0..2)
        .map(|_| WorkloadSpec::named(instance.clone()))
        .collect();
    spec(cluster, strategy, pair)
}

pub(super) fn run(fx: &FigureRun) {
    let mut cells = Vec::new();
    for kind in [IoKind::Read, IoKind::Write] {
        for s in STRATEGIES {
            cells.push((kind, s));
        }
    }
    let thr = fx.map(&cells, |&(kind, s)| {
        build_cluster(&pair_spec(paper_cluster(), s, kind, FILE))
            .run()
            .aggregate_throughput_mbps()
    });
    let throughput: Vec<Throughputs> = cells
        .chunks(STRATEGIES.len())
        .zip(thr.chunks(STRATEGIES.len()))
        .map(|(cell, t)| Throughputs {
            kind: if cell[0].0 == IoKind::Read {
                "read"
            } else {
                "write"
            }
            .into(),
            vanilla_mbps: t[0],
            collective_mbps: t[1],
            dualpar_mbps: t[2],
        })
        .collect();
    print_table(
        "Table II: aggregate throughput, 2 concurrent mpi-io-test (MB/s)",
        &["kind", "vanilla", "collective", "DualPar"],
        throughput.iter().map(|t| {
            vec![
                t.kind.clone(),
                format!("{:.0}", t.vanilla_mbps),
                format!("{:.0}", t.collective_mbps),
                format!("{:.0}", t.dualpar_mbps),
            ]
        }),
    );

    // Fig. 6: one-second LBN trace window on server 1, read runs. The two
    // traced runs are independent, so they share the worker pool too.
    let traced = [IoStrategy::Vanilla, IoStrategy::DualParForced];
    let mut traces = fx.map(&traced, |&s| {
        let mut cfg = paper_cluster();
        cfg.trace_disks = true;
        let (report, cluster) = simulate(&pair_spec(cfg, s, IoKind::Read, FILE));
        let mid = SimTime::from_secs_f64(report.sim_end.as_secs_f64() / 2.0);
        let pts: Vec<TracePoint> = cluster
            .disk(1)
            .trace()
            .window(mid, mid + SimDuration::from_secs(1))
            .map(|r| TracePoint {
                t_secs: r.at.as_secs_f64(),
                lbn: r.lbn,
            })
            .collect();
        let avg_seek = cluster.disk(1).trace().avg_seek_distance();
        (pts, avg_seek)
    });
    let (dualpar_trace, d_seek) = traces.pop().expect("dualpar trace");
    let (vanilla_trace, v_seek) = traces.pop().expect("vanilla trace");
    println!(
        "\nFig. 6: avg seek distance — vanilla {v_seek:.0} sectors, DualPar {d_seek:.0} sectors ({:.1}x reduction)",
        v_seek / d_seek.max(1.0)
    );
    fx.save_gnuplot(
        "fig6_lbn_traces",
        "Fig. 6: LBN service order, 2 concurrent mpi-io-test (server 1, 1 s)",
        "time (s)",
        "LBN",
        false,
        &[
            (
                "vanilla",
                vanilla_trace
                    .iter()
                    .map(|p| (p.t_secs, p.lbn as f64))
                    .collect(),
            ),
            (
                "dualpar",
                dualpar_trace
                    .iter()
                    .map(|p| (p.t_secs, p.lbn as f64))
                    .collect(),
            ),
        ],
    );
    fx.save_json(
        "table2_mpiio_interference",
        &Table2 {
            throughput,
            vanilla_trace,
            dualpar_trace,
            vanilla_avg_seek_sectors: v_seek,
            dualpar_avg_seek_sectors: d_seek,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::small_cluster;

    #[test]
    fn pair_spec_runs_two_instances() {
        let r = build_cluster(&pair_spec(
            small_cluster(),
            IoStrategy::Vanilla,
            IoKind::Read,
            4 << 20,
        ))
        .run();
        assert_eq!(r.programs.len(), 2);
        assert!(r.aggregate_throughput_mbps() > 0.0);
    }
}
