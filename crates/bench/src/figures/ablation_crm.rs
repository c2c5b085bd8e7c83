//! Ablation: CRM request-processing knobs.
//!
//! (a) Hole-filling threshold (`max_hole`): 0 disables hole absorption so
//!     only strictly adjacent requests merge; larger values transfer waste
//!     bytes to buy bigger sequential requests (§IV-D).
//! (b) Data sieving for the *vanilla* baseline: ROMIO's independent-path
//!     optimisation, off in the paper's baseline.

use super::{demo_spec, print_table, spec, FigureRun};
use crate::{build_cluster, paper_cluster, WorkloadSpec};
use dualpar_cluster::IoStrategy;
use dualpar_workloads::Hpio;
use serde::Serialize;

#[derive(Serialize)]
struct HoleRow {
    max_hole_kb: u64,
    throughput_mbps: f64,
}

#[derive(Serialize)]
struct SieveRow {
    sieving: bool,
    demo_secs: f64,
}

#[derive(Serialize)]
struct Out {
    hole_sweep: Vec<HoleRow>,
    sieve: Vec<SieveRow>,
}

pub(super) fn run(fx: &FigureRun) {
    // (a) hole threshold sweep on hpio under forced DualPar: its 32 KB
    // regions are separated by 1 KB spacings, so any threshold >= 1 KB
    // fuses a process's whole recording into one cover while 0 leaves
    // per-region requests.
    let hole_sweep = fx.map(&[0u64, 1, 4, 64, 256], |&hole_kb| {
        let mut cfg = paper_cluster();
        cfg.dualpar.max_hole = hole_kb * 1024;
        let hpio = Hpio {
            nprocs: 64,
            region_count: 512,
        };
        let r = build_cluster(&spec(
            cfg,
            IoStrategy::DualParForced,
            vec![WorkloadSpec::named(hpio)],
        ))
        .run();
        HoleRow {
            max_hole_kb: hole_kb,
            throughput_mbps: r.programs[0].throughput_mbps(),
        }
    });
    print_table(
        "Ablation: CRM hole-filling threshold (hpio, DualPar)",
        &["max hole (KB)", "MB/s"],
        hole_sweep.iter().map(|r| {
            vec![
                r.max_hole_kb.to_string(),
                format!("{:.0}", r.throughput_mbps),
            ]
        }),
    );

    // (b) data sieving for the vanilla baseline on the demo pattern.
    let sieve = fx.map(&[false, true], |&sieving| {
        let mut cfg = paper_cluster();
        cfg.sieve.enabled = sieving;
        let r = build_cluster(&demo_spec(cfg, IoStrategy::Vanilla, 1.0, 4096, 128 << 20)).run();
        SieveRow {
            sieving,
            demo_secs: r.programs[0].elapsed().as_secs_f64(),
        }
    });
    print_table(
        "Ablation: data sieving in the vanilla baseline (demo, 4 KB segs)",
        &["sieving", "exec time (s)"],
        sieve
            .iter()
            .map(|r| vec![r.sieving.to_string(), format!("{:.1}", r.demo_secs)]),
    );
    fx.save_json("ablation_crm", &Out { hole_sweep, sieve });
}
