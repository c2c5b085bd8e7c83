//! Table III — the mis-prefetch worst case: a reader whose every request
//! depends on the data returned by the previous one, so all prefetched
//! data is useless. Paper: with DualPar the execution time grows by at
//! most 7.2% (at a 4 MB quota) because the high mis-prefetch ratio turns
//! the data-driven mode off after one phase — a one-time overhead.

use super::{print_table, spec, FigureRun};
use crate::{build_cluster, paper_cluster, WorkloadSpec};
use dualpar_cluster::{IoStrategy, RunReport};
use dualpar_workloads::DependentReader;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    cache_kb: u64,
    no_dualpar_secs: f64,
    dualpar_secs: f64,
    overhead_pct: f64,
    misprefetch_ratio: f64,
    phases: u64,
}

#[derive(Serialize)]
struct PredRow {
    predictability: f64,
    dualpar_secs: f64,
    mis_ratio: f64,
    phases: u64,
}

const TOTAL: u64 = 512 << 20;

/// §V-F the 16-process data-dependent reader under `strategy`, with the
/// paper-default thresholds and a per-process cache quota of `quota`.
fn dependent(strategy: IoStrategy, quota: u64, predictability: f64) -> RunReport {
    let mut cfg = paper_cluster();
    cfg.dualpar.cache_quota = quota;
    let reader = DependentReader {
        nprocs: 16,
        total_bytes: TOTAL,
        predictability,
        ..Default::default()
    };
    build_cluster(&spec(cfg, strategy, vec![WorkloadSpec::named(reader)])).run()
}

pub(super) fn run(fx: &FigureRun) {
    let default_quota = paper_cluster().dualpar.cache_quota;
    let predictability = DependentReader::default().predictability;
    let base = dependent(IoStrategy::Vanilla, default_quota, predictability).programs[0]
        .elapsed()
        .as_secs_f64();
    let sizes = [512u64, 1024, 2048, 4096];
    let rows = fx.map(&sizes, |&cache_kb| {
        let r = dependent(IoStrategy::DualPar, cache_kb * 1024, predictability);
        let secs = r.programs[0].elapsed().as_secs_f64();
        Row {
            cache_kb,
            no_dualpar_secs: base,
            dualpar_secs: secs,
            overhead_pct: (secs / base - 1.0) * 100.0,
            misprefetch_ratio: r.programs[0].avg_misprefetch,
            phases: r.programs[0].phases,
        }
    });
    print_table(
        "Table III: fully data-dependent reads — execution time",
        &[
            "cache (KB)",
            "no DualPar (s)",
            "DualPar (s)",
            "overhead",
            "mis-ratio",
            "phases",
        ],
        rows.iter().map(|r| {
            vec![
                r.cache_kb.to_string(),
                format!("{:.1}", r.no_dualpar_secs),
                format!("{:.1}", r.dualpar_secs),
                format!("{:+.1}%", r.overhead_pct),
                format!("{:.2}", r.misprefetch_ratio),
                r.phases.to_string(),
            ]
        }),
    );
    fx.save_json("table3_misprefetch", &rows);

    // Extension: sweep the ghost's prediction accuracy across EMC's 20 %
    // mis-prefetch veto. Above the veto (mis-ratio ≤ 0.2) the data-driven
    // mode survives and pays off; below it the mode is disabled and the
    // overhead stays bounded.
    let preds = [1.0, 0.9, 0.8, 0.5, 0.0];
    let pred_rows = fx.map(&preds, |&p| {
        let r = dependent(IoStrategy::DualPar, default_quota, p);
        PredRow {
            predictability: p,
            dualpar_secs: r.programs[0].elapsed().as_secs_f64(),
            mis_ratio: r.programs[0].avg_misprefetch,
            phases: r.programs[0].phases,
        }
    });
    print_table(
        "Extension: prediction accuracy vs the 20% mis-prefetch veto",
        &["predictability", "DualPar (s)", "mis-ratio", "phases"],
        pred_rows.iter().map(|r| {
            vec![
                format!("{:.0}%", r.predictability * 100.0),
                format!("{:.1}", r.dualpar_secs),
                format!("{:.2}", r.mis_ratio),
                r.phases.to_string(),
            ]
        }),
    );
    fx.save_json("table3_predictability", &pred_rows);
}
