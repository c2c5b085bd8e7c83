//! Figure 8 — BTIO throughput vs per-process cache quota (0 KB disables
//! DualPar; 64 KB already buys a ~40× jump because BTIO's raw requests are
//! tiny; returns diminish beyond a few hundred KB).

use super::{print_table, spec, FigureRun};
use crate::{build_cluster, paper_cluster, ExperimentSpec, WorkloadSpec};
use dualpar_cluster::{ClusterConfig, IoStrategy};
use dualpar_workloads::Btio;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    cache_kb: u64,
    throughput_mbps: f64,
    phases: u64,
}

/// §V-E one BTIO instance with a per-process cache quota. Quota 0 means
/// DualPar disabled (vanilla execution).
fn cache_size_spec(
    mut cluster: ClusterConfig,
    quota: u64,
    nprocs: usize,
    dataset: u64,
) -> ExperimentSpec {
    let strategy = if quota == 0 {
        IoStrategy::Vanilla
    } else {
        cluster.dualpar.cache_quota = quota;
        IoStrategy::DualParForced
    };
    let btio = Btio {
        nprocs,
        dataset,
        ..Default::default()
    };
    spec(cluster, strategy, vec![WorkloadSpec::named(btio)])
}

pub(super) fn run(fx: &FigureRun) {
    let dataset: u64 = 24 << 20;
    let sizes = [0u64, 64, 128, 256, 512, 1024];
    let rows = fx.map(&sizes, |&cache_kb| {
        let cell = cache_size_spec(paper_cluster(), cache_kb * 1024, 64, dataset);
        let r = build_cluster(&cell).run();
        Row {
            cache_kb,
            throughput_mbps: r.programs[0].throughput_mbps(),
            phases: r.programs[0].phases,
        }
    });
    let base = rows[0].throughput_mbps;
    print_table(
        "Fig. 8: BTIO throughput vs per-process cache size",
        &["cache (KB)", "MB/s", "speedup", "phases"],
        rows.iter().map(|r| {
            vec![
                r.cache_kb.to_string(),
                format!("{:.2}", r.throughput_mbps),
                format!("{:.0}x", r.throughput_mbps / base),
                r.phases.to_string(),
            ]
        }),
    );
    fx.save_json("fig8_cache_size", &rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::small_cluster;

    #[test]
    fn cache_size_zero_means_vanilla() {
        let r = build_cluster(&cache_size_spec(small_cluster(), 0, 4, 1 << 20)).run();
        assert_eq!(r.programs[0].phases, 0);
        let r2 = build_cluster(&cache_size_spec(small_cluster(), 64 * 1024, 4, 1 << 20)).run();
        assert!(r2.programs[0].phases > 0);
    }
}
