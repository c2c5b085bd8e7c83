//! The paper's figures, tables and ablations as entries of one registry,
//! run by `dualpar figure [NAME...] [--out DIR] [--jobs N]`.
//!
//! A figure says *what* to run: it builds each cell as an
//! [`ExperimentSpec`], runs it through [`build_cluster`] (the path the CLI,
//! the suite and perfbench share), prints the paper-style rows and saves
//! its artifacts. The [`FigureRun`] it is handed decides *where*: the
//! worker pool size and the output directory. Reports are byte-identical
//! at every `--jobs` level.

use crate::spec::{build_cluster, ExperimentSpec, ProgramEntry, WorkloadSpec, SPEC_VERSION};
use dualpar_cluster::{Cluster, ClusterConfig, IoStrategy, RunReport};
use dualpar_sim::{parallel_map, SimDuration};
use dualpar_workloads::{compute_for_io_ratio, Demo};
use serde::Serialize;
use std::path::PathBuf;

mod ablation_crm;
mod ablation_ghost;
mod ablation_sched;
mod ablation_thresholds;
mod ablation_writeback;
mod fig1_motivation;
mod fig3_single_app;
mod fig4_btio_concurrent;
mod fig5_s3asim;
mod fig7_adaptive;
mod fig8_cache_size;
mod table2_mpiio_interference;
mod table3_misprefetch;

/// A registered figure: its name and the function that runs it.
pub type Figure = (&'static str, fn(&FigureRun));

/// Every registered figure, in the order `dualpar figure` runs them when
/// given no names.
pub static FIGURES: &[Figure] = &[
    ("fig1_motivation", fig1_motivation::run),
    ("fig3_single_app", fig3_single_app::run),
    ("fig4_btio_concurrent", fig4_btio_concurrent::run),
    ("fig5_s3asim", fig5_s3asim::run),
    ("table2_mpiio_interference", table2_mpiio_interference::run),
    ("fig7_adaptive", fig7_adaptive::run),
    ("fig8_cache_size", fig8_cache_size::run),
    ("table3_misprefetch", table3_misprefetch::run),
    ("ablation_sched", ablation_sched::run),
    ("ablation_crm", ablation_crm::run),
    ("ablation_thresholds", ablation_thresholds::run),
    ("ablation_ghost", ablation_ghost::run),
    ("ablation_writeback", ablation_writeback::run),
];

/// The registered figures called `names`, in the order given; all of them
/// when `names` is empty. An unknown name is an error listing the
/// registered ones.
pub fn select(names: &[String]) -> Result<Vec<Figure>, String> {
    if names.is_empty() {
        return Ok(FIGURES.to_vec());
    }
    names
        .iter()
        .map(|name| {
            FIGURES
                .iter()
                .find(|(n, _)| n == name)
                .copied()
                .ok_or_else(|| {
                    let known: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
                    format!(
                        "unknown figure {name:?}; registered figures: {}",
                        known.join(", ")
                    )
                })
        })
        .collect()
}

/// Where a figure runs: the worker pool size and the directory its
/// artifacts are written to.
pub struct FigureRun {
    /// Worker threads for independent cells.
    pub jobs: usize,
    /// Output directory (must exist).
    pub out: PathBuf,
}

impl FigureRun {
    /// Order-preserving map of `f` over `cells` on the worker pool.
    pub(crate) fn map<T: Sync, R: Send>(&self, cells: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        parallel_map(cells, self.jobs, |_, cell| f(cell))
    }

    /// Write `<out>/<name>.json`.
    #[expect(
        clippy::panic,
        reason = "a fail-fast figure run: the message names the path, which `expect` cannot format"
    )]
    pub(crate) fn save_json<T: Serialize>(&self, name: &str, value: &T) {
        let path = self.out.join(format!("{name}.json"));
        let data = serde_json::to_string_pretty(value).expect("serialise results");
        std::fs::write(&path, data).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        println!("\n[saved {}]", path.display());
    }

    /// Emit a gnuplot script plus one `.dat` file per series for an x/y
    /// plot. Render with `gnuplot <out>/<name>.gp` (produces `<name>.png`).
    /// Points are plotted as dots for scatter-style figures (the paper's
    /// LBN traces) and connected when `lines` is true.
    #[expect(
        clippy::panic,
        reason = "a fail-fast figure run: the message names the path, which `expect` cannot format"
    )]
    pub(crate) fn save_gnuplot(
        &self,
        name: &str,
        title: &str,
        xlabel: &str,
        ylabel: &str,
        lines: bool,
        series: &[(&str, Vec<(f64, f64)>)],
    ) {
        let mut plot_clauses = Vec::new();
        for (label, points) in series {
            let slug: String = label
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            let dat = format!("{name}_{slug}.dat");
            let mut body = String::new();
            for (x, y) in points {
                body.push_str(&format!("{x} {y}\n"));
            }
            let path = self.out.join(&dat);
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
            let style = if lines {
                "with linespoints"
            } else {
                "with points pt 7 ps 0.3"
            };
            plot_clauses.push(format!("'{dat}' {style} title '{label}'"));
        }
        let gp = self.out.join(format!("{name}.gp"));
        let script = format!(
            "set terminal pngcairo size 900,600\nset output '{name}.png'\nset title '{title}'\nset xlabel '{xlabel}'\nset ylabel '{ylabel}'\nset key outside\nplot {}\n",
            plot_clauses.join(", \\\n     ")
        );
        std::fs::write(&gp, script).unwrap_or_else(|e| panic!("write {gp:?}: {e}"));
        println!("[gnuplot {}]", gp.display());
    }
}

/// Print a fixed-width table.
fn print_table(title: &str, header: &[&str], rows: impl IntoIterator<Item = Vec<String>>) {
    println!("\n=== {title} ===");
    let rows: Vec<Vec<String>> = rows.into_iter().collect();
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: &[String]| {
        let cols: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", cols.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for r in &rows {
        line(r);
    }
}

/// Vanilla MPI-IO, collective I/O and forced DualPar: the three columns
/// of Figs. 3–5 and Table II.
const STRATEGIES: [IoStrategy; 3] = [
    IoStrategy::Vanilla,
    IoStrategy::Collective,
    IoStrategy::DualParForced,
];

/// One serviced disk request of an LBN trace figure (Figs. 1(c,d), 6).
#[derive(Serialize)]
struct TracePoint {
    t_secs: f64,
    lbn: u64,
}

/// One cell: `workloads` running side by side from t = 0 under `strategy`.
fn spec(
    cluster: ClusterConfig,
    strategy: IoStrategy,
    workloads: Vec<WorkloadSpec>,
) -> ExperimentSpec {
    ExperimentSpec {
        version: SPEC_VERSION,
        cluster,
        programs: workloads
            .into_iter()
            .map(|workload| ProgramEntry {
                workload,
                strategy,
                start_secs: 0.0,
            })
            .collect(),
        arrivals: Vec::new(),
    }
}

/// Run a cell to completion, keeping its cluster for disk-trace reads.
fn simulate(spec: &ExperimentSpec) -> (RunReport, Cluster) {
    let mut cluster = build_cluster(spec);
    let report = cluster.run();
    (report, cluster)
}

/// Whether a strategy's scripts should mark I/O calls collective.
fn collective(strategy: IoStrategy) -> bool {
    strategy == IoStrategy::Collective
}

/// §II `demo`: 8 processes reading `file_size` bytes front-to-back with a
/// vector datatype, with compute per call tuned for `io_ratio`.
///
/// The paper's I/O ratio is defined against "the vanilla system", so the
/// injected compute is calibrated by a compute-free vanilla pilot at this
/// segment size first: a two-step run, which is why this one helper
/// returns a spec only after simulating.
fn demo_spec(
    cluster: ClusterConfig,
    strategy: IoStrategy,
    io_ratio: f64,
    segment_size: u64,
    file_size: u64,
) -> ExperimentSpec {
    let pilot = Demo {
        segment_size,
        file_size: file_size.min(32 << 20),
        ..Default::default()
    };
    let calls =
        (pilot.file_size / (Demo::SEGS_PER_CALL * Demo::NPROCS as u64 * segment_size)).max(1);
    let r = build_cluster(&spec(
        cluster.clone(),
        IoStrategy::Vanilla,
        vec![WorkloadSpec::named(pilot)],
    ))
    .run();
    let io_per_call =
        SimDuration::from_secs_f64(r.programs[0].elapsed().as_secs_f64() / calls as f64);
    let demo = Demo {
        segment_size,
        file_size,
        compute_per_call: compute_for_io_ratio(io_per_call, io_ratio),
        collective: collective(strategy),
    };
    spec(cluster, strategy, vec![WorkloadSpec::named(demo)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::small_cluster;

    #[test]
    fn demo_spec_runs_the_calibrated_demo() {
        let r = build_cluster(&demo_spec(
            small_cluster(),
            IoStrategy::Vanilla,
            1.0,
            16 * 1024,
            4 << 20,
        ))
        .run();
        assert_eq!(r.programs[0].bytes_read, 4 << 20);
    }

    fn dir_bytes(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect()
    }

    /// The cheapest figure, run into a scratch directory, writes exactly
    /// its two committed artifacts, byte for byte, and touches nothing in
    /// the tree's `bench_results/`.
    #[test]
    fn figure_writes_committed_bytes_into_out_dir_only() {
        let committed =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
        let before = dir_bytes(&committed);
        let out = std::env::temp_dir().join(format!("dualpar-figure-{}", std::process::id()));
        std::fs::create_dir_all(&out).unwrap();
        let (_, run) = select(&["table3_misprefetch".to_string()]).unwrap()[0];
        run(&FigureRun {
            jobs: 2,
            out: out.clone(),
        });
        let written = dir_bytes(&out);
        std::fs::remove_dir_all(&out).unwrap();
        let names: Vec<&str> = written.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            ["table3_misprefetch.json", "table3_predictability.json"]
        );
        for (name, bytes) in &written {
            assert!(
                before[name] == *bytes,
                "{name} differs from bench_results/{name}"
            );
        }
        assert!(dir_bytes(&committed) == before, "bench_results/ changed");
    }

    #[test]
    fn unknown_figure_names_list_the_registry() {
        let err = select(&["fig2".to_string()]).expect_err("unknown name");
        assert!(err.contains("\"fig2\""), "{err}");
        for (name, _) in FIGURES {
            assert!(err.contains(name), "{name} missing from {err}");
        }
        assert_eq!(select(&[]).expect("all").len(), FIGURES.len());
    }
}
