//! Cluster and experiment configuration.

use dualpar_core::DualParConfig;
use dualpar_disk::{DiskParams, SchedulerKind};
use dualpar_mpiio::{CollectiveConfig, ProgramScript, SieveConfig};
use dualpar_sim::{SimDuration, SimTime};
use dualpar_telemetry::TelemetryConfig;
use serde::{Deserialize, Serialize};

/// How a program's I/O calls are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoStrategy {
    /// Strategy 1 / "vanilla MPI-IO": every region of every call is issued
    /// synchronously, one region at a time per process.
    Vanilla,
    /// Collective I/O: calls marked collective synchronise all ranks and go
    /// through the two-phase planner; other calls behave like `Vanilla`.
    Collective,
    /// Strategy 2: application-level prefetching via pre-execution with
    /// computation sliced out; prefetch requests are issued the moment they
    /// are generated, aiming to hide I/O behind compute.
    PrefetchOverlap,
    /// Strategy 3 / DualPar with the data-driven mode forced on (used in
    /// the single-application experiments where "programs stay in the
    /// data-driven mode").
    DualParForced,
    /// Full adaptive DualPar: EMC switches the mode opportunistically.
    DualPar,
}

impl IoStrategy {
    /// True for the two DualPar variants.
    pub fn is_dualpar(self) -> bool {
        matches!(self, IoStrategy::DualPar | IoStrategy::DualParForced)
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            IoStrategy::Vanilla => "vanilla",
            IoStrategy::Collective => "collective",
            IoStrategy::PrefetchOverlap => "prefetch-overlap",
            IoStrategy::DualParForced => "dualpar-forced",
            IoStrategy::DualPar => "dualpar",
        }
    }
}

/// How data servers handle write requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerWriteMode {
    /// Writes are acknowledged when the disk completes them (default; the
    /// steady-state behaviour the paper's forced 1-second write-back
    /// produces for sustained writers).
    WriteThrough,
    /// Writes are acknowledged on arrival and flushed to disk by a
    /// periodic daemon — the paper's literal server configuration ("we
    /// force dirty pages being written back every one second"). The flush
    /// stream competes with reads at the disk scheduler.
    WriteBack,
}

/// Static description of the simulated cluster (paper §V: Darwin with nine
/// PVFS2 data servers, 64 KB striping, CFQ, Gigabit Ethernet).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct ClusterConfig {
    /// Data servers (each with one disk).
    pub num_data_servers: u32,
    /// Compute nodes processes and cache homes spread over.
    pub num_compute_nodes: u32,
    /// PVFS2 stripe unit (also the cache chunk size).
    pub stripe_size: u64,
    /// Mechanical disk model.
    pub disk: DiskParams,
    /// Disk scheduler at every server.
    pub scheduler: SchedulerKind,
    /// One-way network latency.
    pub net_latency: SimDuration,
    /// Per-NIC bandwidth, bytes/sec (GigE ≈ 125 MB/s).
    pub net_bandwidth: u64,
    /// Request/response header size charged per message.
    pub msg_header: u64,
    /// Memory copy bandwidth for local cache hits.
    pub mem_bandwidth: u64,
    /// Extent-allocation policy.
    pub alloc: dualpar_pfs::AllocConfig,
    /// DualPar thresholds and quotas.
    pub dualpar: DualParConfig,
    /// Data-sieving policy for independent I/O.
    pub sieve: SieveConfig,
    /// Two-phase collective-I/O planner settings.
    pub collective: CollectiveConfig,
    /// Record full per-request disk traces (needed for the LBN figures).
    pub trace_disks: bool,
    /// Server write handling (see [`ServerWriteMode`]).
    pub server_write_mode: ServerWriteMode,
    /// Flush period for [`ServerWriteMode::WriteBack`].
    pub server_flush_interval: SimDuration,
    /// Mean per-request client-side issue overhead for Strategy-2
    /// pre-execution prefetching (library call + posting cost); jittered
    /// ±50%. This is the "time gaps between consecutive requests issued
    /// during the pre-execution" of §II.
    pub s2_issue_gap: SimDuration,
    /// Maximum outstanding Strategy-2 prefetch requests per process (the
    /// async-I/O window the client library allows). Keeping this small is
    /// what leaves the disk scheduler "a limited number of outstanding
    /// requests" to sort (§II).
    pub s2_window: usize,
    /// Master seed for every deterministic random stream.
    pub seed: u64,
    /// Instrumentation level and trace capacity (off by default; absent
    /// from serialized configs written before telemetry existed).
    #[serde(default)]
    pub telemetry: TelemetryConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_data_servers: 9,
            num_compute_nodes: 4,
            stripe_size: 64 * 1024,
            disk: DiskParams::hdd_7200rpm(),
            scheduler: SchedulerKind::Cfq,
            net_latency: SimDuration::from_micros(50),
            net_bandwidth: 125_000_000,
            msg_header: 256,
            mem_bandwidth: 8_000_000_000,
            alloc: dualpar_pfs::AllocConfig::default(),
            dualpar: DualParConfig::default(),
            sieve: SieveConfig::default(),
            collective: CollectiveConfig::default(),
            trace_disks: false,
            server_write_mode: ServerWriteMode::WriteThrough,
            server_flush_interval: SimDuration::from_secs(1),
            s2_issue_gap: SimDuration::from_micros(50),
            s2_window: 4,
            seed: 42,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// A program to run: its script, strategy, and start time.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Per-rank scripts.
    pub script: ProgramScript,
    /// Execution strategy.
    pub strategy: IoStrategy,
    /// Simulated submission time.
    pub start_at: SimTime,
}

impl ProgramSpec {
    /// A program starting at time zero.
    pub fn new(script: ProgramScript, strategy: IoStrategy) -> Self {
        ProgramSpec {
            script,
            strategy,
            start_at: SimTime::ZERO,
        }
    }

    /// Delay the program's start.
    pub fn starting_at(mut self, at: SimTime) -> Self {
        self.start_at = at;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_platform() {
        let c = ClusterConfig::default();
        assert_eq!(c.num_data_servers, 9);
        assert_eq!(c.stripe_size, 64 * 1024);
        assert_eq!(c.scheduler, SchedulerKind::Cfq);
        assert_eq!(c.net_bandwidth, 125_000_000);
    }

    #[test]
    fn strategy_labels_are_distinct() {
        use IoStrategy::*;
        let all = [Vanilla, Collective, PrefetchOverlap, DualParForced, DualPar];
        let labels: dualpar_sim::FxHashSet<_> = all.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), all.len());
        assert!(DualPar.is_dualpar() && DualParForced.is_dualpar());
        assert!(!Vanilla.is_dualpar());
    }
}
