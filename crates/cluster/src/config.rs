//! Cluster and experiment configuration.

use dualpar_core::DualParConfig;
use dualpar_disk::{DiskParams, SchedulerKind};
use dualpar_mpiio::{ProgramScript, SieveConfig};
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

/// One-way network latency.
pub(crate) const NET_LATENCY: SimDuration = SimDuration::from_micros(50);
/// Per-NIC bandwidth, bytes/sec (GigE ≈ 125 MB/s).
pub(crate) const NET_BANDWIDTH: u64 = 125_000_000;
/// Request/response header size charged per message.
pub(crate) const MSG_HEADER: u64 = 256;
/// Memory copy bandwidth for local cache hits, bytes/sec.
pub(crate) const MEM_BANDWIDTH: u64 = 8_000_000_000;
/// Flush period for [`ServerWriteMode::WriteBack`]: the paper's "every
/// one second".
pub(crate) const SERVER_FLUSH_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Mean per-request client-side issue overhead for Strategy-2
/// pre-execution prefetching (library call + posting cost); jittered
/// ±50%. This is the "time gaps between consecutive requests issued
/// during the pre-execution" of §II.
pub(crate) const S2_ISSUE_GAP: SimDuration = SimDuration::from_micros(50);
/// Maximum outstanding Strategy-2 prefetch requests per process (the
/// async-I/O window the client library allows). Keeping this small is
/// what leaves the disk scheduler "a limited number of outstanding
/// requests" to sort (§II).
pub(crate) const S2_WINDOW: usize = 4;

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
    /// DualPar thresholds and quotas.
    pub dualpar: DualParConfig,
    /// Data-sieving policy for independent I/O.
    pub sieve: SieveConfig,
    /// Record full per-request disk traces (needed for the LBN figures).
    pub trace_disks: bool,
    /// Server write handling (see [`ServerWriteMode`]).
    pub server_write_mode: ServerWriteMode,
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
            dualpar: DualParConfig::default(),
            sieve: SieveConfig::default(),
            trace_disks: false,
            server_write_mode: ServerWriteMode::WriteThrough,
            seed: 42,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Why a cluster or a program cannot be assembled: a [`ClusterConfig`]
/// that [`ClusterConfig::validate`] rejects, or a script that
/// [`Cluster::try_add_program`](crate::Cluster::try_add_program) rejects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// `num_data_servers` is zero: the file system needs a data server.
    NoServers,
    /// `num_compute_nodes` is zero: processes need somewhere to run.
    NoComputeNodes,
    /// `stripe_size` is zero.
    ZeroStripe,
    /// `dualpar.sample_slot` is zero: EMC's sampling tick would never
    /// advance simulated time.
    ZeroSampleSlot,
    /// `disk.transfer_bytes_per_sec` is zero: a transfer time divides by
    /// it, and `SimDuration::for_transfer` reads a zero rate as infinite.
    ZeroDiskRate,
    /// A program's script has no ranks.
    NoRanks {
        /// The program's label.
        program: String,
    },
    /// A program's ranks disagree on their barrier sequence.
    InconsistentBarriers {
        /// The program's label.
        program: String,
    },
    /// A program references a file that was never created.
    UnknownFile {
        /// The program's label.
        program: String,
        /// The raw file id the script referenced.
        file: u32,
    },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::NoServers => write!(f, "num_data_servers must be at least 1"),
            ExperimentError::NoComputeNodes => write!(f, "num_compute_nodes must be at least 1"),
            ExperimentError::ZeroStripe => write!(f, "stripe_size must be non-zero"),
            ExperimentError::ZeroSampleSlot => write!(f, "dualpar.sample_slot must be non-zero"),
            ExperimentError::ZeroDiskRate => {
                write!(f, "disk.transfer_bytes_per_sec must be non-zero")
            }
            ExperimentError::NoRanks { program } => {
                write!(f, "program {program:?} has no ranks")
            }
            ExperimentError::InconsistentBarriers { program } => {
                write!(f, "program {program:?} has inconsistent barrier sequences")
            }
            ExperimentError::UnknownFile { program, file } => {
                write!(
                    f,
                    "program {program:?} references file id {file} that was never created"
                )
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

impl ClusterConfig {
    /// Reject a cluster that cannot run: zero data servers, compute nodes,
    /// stripe size, EMC sampling slot or disk media rate. The spec loader
    /// calls this, so no spec reaches the simulator with a degenerate
    /// shape.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        if self.num_data_servers == 0 {
            return Err(ExperimentError::NoServers);
        }
        if self.num_compute_nodes == 0 {
            return Err(ExperimentError::NoComputeNodes);
        }
        if self.stripe_size == 0 {
            return Err(ExperimentError::ZeroStripe);
        }
        if self.dualpar.sample_slot == SimDuration::ZERO {
            return Err(ExperimentError::ZeroSampleSlot);
        }
        if self.disk.transfer_bytes_per_sec == 0 {
            return Err(ExperimentError::ZeroDiskRate);
        }
        Ok(())
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
        assert_eq!(NET_LATENCY, SimDuration::from_micros(50));
        assert_eq!(NET_BANDWIDTH, 125_000_000);
        assert_eq!(MSG_HEADER, 256);
        assert_eq!(MEM_BANDWIDTH, 8_000_000_000);
        assert_eq!(SERVER_FLUSH_INTERVAL, SimDuration::from_secs(1));
        assert_eq!(S2_ISSUE_GAP, SimDuration::from_micros(50));
        assert_eq!(S2_WINDOW, 4);
    }

    #[test]
    fn a_zero_disk_rate_is_rejected() {
        let mut c = ClusterConfig::default();
        assert_eq!(c.validate(), Ok(()));
        c.disk.transfer_bytes_per_sec = 0;
        assert_eq!(c.validate(), Err(ExperimentError::ZeroDiskRate));
        assert_eq!(
            ExperimentError::ZeroDiskRate.to_string(),
            "disk.transfer_bytes_per_sec must be non-zero"
        );
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
