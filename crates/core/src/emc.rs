//! Execution Mode Control — the daemon on the metadata server (§IV-B).
//!
//! EMC decides, once per sampling slot, which registered programs run in
//! the data-driven mode. Inputs:
//!
//! * **I/O ratio** per program, measured by the instrumented ADIO calls
//!   (time in I/O ÷ total time since the last slot);
//! * **`aveSeekDist`**: average disk-head seek distance reported by the
//!   locality daemon on each data server — *achieved* I/O efficiency;
//! * **`aveReqDist`**: average file-offset distance between adjacent
//!   requests after sorting the slot's requests per file on each compute
//!   node — the *achievable* efficiency of a data-driven reordering;
//! * **mis-prefetch ratio** per program, reported by the processes.
//!
//! When `aveSeekDist / aveReqDist > T_improvement`, programs whose I/O
//! ratio exceeds the threshold switch to data-driven; when the condition no
//! longer holds they revert; a program whose mis-prefetch ratio exceeds its
//! threshold has the mode disabled outright (sticky — the paper calls the
//! resulting cost a "one-time overhead").

use crate::config::{DualParConfig, ProgramId, MISPREFETCH_THRESHOLD};
use dualpar_disk::SECTOR_BYTES;
use dualpar_sim::FxHashMap;
use serde::Serialize;

/// The execution mode of a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ExecMode {
    /// Normal execution: computation drives request issuance.
    ComputationDriven,
    /// DualPar's coordinated suspend/pre-execute/batch/resume mode.
    DataDriven,
}

impl ExecMode {
    /// Snake-case label for reports and telemetry traces.
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::ComputationDriven => "computation_driven",
            ExecMode::DataDriven => "data_driven",
        }
    }
}

#[derive(Debug, Default)]
struct ProgramState {
    mode: Option<ExecMode>, // None until first tick
    io_time_ns: u64,
    total_time_ns: u64,
    misprefetch_sum: f64,
    misprefetch_n: u64,
    disabled_by_misprefetch: bool,
}

/// A mode-change instruction emitted by a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeChange {
    /// Program the change applies to.
    pub program: ProgramId,
    /// Its new mode.
    pub mode: ExecMode,
}

/// Per-program observation from the most recent tick — the inputs and
/// outcome of the slot's decision, exposed for telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickSample {
    /// The observed program.
    pub program: ProgramId,
    /// Its I/O ratio over the slot (time in I/O ÷ total time).
    pub io_ratio: f64,
    /// The mode the program is in after the decision.
    pub mode: ExecMode,
    /// Whether the mis-prefetch veto has permanently disabled the mode.
    pub vetoed: bool,
}

/// The EMC daemon state.
pub struct Emc {
    cfg: DualParConfig,
    programs: FxHashMap<ProgramId, ProgramState>,
    /// This slot's seek-distance samples from data servers (sectors).
    seek_samples: Vec<f64>,
    /// This slot's request-distance samples from compute nodes (sectors).
    req_samples: Vec<f64>,
    /// Last computed improvement ratio (for diagnostics/plots).
    last_improvement: Option<f64>,
    /// Per-program observations from the last tick (for telemetry).
    last_samples: Vec<TickSample>,
}

impl Emc {
    /// Build an EMC daemon with the given thresholds.
    pub fn new(cfg: DualParConfig) -> Self {
        Emc {
            cfg,
            programs: FxHashMap::default(),
            seek_samples: Vec::new(),
            req_samples: Vec::new(),
            last_improvement: None,
            last_samples: Vec::new(),
        }
    }

    /// Register a program for dual-mode execution. Programs start in the
    /// computation-driven mode.
    pub fn register(&mut self, program: ProgramId) {
        self.programs.entry(program).or_default();
    }

    /// Remove a finished program.
    pub fn deregister(&mut self, program: ProgramId) {
        self.programs.remove(&program);
    }

    /// Accumulate I/O vs total time for a program (from ADIO timing hooks).
    pub fn report_times(&mut self, program: ProgramId, io_ns: u64, total_ns: u64) {
        if let Some(p) = self.programs.get_mut(&program) {
            p.io_time_ns = p.io_time_ns.saturating_add(io_ns);
            p.total_time_ns = p.total_time_ns.saturating_add(total_ns);
        }
    }

    /// A data server's average seek distance this slot (sectors).
    pub fn report_seek_dist(&mut self, avg_sectors: f64) {
        self.seek_samples.push(avg_sectors);
    }

    /// A compute node's average sorted-request distance this slot (bytes;
    /// converted to sectors internally so the ratio is dimensionless).
    pub fn report_req_dist(&mut self, avg_bytes: f64) {
        self.req_samples.push(avg_bytes / SECTOR_BYTES as f64);
    }

    /// A process's mis-prefetch ratio for the epoch that just ended.
    pub fn report_misprefetch(&mut self, program: ProgramId, ratio: f64) {
        if let Some(p) = self.programs.get_mut(&program) {
            p.misprefetch_sum += ratio;
            p.misprefetch_n += 1;
        }
    }

    /// The improvement ratio computed at the last tick.
    pub fn last_improvement(&self) -> Option<f64> {
        self.last_improvement
    }

    /// Per-program observations from the last tick, sorted by program id.
    pub fn last_tick_samples(&self) -> &[TickSample] {
        &self.last_samples
    }

    /// Current mode of `program` (computation-driven if unknown).
    pub fn mode_of(&self, program: ProgramId) -> ExecMode {
        self.programs
            .get(&program)
            .and_then(|p| p.mode)
            .unwrap_or(ExecMode::ComputationDriven)
    }

    /// Evaluate the slot: consume the accumulated samples and return the
    /// mode changes to apply.
    pub fn tick(&mut self) -> Vec<ModeChange> {
        let ave_seek = mean(&self.seek_samples);
        let ave_req = mean(&self.req_samples);
        self.seek_samples.clear();
        self.req_samples.clear();

        // Potential I/O-efficiency improvement (§IV-B). No data ⇒ no change
        // pressure; a tiny ReqDist with a large SeekDist is the strongest
        // signal.
        let improvement = match (ave_seek, ave_req) {
            (Some(s), Some(r)) => Some(if r <= f64::EPSILON {
                f64::INFINITY
            } else {
                s / r
            }),
            _ => None,
        };
        self.last_improvement = improvement;

        let mut changes = Vec::new();
        self.last_samples.clear();
        for (&prog, st) in self.programs.iter_mut() {
            // Mis-prefetch check first: it vetoes the mode permanently.
            if st.misprefetch_n > 0 {
                let avg = st.misprefetch_sum / st.misprefetch_n as f64;
                st.misprefetch_sum = 0.0;
                st.misprefetch_n = 0;
                if avg > MISPREFETCH_THRESHOLD {
                    st.disabled_by_misprefetch = true;
                }
            }
            let io_ratio = if st.total_time_ns == 0 {
                0.0
            } else {
                st.io_time_ns as f64 / st.total_time_ns as f64
            };
            st.io_time_ns = 0;
            st.total_time_ns = 0;

            let want = if st.disabled_by_misprefetch {
                ExecMode::ComputationDriven
            } else {
                match improvement {
                    Some(imp)
                        if imp > self.cfg.t_improvement
                            && io_ratio > self.cfg.io_ratio_threshold =>
                    {
                        ExecMode::DataDriven
                    }
                    // No samples this slot: keep the current mode (a
                    // program deep in data-driven phases generates no
                    // vanilla request stream to sample).
                    None => st.mode.unwrap_or(ExecMode::ComputationDriven),
                    _ => ExecMode::ComputationDriven,
                }
            };
            let current = st.mode.unwrap_or(ExecMode::ComputationDriven);
            dualpar_sim::strict_assert!(
                !(st.disabled_by_misprefetch && want == ExecMode::DataDriven),
                "mis-prefetch veto must forbid the data-driven mode (program {prog:?})"
            );
            if current != want && want == ExecMode::DataDriven {
                dualpar_sim::strict_assert!(
                    matches!(improvement, Some(imp) if imp > self.cfg.t_improvement)
                        && io_ratio > self.cfg.io_ratio_threshold,
                    "illegal data-driven switch: improvement={improvement:?} io_ratio={io_ratio} (program {prog:?})"
                );
            }
            st.mode = Some(want);
            self.last_samples.push(TickSample {
                program: prog,
                io_ratio,
                mode: want,
                vetoed: st.disabled_by_misprefetch,
            });
            if current != want {
                changes.push(ModeChange {
                    program: prog,
                    mode: want,
                });
            }
        }
        changes.sort_by_key(|c| c.program);
        self.last_samples.sort_by_key(|s| s.program);
        changes
    }
}

fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Per-compute-node tracker that turns the slot's observed requests into
/// the `ReqDist` statistic: sort per file by offset, average the gaps
/// between adjacent requests.
#[derive(Debug, Default)]
pub struct ReqDistTracker {
    /// `(offset, len)` of each request observed this slot, per file. A file
    /// not observed in a slot is dropped at its end; the others keep their
    /// capacity for the next slot.
    files: Vec<(u32, Vec<(u64, u64)>)>,
    /// Where in `files` the last observed request's file was: a call's
    /// regions all name one file.
    last: usize,
}

impl ReqDistTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observed request.
    pub fn observe(&mut self, file: u32, offset: u64, len: u64) {
        let i = match self.files.get(self.last) {
            Some(&(f, _)) if f == file => self.last,
            _ => match self.files.iter().position(|&(f, _)| f == file) {
                Some(i) => i,
                None => {
                    self.files.push((file, Vec::new()));
                    self.files.len() - 1
                }
            },
        };
        self.last = i;
        self.files[i].1.push((offset, len));
    }

    /// Average adjacent distance (bytes) of this slot's requests, then
    /// reset. `None` when no file saw two requests.
    ///
    /// Each file's requests are sorted by offset and each adjacent pair
    /// adds the gap from the first's end to the second's start (0 if they
    /// overlap). Requests at the same offset form a group: pairs inside it
    /// add 0, and the gap after it runs from the end of its longest
    /// request, as it would after a sort that breaks the tie by length.
    pub fn take_avg_req_dist(&mut self) -> Option<f64> {
        let mut sum = 0u64;
        let mut n = 0u64;
        for (_, reqs) in &mut self.files {
            reqs.sort_unstable_by_key(|&(offset, _)| offset);
            let Some((&(mut offset0, len0), rest)) = reqs.split_first() else {
                continue;
            };
            let mut end0 = offset0 + len0;
            for &(offset, len) in rest {
                sum += offset.saturating_sub(end0);
                n += 1;
                // Inside a group the gap above is 0, and the group ends at
                // its longest request.
                let end = offset + len;
                end0 = if offset == offset0 {
                    end0.max(end)
                } else {
                    end
                };
                offset0 = offset;
            }
        }
        self.files.retain_mut(|(_, reqs)| {
            let observed = !reqs.is_empty();
            reqs.clear();
            observed
        });
        if n == 0 {
            None
        } else {
            Some(sum as f64 / n as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn emc() -> Emc {
        Emc::new(DualParConfig::default())
    }

    const SLOT_NS: u64 = 1_000_000_000;

    #[test]
    fn switches_on_when_io_bound_and_inefficient() {
        let mut e = emc();
        e.register(ProgramId(1));
        e.report_times(ProgramId(1), (0.95 * SLOT_NS as f64) as u64, SLOT_NS);
        e.report_seek_dist(1_000_000.0); // huge seeks
        e.report_req_dist(16.0 * 1024.0); // requests 16 KB apart after sorting
        let changes = e.tick();
        assert_eq!(
            changes,
            vec![ModeChange {
                program: ProgramId(1),
                mode: ExecMode::DataDriven
            }]
        );
        assert!(e.last_improvement().unwrap() > 3.0);
    }

    #[test]
    fn no_switch_when_compute_bound() {
        let mut e = emc();
        e.register(ProgramId(1));
        e.report_times(ProgramId(1), SLOT_NS / 10, SLOT_NS); // 10% I/O
        e.report_seek_dist(1_000_000.0);
        e.report_req_dist(1024.0);
        let changes = e.tick();
        assert!(changes.is_empty());
        assert_eq!(e.mode_of(ProgramId(1)), ExecMode::ComputationDriven);
    }

    #[test]
    fn no_switch_when_already_efficient() {
        let mut e = emc();
        e.register(ProgramId(1));
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
        // Seeks about as small as the request stream allows: ratio ~1.
        e.report_seek_dist(100.0);
        e.report_req_dist(100.0 * 512.0);
        assert!(e.tick().is_empty());
    }

    #[test]
    fn reverts_when_condition_clears() {
        let mut e = emc();
        e.register(ProgramId(1));
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
        e.report_seek_dist(1_000_000.0);
        e.report_req_dist(1024.0);
        assert_eq!(e.tick().len(), 1);
        // Next slot: efficiency restored.
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
        e.report_seek_dist(10.0);
        e.report_req_dist(1024.0 * 512.0);
        let changes = e.tick();
        assert_eq!(changes[0].mode, ExecMode::ComputationDriven);
    }

    #[test]
    fn mode_sticky_without_samples() {
        let mut e = emc();
        e.register(ProgramId(1));
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
        e.report_seek_dist(1_000_000.0);
        e.report_req_dist(1024.0);
        e.tick();
        assert_eq!(e.mode_of(ProgramId(1)), ExecMode::DataDriven);
        // Data-driven phases generate no vanilla stream; no samples arrive.
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
        assert!(e.tick().is_empty());
        assert_eq!(e.mode_of(ProgramId(1)), ExecMode::DataDriven);
    }

    #[test]
    fn misprefetch_disables_permanently() {
        let mut e = emc();
        e.register(ProgramId(1));
        // In data-driven mode...
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
        e.report_seek_dist(1_000_000.0);
        e.report_req_dist(1024.0);
        e.tick();
        // ...half the prefetched data goes unused.
        e.report_misprefetch(ProgramId(1), 0.5);
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
        e.report_seek_dist(1_000_000.0);
        e.report_req_dist(1024.0);
        let changes = e.tick();
        assert_eq!(changes[0].mode, ExecMode::ComputationDriven);
        // Even with perfect trigger conditions later it stays off.
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
        e.report_seek_dist(10_000_000.0);
        e.report_req_dist(512.0);
        assert!(e.tick().is_empty());
    }

    #[test]
    fn small_misprefetch_tolerated() {
        let mut e = emc();
        e.register(ProgramId(1));
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
        e.report_seek_dist(1_000_000.0);
        e.report_req_dist(1024.0);
        e.tick();
        e.report_misprefetch(ProgramId(1), 0.1); // below the 20% threshold
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
        e.report_seek_dist(1_000_000.0);
        e.report_req_dist(1024.0);
        assert!(e.tick().is_empty());
        assert_eq!(e.mode_of(ProgramId(1)), ExecMode::DataDriven);
    }

    #[test]
    fn misprefetch_veto_starts_above_the_threshold() {
        // An average exactly at the threshold is tolerated; the next f64
        // above it vetoes.
        for (ratio, vetoed) in [
            (MISPREFETCH_THRESHOLD, false),
            (MISPREFETCH_THRESHOLD.next_up(), true),
        ] {
            let mut e = emc();
            e.register(ProgramId(1));
            for report in [None, Some(ratio)] {
                if let Some(r) = report {
                    e.report_misprefetch(ProgramId(1), r);
                }
                e.report_times(ProgramId(1), SLOT_NS, SLOT_NS);
                e.report_seek_dist(1_000_000.0);
                e.report_req_dist(1024.0);
                e.tick();
            }
            let want = if vetoed {
                ExecMode::ComputationDriven
            } else {
                ExecMode::DataDriven
            };
            assert_eq!(e.mode_of(ProgramId(1)), want, "ratio {ratio}");
            assert_eq!(e.last_tick_samples()[0].vetoed, vetoed, "ratio {ratio}");
        }
    }

    #[test]
    fn decisions_are_per_program() {
        let mut e = emc();
        e.register(ProgramId(1));
        e.register(ProgramId(2));
        e.report_times(ProgramId(1), SLOT_NS, SLOT_NS); // I/O bound
        e.report_times(ProgramId(2), SLOT_NS / 10, SLOT_NS); // compute bound
        e.report_seek_dist(1_000_000.0);
        e.report_req_dist(1024.0);
        let changes = e.tick();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].program, ProgramId(1));
    }

    #[test]
    fn req_dist_tracker_sorts_before_measuring() {
        let mut t = ReqDistTracker::new();
        // Arrivals out of order, 16 KB apart with 4 KB lengths.
        for off in [32768u64, 0, 16384, 49152] {
            t.observe(1, off, 4096);
        }
        let d = t.take_avg_req_dist().unwrap();
        assert_eq!(d, (16384 - 4096) as f64);
        assert!(t.take_avg_req_dist().is_none(), "tracker resets");
    }

    #[test]
    fn req_dist_ignores_cross_file_gaps() {
        let mut t = ReqDistTracker::new();
        t.observe(1, 0, 100);
        t.observe(2, 1_000_000, 100);
        assert!(t.take_avg_req_dist().is_none());
    }

    #[test]
    fn overlapping_requests_have_zero_distance() {
        let mut t = ReqDistTracker::new();
        t.observe(1, 0, 4096);
        t.observe(1, 1000, 4096);
        assert_eq!(t.take_avg_req_dist(), Some(0.0));
    }

    /// The statistic as first written: sort the `(file, offset, len)`
    /// tuples, then sum the gaps of adjacent same-file pairs.
    fn tuple_sort_avg(mut reqs: Vec<(u32, u64, u64)>) -> Option<f64> {
        if reqs.len() < 2 {
            return None;
        }
        reqs.sort_unstable();
        let (mut sum, mut n) = (0u64, 0u64);
        for w in reqs.windows(2) {
            let (f0, o0, l0) = w[0];
            let (f1, o1, _) = w[1];
            if f0 == f1 {
                sum += o1.saturating_sub(o0 + l0);
                n += 1;
            }
        }
        (n > 0).then(|| sum as f64 / n as f64)
    }

    #[test]
    fn gap_after_equal_offsets_starts_at_the_longest() {
        let mut t = ReqDistTracker::new();
        // Three requests at one offset, the longest in the middle of the
        // arrivals, then one 10,000 bytes past the longest's end.
        for (off, len) in [(0u64, 100u64), (0, 5000), (15_000, 10), (0, 300)] {
            t.observe(1, off, len);
        }
        // Pairs: two inside the group (0 each), then 15,000 - 5,000.
        assert_eq!(t.take_avg_req_dist(), Some(10_000.0 / 3.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The per-file statistic equals the tuple sort's exactly, with
        /// many ties in file and offset and overlapping lengths, and holds
        /// across slots that reuse the tracker.
        #[test]
        fn packed_sort_matches_tuple_sort(
            reqs in proptest::collection::vec((0u32..3, 0u64..40, 0u64..30), 0..60),
            scale in prop_oneof![Just(1u64), Just(4096u64)],
            split in 0usize..60,
        ) {
            let reqs: Vec<(u32, u64, u64)> =
                reqs.into_iter().map(|(f, o, l)| (f, o * scale, l * scale)).collect();
            let (first, second) = reqs.split_at(split.min(reqs.len()));
            let mut t = ReqDistTracker::new();
            for slot in [first, second] {
                for &(f, o, l) in slot {
                    t.observe(f, o, l);
                }
                prop_assert_eq!(t.take_avg_req_dist(), tuple_sort_avg(slot.to_vec()));
            }
        }
    }
}
