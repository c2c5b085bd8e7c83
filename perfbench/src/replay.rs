//! Replays of a workload's own I/O calls through the public functions of
//! the cache (`GlobalCache`), core (`ghost_walk`, `plan_prefetch`,
//! `plan_writeback`) and mpiio (`plan_strided`) layers, timed from outside.
//!
//! The replays have no simulated clock: they reproduce the *order* of the
//! calls the engine makes, phase by phase, not their timing. README.md
//! documents how each one mirrors the engine.

use crate::spans::{SpanId, Spans};
use dualpar_cache::{CacheConfig, GlobalCache, OwnerId};
use dualpar_cluster::{ClusterConfig, IoStrategy, RunReport};
use dualpar_core::{ghost_walk, plan_prefetch, plan_writeback, DualParConfig, GhostRun};
use dualpar_mpiio::{plan_strided, IoKind, Op, ProcessScript, ProgramScript};
use dualpar_pfs::{FileId, FileRegion};
use dualpar_sim::{FxHashSet, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Work counts of the replays; their times are the spans they recorded.
#[derive(Default)]
pub struct Counts {
    /// `GlobalCache` method calls made.
    pub cache_calls: u64,
    /// Bytes of the covers `plan_strided` returned, and of their holes.
    pub sieve_cover_bytes: u64,
    pub sieve_hole_bytes: u64,
}

/// Replay every program of a finished run. Data-driven replays cover the
/// DualPar programs that ran at least one phase; the sieve replay covers
/// the programs that can issue through the vanilla path.
pub fn run(
    programs: &[(ProgramScript, IoStrategy)],
    report: &RunReport,
    cfg: &ClusterConfig,
    spans: &mut Spans,
) -> Counts {
    let mut counts = Counts::default();
    let mut cache = GlobalCache::new(CacheConfig {
        chunk_size: cfg.stripe_size,
        num_nodes: cfg.num_compute_nodes,
        idle_ttl: SimDuration::from_secs(30),
        node_capacity: u64::MAX,
    });
    for (prog, ((script, strategy), rep)) in programs.iter().zip(&report.programs).enumerate() {
        if strategy.is_dualpar() && rep.phases > 0 {
            let parent = spans.open("replay.data_driven", None);
            data_driven(
                prog,
                script,
                &cfg.dualpar,
                &mut cache,
                spans,
                parent,
                &mut counts,
            );
            spans.close(parent);
        }
        if matches!(strategy, IoStrategy::Vanilla | IoStrategy::DualPar) {
            let start = Instant::now();
            for rank in &script.ranks {
                sieve(rank, cfg, &mut counts);
            }
            spans.record("mpiio.plan_strided", None, start);
        }
    }
    counts
}

/// `plan_strided` over a rank's read calls, as the vanilla path plans them.
fn sieve(rank: &ProcessScript, cfg: &ClusterConfig, counts: &mut Counts) {
    for op in &rank.ops {
        if let Op::Io(call) = op {
            if call.kind == IoKind::Read {
                for io in black_box(plan_strided(call.file, &call.regions, &cfg.sieve)) {
                    counts.sieve_cover_bytes += io.cover.len;
                    counts.sieve_hole_bytes += io.hole_bytes();
                }
            }
        }
    }
}

/// One program in the data-driven mode, phase after phase. Each phase
/// makes the engine's calls in the engine's order:
///
/// 1. every rank's ghost pre-executes from its position until the quota
///    fills (`ghost_walk`, core);
/// 2. the phase batch ends each owner's prefetch epoch, drains the dirty
///    data and evicts the program's clean chunks (cache);
/// 3. the CRM plans the write-back and the prefetch (core);
/// 4. the prefetched regions are deposited (`put_prefetch`, cache);
/// 5. the ranks resume and run the calls the ghosts walked, one call per
///    rank in turn: reads probe with `contains` and consume with `read`;
///    writes `put_write` each region and check the owner's `usage`.
///
/// A last drain and write-back plan stand for the program's final flush.
fn data_driven(
    prog: usize,
    script: &ProgramScript,
    dp: &DualParConfig,
    cache: &mut GlobalCache,
    spans: &mut Spans,
    parent: SpanId,
    counts: &mut Counts,
) {
    let ranks = &script.ranks;
    let owners: Vec<OwnerId> = (0..ranks.len())
        .map(|r| OwnerId(((prog as u64) << 32) | r as u64))
        .collect();
    let files: FxHashSet<FileId> = ranks
        .iter()
        .flat_map(|r| &r.ops)
        .filter_map(|op| match op {
            Op::Io(call) => Some(call.file),
            _ => None,
        })
        .collect();
    let now = SimTime::ZERO;
    let mut pos = vec![0usize; ranks.len()];
    while pos.iter().zip(ranks).any(|(&p, r)| p < r.ops.len()) {
        let start = Instant::now();
        let walks: Vec<GhostRun> = ranks
            .iter()
            .zip(&pos)
            .map(|(r, &p)| ghost_walk(r, p, dp.cache_quota))
            .collect();
        spans.record("core.ghost_walk", Some(parent), start);

        let start = Instant::now();
        for &owner in &owners {
            black_box(cache.end_prefetch_epoch(owner));
        }
        let dirty = cache.drain_dirty();
        black_box(cache.evict_clean_for(&files));
        spans.record("cache.phase_boundary", Some(parent), start);
        counts.cache_calls += owners.len() as u64 + 2;

        let recorded: Vec<(FileId, FileRegion)> = walks
            .iter()
            .flat_map(|w| w.prefetch.iter().copied())
            .collect();
        let start = Instant::now();
        black_box(plan_writeback(dp, dirty));
        black_box(plan_prefetch(dp, recorded));
        spans.record("core.crm_plan", Some(parent), start);

        let start = Instant::now();
        for (w, &owner) in walks.iter().zip(&owners) {
            for &(file, region) in &w.prefetch {
                black_box(cache.put_prefetch(owner, file, region, now));
            }
            counts.cache_calls += w.prefetch.len() as u64;
        }
        spans.record("cache.put_prefetch", Some(parent), start);

        let start = Instant::now();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (r, walk) in walks.iter().enumerate() {
                let ops = &ranks[r].ops[..walk.end_pos];
                let Some(i) = (pos[r]..ops.len()).find(|&i| matches!(ops[i], Op::Io(_))) else {
                    pos[r] = walk.end_pos;
                    continue;
                };
                let Op::Io(call) = &ops[i] else {
                    unreachable!("found an Io op")
                };
                match call.kind {
                    IoKind::Read => {
                        for &region in &call.regions {
                            black_box(cache.contains(call.file, region));
                        }
                        for &region in &call.regions {
                            black_box(cache.read(call.file, region, now));
                        }
                        counts.cache_calls += 2 * call.regions.len() as u64;
                    }
                    IoKind::Write => {
                        for &region in &call.regions {
                            black_box(cache.put_write(owners[r], call.file, region, now));
                        }
                        black_box(cache.usage(owners[r]));
                        counts.cache_calls += call.regions.len() as u64 + 1;
                    }
                }
                pos[r] = i + 1;
                progressed = true;
            }
        }
        spans.record("cache.resume", Some(parent), start);
    }
    let start = Instant::now();
    let dirty = cache.drain_dirty();
    black_box(cache.evict_clean_for(&files));
    spans.record("cache.phase_boundary", Some(parent), start);
    counts.cache_calls += 2;
    let start = Instant::now();
    black_box(plan_writeback(dp, dirty));
    spans.record("core.crm_plan", Some(parent), start);
}
