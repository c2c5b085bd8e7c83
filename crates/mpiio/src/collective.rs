//! Two-phase collective I/O (ROMIO's generalised collective buffering).
//!
//! In phase one the participating ranks exchange their access information
//! and the *file domain* — the span from the lowest to the highest byte
//! requested in this call — is divided evenly among the aggregator ranks.
//! Each aggregator then performs one large contiguous access covering the
//! requested bytes inside its domain; in phase two the data is shuffled
//! between aggregators and the ranks that actually wanted it.
//!
//! The model captures the two costs that drive Fig. 4:
//! * aggregators issue *large sorted requests* (the benefit), but
//! * every byte not already resident on its requester crosses the network,
//!   and each (rank, aggregator) pair costs a message — so with more
//!   processes over the same per-call data, exchange overhead grows while
//!   per-aggregator request size shrinks.

use crate::access::{coalesce_with_holes, sort_and_merge, CoalescedIo};
use crate::regions::Regions;
use dualpar_pfs::{FileId, FileRegion};
use serde::{Deserialize, Serialize};

/// Work assigned to one aggregator by a collective call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AggregatorIo {
    /// The rank acting as aggregator.
    pub agg_rank: usize,
    /// The coalesced accesses it performs (sorted, within its domain).
    pub ios: Vec<CoalescedIo>,
}

/// The plan for one collective call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectivePlan {
    /// Per-aggregator work assignments.
    pub aggregators: Vec<AggregatorIo>,
    /// Bytes that must move between a requesting rank and a different
    /// aggregator rank in the shuffle phase.
    pub exchange_bytes: u64,
    /// Number of point-to-point messages in the shuffle phase.
    pub exchange_msgs: u64,
    /// Total bytes the ranks asked for.
    pub useful_bytes: u64,
}

/// Maximum hole absorbed inside an aggregator's domain when coalescing
/// (ROMIO reads the full extent between the first and last requested byte
/// of its domain; holes beyond this threshold split the access).
const MAX_HOLE: u64 = 4 << 20;

/// Plan a collective call given each rank's requested regions.
///
/// `per_rank[r]` holds rank `r`'s regions. All regions refer to `file`.
/// `num_aggregators` is ROMIO's `cb_nodes`, clamped to `1..=nprocs`.
/// Returns `None` when nobody requested anything.
pub fn plan_collective(
    file: FileId,
    per_rank: &[Regions],
    num_aggregators: usize,
) -> Option<CollectivePlan> {
    let nprocs = per_rank.len();
    let naggs = num_aggregators.clamp(1, nprocs.max(1));
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    let mut useful_bytes = 0u64;
    for regions in per_rank {
        for r in regions.iter().filter(|r| r.len > 0) {
            lo = lo.min(r.offset);
            hi = hi.max(r.end());
            useful_bytes += r.len;
        }
    }
    if useful_bytes == 0 {
        return None;
    }
    let span = hi - lo;
    let domain = span.div_ceil(naggs as u64).max(1);

    // Slice every rank's regions by aggregator domain, tracking which bytes
    // come from which requester for exchange accounting.
    let mut per_agg: Vec<Vec<(FileId, FileRegion)>> = vec![Vec::new(); naggs];
    let mut exchange_bytes = 0u64;
    let mut pair_has_traffic = vec![false; naggs * nprocs];
    for (rank, regions) in per_rank.iter().enumerate() {
        for r in regions.iter().filter(|r| r.len > 0) {
            let mut off = r.offset;
            while off < r.end() {
                let d = ((off - lo) / domain) as usize;
                let d = d.min(naggs - 1);
                let d_end = lo + (d as u64 + 1) * domain;
                let seg_end = r.end().min(d_end);
                let seg = FileRegion::new(off, seg_end - off);
                per_agg[d].push((file, seg));
                // Aggregator rank for domain d: spread over ranks.
                let agg_rank = d * nprocs / naggs;
                if agg_rank != rank {
                    exchange_bytes += seg.len;
                    pair_has_traffic[d * nprocs + rank] = true;
                }
                off = seg_end;
            }
        }
    }
    let exchange_msgs = pair_has_traffic.iter().filter(|&&b| b).count() as u64;

    let mut aggregators = Vec::new();
    for (d, items) in per_agg.into_iter().enumerate() {
        if items.is_empty() {
            continue;
        }
        let merged = sort_and_merge(items);
        let regions: Vec<FileRegion> = merged.into_iter().map(|(_, r)| r).collect();
        let ios = coalesce_with_holes(file, &regions, MAX_HOLE);
        aggregators.push(AggregatorIo {
            agg_rank: d * nprocs / naggs,
            ios,
        });
    }
    Some(CollectivePlan {
        aggregators,
        exchange_bytes,
        exchange_msgs,
        useful_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(offset: u64, len: u64) -> FileRegion {
        FileRegion::new(offset, len)
    }

    /// Plan over `naggs` aggregators from plain per-rank region lists.
    fn plan(per_rank: &[Vec<FileRegion>], naggs: usize) -> Option<CollectivePlan> {
        let per_rank: Vec<Regions> = per_rank.iter().cloned().map(Regions::from).collect();
        plan_collective(FileId(1), &per_rank, naggs)
    }

    #[test]
    fn interleaved_ranks_fuse_into_contiguous_aggregate() {
        // 4 ranks, rank i requests bytes [i*1K + 4K*j, +1K) — a perfect
        // interleave covering [0, 16K).
        let per_rank: Vec<Vec<FileRegion>> = (0..4u64)
            .map(|i| (0..4u64).map(|j| r(i * 1024 + j * 4096, 1024)).collect())
            .collect();
        let plan = plan(&per_rank, 1).unwrap();
        assert_eq!(plan.aggregators.len(), 1);
        let ios = &plan.aggregators[0].ios;
        assert_eq!(ios.len(), 1);
        assert_eq!(ios[0].cover, r(0, 16 * 1024));
        assert_eq!(ios[0].hole_bytes(), 0);
        assert_eq!(plan.useful_bytes, 16 * 1024);
        // Aggregator is rank 0; ranks 1-3's bytes are exchanged.
        assert_eq!(plan.exchange_bytes, 12 * 1024);
        assert_eq!(plan.exchange_msgs, 3);
    }

    #[test]
    fn domains_divide_span_among_aggregators() {
        let per_rank: Vec<Vec<FileRegion>> =
            (0..4u64).map(|i| vec![r(i * 1_000_000, 1000)]).collect();
        let plan = plan(&per_rank, 4).unwrap();
        assert_eq!(plan.aggregators.len(), 4);
        // Each rank's data is in a distinct quarter of the span, and the
        // aggregator of domain d is rank d — so no exchange at all.
        assert_eq!(plan.exchange_bytes, 0);
        assert_eq!(plan.exchange_msgs, 0);
    }

    #[test]
    fn region_straddling_domain_boundary_is_split() {
        // Span [0, 2000), two domains of 1000 each; one request crosses.
        let per_rank = vec![vec![r(0, 10)], vec![r(900, 200)], vec![r(1990, 10)]];
        let plan = plan(&per_rank, 2).unwrap();
        let total: u64 = plan
            .aggregators
            .iter()
            .flat_map(|a| &a.ios)
            .map(|io| io.useful_bytes())
            .sum();
        assert_eq!(total, 220);
        // Rank 1's region appears in both domains.
        assert!(plan.aggregators.len() == 2);
    }

    #[test]
    fn empty_call_returns_none() {
        assert!(plan(&[vec![], vec![]], 2).is_none());
        assert!(plan(&[vec![r(5, 0)]], 1).is_none());
    }

    #[test]
    fn more_procs_same_data_means_more_exchange_messages() {
        // The Fig. 4 effect: fix the call's data domain at 64 KB, vary the
        // number of processes sharing it.
        let msgs = |nprocs: u64| {
            // Interleaved (BTIO-like): rank i holds every nprocs-th element,
            // so each rank's data is scattered across all domains.
            let elem = 64u64;
            let elems_per_rank = 65536 / elem / nprocs;
            let per_rank: Vec<Vec<FileRegion>> = (0..nprocs)
                .map(|i| {
                    (0..elems_per_rank)
                        .map(|j| r((j * nprocs + i) * elem, elem))
                        .collect()
                })
                .collect();
            let plan = plan(&per_rank, usize::MAX).unwrap();
            plan.exchange_msgs
        };
        assert!(msgs(64) > msgs(16));
        assert!(msgs(256) > msgs(64));
    }

    #[test]
    fn overlapping_requests_counted_once_in_ios() {
        let per_rank = vec![vec![r(0, 100)], vec![r(50, 100)]];
        let plan = plan(&per_rank, 1).unwrap();
        let io = &plan.aggregators[0].ios[0];
        assert_eq!(io.cover, r(0, 150));
        assert_eq!(io.useful_bytes(), 150);
        // useful_bytes counts what ranks asked for (with double counting —
        // both ranks receive their copy).
        assert_eq!(plan.useful_bytes, 200);
    }
}
