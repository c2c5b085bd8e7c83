//! Data sieving (Thakur et al., "Data Sieving and Collective I/O in
//! ROMIO"): an *independent* strided access can be served by reading the
//! single contiguous extent from its first to its last byte and copying out
//! the pieces, trading wasted transfer for far fewer requests.
//!
//! The paper's "vanilla MPI-IO" baseline issues each noncontiguous segment
//! as its own request (that is what makes BTIO's 8-byte accesses so
//! pathological), so sieving defaults to off; it is exposed for the
//! `ablation_crm` bench and for completeness of the ROMIO model.

use crate::access::CoalescedIo;
use dualpar_pfs::{FileId, FileRegion};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Data-sieving policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SieveConfig {
    /// Apply sieving at all.
    pub enabled: bool,
    /// Maximum extent read at once (ROMIO `ind_rd_buffer_size`, 4 MB
    /// default).
    pub buffer_bytes: u64,
    /// Do not sieve unless the useful fraction of the extent is at least
    /// this much (pure overhead guard; ROMIO always sieves reads, but a
    /// threshold keeps the model honest for pathological strides).
    pub min_useful_fraction: f64,
}

impl Default for SieveConfig {
    fn default() -> Self {
        SieveConfig {
            enabled: false,
            buffer_bytes: 4 << 20,
            min_useful_fraction: 0.0625, // 1/16th useful is still a win on disk
        }
    }
}

/// Plan the accesses for one independent strided call.
///
/// Input regions must be sorted and disjoint; any iterable of regions or
/// region references works (a slice, or a call's `Regions::iter()`, which
/// does not flatten a strided call). Returns the accesses to issue: either
/// sieved covering extents or the raw regions.
pub fn plan_strided<R: Borrow<FileRegion>>(
    file: FileId,
    regions: impl IntoIterator<Item = R>,
    cfg: &SieveConfig,
) -> Vec<CoalescedIo> {
    let regions = regions
        .into_iter()
        .map(|r| *r.borrow())
        .filter(|r| r.len > 0);
    let single = |r: FileRegion| CoalescedIo {
        file,
        cover: r,
        useful: vec![r],
    };
    if !cfg.enabled {
        return regions.map(single).collect();
    }
    // Greedily grow sieve windows bounded by buffer_bytes. A window of one
    // region is issued as it is.
    let mut out = Vec::new();
    let mut window: Vec<FileRegion> = Vec::new();
    let flush = |window: &mut Vec<FileRegion>, out: &mut Vec<CoalescedIo>| {
        if window.is_empty() {
            return;
        }
        let last_end = window.last().expect("window checked non-empty").end();
        let cover = FileRegion::new(window[0].offset, last_end - window[0].offset);
        let useful: u64 = window.iter().map(|r| r.len).sum();
        if window.len() >= 2 && (useful as f64) >= cfg.min_useful_fraction * cover.len as f64 {
            out.push(CoalescedIo {
                file,
                cover,
                useful: std::mem::take(window),
            });
        } else {
            out.extend(window.drain(..).map(single));
        }
    };
    for r in regions {
        debug_assert!(
            window.last().is_none_or(|w| w.end() <= r.offset),
            "unsorted regions"
        );
        let would_span = match window.first() {
            Some(first) => r.end() - first.offset,
            None => r.len,
        };
        if !window.is_empty() && would_span > cfg.buffer_bytes {
            flush(&mut window, &mut out);
        }
        window.push(r);
    }
    flush(&mut window, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(o: u64, l: u64) -> FileRegion {
        FileRegion::new(o, l)
    }

    fn on() -> SieveConfig {
        SieveConfig {
            enabled: true,
            ..SieveConfig::default()
        }
    }

    #[test]
    fn disabled_passes_regions_through() {
        let regions = vec![r(0, 8), r(1000, 8), r(2000, 8)];
        let out = plan_strided(FileId(1), &regions, &SieveConfig::default());
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|io| io.hole_bytes() == 0));
    }

    #[test]
    fn enabled_sieves_dense_stride() {
        // 16 bytes every 64: dense enough to sieve.
        let regions: Vec<FileRegion> = (0..100).map(|i| r(i * 64, 16)).collect();
        let out = plan_strided(FileId(1), &regions, &on());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cover, r(0, 99 * 64 + 16));
        assert_eq!(out[0].useful_bytes(), 1600);
    }

    #[test]
    fn sparse_stride_not_sieved() {
        // 8 bytes every 1 MB: 1/131072 useful — worse than the threshold.
        let regions: Vec<FileRegion> = (0..4).map(|i| r(i << 20, 8)).collect();
        let out = plan_strided(FileId(1), &regions, &on());
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|io| io.hole_bytes() == 0));
    }

    #[test]
    fn buffer_bound_splits_windows() {
        let cfg = SieveConfig {
            enabled: true,
            buffer_bytes: 1024,
            min_useful_fraction: 0.0,
        };
        let regions: Vec<FileRegion> = (0..10).map(|i| r(i * 512, 256)).collect();
        let out = plan_strided(FileId(1), &regions, &cfg);
        assert!(out.len() > 1);
        assert!(out.iter().all(|io| io.cover.len <= 1024));
        let useful: u64 = out.iter().map(|io| io.useful_bytes()).sum();
        assert_eq!(useful, 2560);
    }

    #[test]
    fn single_region_never_sieved() {
        let out = plan_strided(FileId(1), [r(0, 100)], &on());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].hole_bytes(), 0);
    }
}
