//! The chunked global cache store.

use dualpar_pfs::{FileId, FileRegion, RangeSet};
use dualpar_sim::{FxHashMap, FxHashSet, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A compute node in the cluster (cache homes live on compute nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// A cache-accounting identity — one per MPI process in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OwnerId(pub u64);

/// Cache geometry and policy knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Chunk size — set to the PVFS2 stripe unit (64 KB) so one chunk maps
    /// to one data server (§IV-D).
    pub chunk_size: u64,
    /// Number of compute nodes the cache is distributed over.
    pub num_nodes: u32,
    /// A chunk unused for this long is evictable.
    pub idle_ttl: SimDuration,
    /// Memory available for cache chunks on each compute node; inserting
    /// past it evicts that node's least-recently-used clean chunks
    /// (Memcached's LRU under memory pressure).
    pub node_capacity: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            chunk_size: 64 * 1024,
            num_nodes: 1,
            idle_ttl: SimDuration::from_secs(30),
            node_capacity: u64::MAX,
        }
    }
}

#[derive(Debug, Default)]
struct Chunk {
    /// Byte ranges (absolute file offsets) present in the cache.
    present: RangeSet,
    /// Dirty (buffered-write) ranges awaiting write-back.
    dirty: RangeSet,
    /// Prefetched ranges not yet consumed by a normal read.
    prefetched_unused: RangeSet,
    last_ref: SimTime,
    /// Quota charges against each inserting owner (usually one or a few
    /// entries; interleaved writers can share a chunk).
    charges: Vec<(OwnerId, u64)>,
}

impl Chunk {
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "a chunk's quota charges sum the bytes inserted into it"
    )]
    fn charge(&mut self, owner: OwnerId, added: u64) {
        if added == 0 {
            return;
        }
        match self.charges.iter_mut().find(|(o, _)| *o == owner) {
            Some((_, c)) => *c += added,
            None => self.charges.push((owner, added)),
        }
    }

    /// Owners whose prefetched data this chunk may hold.
    fn charged_owners(&self) -> impl Iterator<Item = OwnerId> + '_ {
        self.charges.iter().map(|&(o, _)| o)
    }
}

/// Result of a cache read probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// True iff every requested byte was present.
    pub hit: bool,
    /// Bytes of the request found in the cache.
    pub bytes_found: u64,
    /// `(home node, bytes)` touched — the caller charges network transfers
    /// for remote homes.
    pub homes: Vec<(NodeId, u64)>,
}

/// Aggregate counters, exposed for tests and the experiment harnesses.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct CacheStats {
    /// Read probes issued.
    pub read_probes: u64,
    /// Probes that fully hit.
    pub read_hits: u64,
    /// Bytes inserted by prefetching.
    pub bytes_prefetched: u64,
    /// Bytes inserted by buffered writes.
    pub bytes_written: u64,
    /// Bytes removed by any eviction path.
    pub bytes_evicted: u64,
    /// High-water mark of buffered dirty bytes (peak write-back backlog).
    pub dirty_hwm: u64,
}

/// Exact byte ledger of speculative (prefetched) data, maintained as a
/// delta on every mutation of the chunks' `prefetched_unused` coverage.
/// Unlike [`CacheStats`] (which counts request bytes and can double-count
/// overlapping inserts), the ledger is conservation-exact:
///
/// ```text
/// inserted == consumed + overwritten + evicted + misprefetched + unused_now
/// ```
///
/// The trace auditor (`dualpar-audit`) checks this identity on the
/// `cache/conservation` trace event the engine emits at end of run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PrefetchLedger {
    /// New speculative bytes added by `put_prefetch` (overlaps excluded).
    pub inserted: u64,
    /// Speculative bytes consumed by a normal read.
    pub consumed: u64,
    /// Speculative bytes overwritten by a buffered write (live data now).
    pub overwritten: u64,
    /// Speculative bytes dropped by any eviction/invalidation path.
    pub evicted: u64,
    /// Speculative bytes written off as mis-prefetched at epoch ends.
    pub misprefetched: u64,
    /// Speculative bytes still sitting unused in the cache.
    pub unused_now: u64,
}

impl PrefetchLedger {
    /// Does the conservation identity hold?
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "ledger sums are bounded by bytes that passed through a finite cache, and saturating would hide a real imbalance from the conservation check"
    )]
    pub fn balanced(&self) -> bool {
        self.inserted
            == self.consumed + self.overwritten + self.evicted + self.misprefetched
                + self.unused_now
    }
}

/// The distributed cache (metadata model).
pub struct GlobalCache {
    cfg: CacheConfig,
    chunks: FxHashMap<(FileId, u64), Chunk>,
    /// Bytes charged per owner.
    usage: FxHashMap<OwnerId, u64>,
    /// Bytes prefetched per owner in the current epoch (for the
    /// mis-prefetch ratio).
    epoch_prefetched: FxHashMap<OwnerId, u64>,
    stats: CacheStats,
    /// Conservation-exact accounting of prefetched bytes.
    ledger: PrefetchLedger,
    /// Incremental mirror of [`GlobalCache::dirty_bytes`] — dirty data only
    /// changes in `put_write` and `drain_dirty` (evictions skip dirty
    /// chunks), so a running total avoids the O(chunks) scan per update.
    dirty_now: u64,
}

impl GlobalCache {
    /// Build an empty cache.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.chunk_size > 0 && cfg.num_nodes > 0);
        GlobalCache {
            cfg,
            chunks: FxHashMap::default(),
            usage: FxHashMap::default(),
            epoch_prefetched: FxHashMap::default(),
            stats: CacheStats::default(),
            ledger: PrefetchLedger::default(),
            dirty_now: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The conservation-exact prefetched-byte ledger.
    pub fn prefetch_ledger(&self) -> PrefetchLedger {
        self.ledger
    }

    /// Recount the speculative bytes actually present in the chunks.
    fn scan_unused(&self) -> u64 {
        self.chunks
            .values()
            .map(|c| c.prefetched_unused.covered())
            .sum()
    }

    /// Panic unless the ledger balances *and* its incremental `unused_now`
    /// matches a full rescan of the chunks. O(chunks) — used by property
    /// tests and the strict-invariant checks at phase boundaries.
    pub fn assert_conservation(&self) {
        assert!(
            self.ledger.balanced(),
            "prefetch ledger out of balance: {:?}",
            self.ledger
        );
        assert_eq!(
            self.ledger.unused_now,
            self.scan_unused(),
            "prefetch ledger unused_now diverged from chunk contents"
        );
    }

    /// Drop `removed` speculative bytes into the given ledger bucket.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "ledger sums are bounded by bytes that passed through a finite cache, and saturating would hide a real imbalance from the conservation check"
    )]
    fn ledger_remove(&mut self, removed: u64, bucket: fn(&mut PrefetchLedger) -> &mut u64) {
        if removed == 0 {
            return;
        }
        dualpar_sim::strict_assert!(
            self.ledger.unused_now >= removed,
            "prefetch ledger underflow: removing {removed} of {}",
            self.ledger.unused_now
        );
        self.ledger.unused_now = self.ledger.unused_now.saturating_sub(removed);
        *bucket(&mut self.ledger) += removed;
    }

    /// Home node of a chunk: round-robin by chunk index (§IV-D).
    #[inline]
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "num_nodes is non-zero (checked in new)"
    )]
    pub fn home_of(&self, _file: FileId, chunk_idx: u64) -> NodeId {
        let node = u32::try_from(chunk_idx % u64::from(self.cfg.num_nodes))
            .expect("residue of a u32 modulus fits in u32");
        NodeId(node)
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "callers pass non-empty regions, and chunk_size is non-zero (checked in new)"
    )]
    fn chunk_range(&self, region: FileRegion) -> (u64, u64) {
        let first = region.offset / self.cfg.chunk_size;
        let last = (region.end() - 1) / self.cfg.chunk_size;
        (first, last)
    }

    /// Iterate the (chunk_idx, sub-region) decomposition of `region`.
    #[expect(
        clippy::arithmetic_side_effects,
        clippy::cast_possible_truncation,
        reason = "chunk bounds are clipped to the region, whose chunk count fits in memory"
    )]
    fn per_chunk(&self, region: FileRegion) -> Vec<(u64, FileRegion)> {
        if region.len == 0 {
            return Vec::new();
        }
        let (first, last) = self.chunk_range(region);
        let mut out = Vec::with_capacity((last - first + 1) as usize);
        for idx in first..=last {
            let cs = idx * self.cfg.chunk_size;
            let ce = cs + self.cfg.chunk_size;
            let s = region.offset.max(cs);
            let e = region.end().min(ce);
            out.push((idx, FileRegion::new(s, e - s)));
        }
        out
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "an owner's usage sums the bytes it inserted"
    )]
    fn charge(&mut self, chunk: &mut Chunk, owner: OwnerId, added: u64) {
        if added == 0 {
            return;
        }
        chunk.charge(owner, added);
        *self.usage.entry(owner).or_insert(0) += added;
    }

    /// Insert prefetched data for `owner`. Returns `(home, bytes)` pairs for
    /// network-cost charging of the insertion.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "insert only grows coverage; the ledger and stats sum request bytes"
    )]
    pub fn put_prefetch(
        &mut self,
        owner: OwnerId,
        file: FileId,
        region: FileRegion,
        now: SimTime,
    ) -> Vec<(NodeId, u64)> {
        let mut homes = Vec::new();
        for (idx, sub) in self.per_chunk(region) {
            let home = self.home_of(file, idx);
            let mut chunk = self.chunks.remove(&(file, idx)).unwrap_or_default();
            let before = chunk.present.covered();
            let pf_before = chunk.prefetched_unused.covered();
            chunk.present.insert(sub.offset, sub.len);
            chunk.prefetched_unused.insert(sub.offset, sub.len);
            chunk.last_ref = now;
            let added = chunk.present.covered() - before;
            let pf_added = chunk.prefetched_unused.covered() - pf_before;
            self.ledger.inserted += pf_added;
            self.ledger.unused_now = self.ledger.unused_now.saturating_add(pf_added);
            self.charge(&mut chunk, owner, added);
            self.chunks.insert((file, idx), chunk);
            homes.push((home, sub.len));
        }
        dualpar_sim::strict_assert!(self.ledger.balanced(), "ledger after put_prefetch");
        self.stats.bytes_prefetched += region.len;
        *self.epoch_prefetched.entry(owner).or_insert(0) += region.len;
        for &(home, _) in &homes {
            self.enforce_node_capacity(home);
        }
        homes
    }

    /// Buffer a write for `owner` (data-driven mode write path).
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "insert only grows coverage and remove only shrinks it; stats sum request bytes"
    )]
    pub fn put_write(
        &mut self,
        owner: OwnerId,
        file: FileId,
        region: FileRegion,
        now: SimTime,
    ) -> Vec<(NodeId, u64)> {
        let mut homes = Vec::new();
        let mut overwritten = 0u64;
        for (idx, sub) in self.per_chunk(region) {
            let home = self.home_of(file, idx);
            let mut chunk = self.chunks.remove(&(file, idx)).unwrap_or_default();
            let before = chunk.present.covered();
            let dirty_before = chunk.dirty.covered();
            let pf_before = chunk.prefetched_unused.covered();
            chunk.present.insert(sub.offset, sub.len);
            chunk.dirty.insert(sub.offset, sub.len);
            self.dirty_now = self.dirty_now.saturating_add(chunk.dirty.covered() - dirty_before);
            // Written bytes are live data, not speculative.
            chunk.prefetched_unused.remove(sub.offset, sub.len);
            overwritten += pf_before - chunk.prefetched_unused.covered();
            chunk.last_ref = now;
            let added = chunk.present.covered() - before;
            self.charge(&mut chunk, owner, added);
            self.chunks.insert((file, idx), chunk);
            homes.push((home, sub.len));
        }
        self.ledger_remove(overwritten, |l| &mut l.overwritten);
        dualpar_sim::strict_assert!(self.ledger.balanced(), "ledger after put_write");
        self.stats.bytes_written += region.len;
        self.stats.dirty_hwm = self.stats.dirty_hwm.max(self.dirty_now);
        for &(home, _) in &homes {
            self.enforce_node_capacity(home);
        }
        homes
    }

    /// Bytes currently cached on `node`.
    pub fn node_bytes(&self, node: NodeId) -> u64 {
        self.chunks
            .iter()
            .filter(|(&(f, idx), _)| self.home_of(f, idx) == node)
            .map(|(_, c)| c.present.covered())
            .sum()
    }

    /// Evict the node's least-recently-used *clean* chunks until it fits
    /// within `node_capacity`. Dirty chunks are pinned until write-back.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "eviction stats sum bytes that were cached"
    )]
    fn enforce_node_capacity(&mut self, node: NodeId) {
        if self.cfg.node_capacity == u64::MAX {
            return;
        }
        let mut used = self.node_bytes(node);
        if used <= self.cfg.node_capacity {
            return;
        }
        // Collect this node's clean chunks oldest-first.
        let mut victims: Vec<((FileId, u64), SimTime, u64)> = self
            .chunks
            .iter()
            .filter(|(&(f, idx), c)| self.home_of(f, idx) == node && c.dirty.is_empty())
            .map(|(&k, c)| (k, c.last_ref, c.present.covered()))
            .collect();
        victims.sort_by_key(|&(k, t, _)| (t, k));
        for (key, _, bytes) in victims {
            if used <= self.cfg.node_capacity {
                break;
            }
            if let Some(chunk) = self.chunks.remove(&key) {
                self.ledger_remove(chunk.prefetched_unused.covered(), |l| &mut l.evicted);
                for (ow, charged) in chunk.charges {
                    if let Some(u) = self.usage.get_mut(&ow) {
                        *u = u.saturating_sub(charged);
                    }
                }
                self.stats.bytes_evicted += bytes;
                used = used.saturating_sub(bytes);
            }
        }
        dualpar_sim::strict_assert_eq!(
            self.ledger.unused_now,
            self.scan_unused(),
            "ledger unused_now after enforce_node_capacity"
        );
    }

    /// Probe (and consume) a read. Full hits mark the bytes as used and
    /// refresh the time tag.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "remove only shrinks coverage; sums are bounded by the request length"
    )]
    pub fn read(&mut self, file: FileId, region: FileRegion, now: SimTime) -> ReadResult {
        self.stats.read_probes += 1;
        let mut found = 0u64;
        let mut consumed = 0u64;
        let mut homes = Vec::new();
        for (idx, sub) in self.per_chunk(region) {
            if let Some(chunk) = self.chunks.get_mut(&(file, idx)) {
                let n = chunk.present.intersect_len(sub.offset, sub.len);
                if n > 0 {
                    found += n;
                    let pf_before = chunk.prefetched_unused.covered();
                    chunk.prefetched_unused.remove(sub.offset, sub.len);
                    consumed += pf_before - chunk.prefetched_unused.covered();
                    chunk.last_ref = now;
                    homes.push((self.home_of(file, idx), n));
                }
            }
        }
        self.ledger_remove(consumed, |l| &mut l.consumed);
        let hit = found == region.len && region.len > 0;
        if hit {
            self.stats.read_hits += 1;
        }
        ReadResult {
            hit,
            bytes_found: found,
            homes,
        }
    }

    /// Non-consuming probe: is every byte of `region` present? Does not
    /// touch reference times or prefetch-usage markers.
    pub fn contains(&self, file: FileId, region: FileRegion) -> bool {
        if region.len == 0 {
            return true;
        }
        self.per_chunk(region).iter().all(|(idx, sub)| {
            self.chunks
                .get(&(file, *idx))
                .is_some_and(|c| c.present.contains_range(sub.offset, sub.len))
        })
    }

    /// Evict every *clean* chunk of the given files regardless of idle
    /// time, releasing the owners' quota. Used by DualPar at phase
    /// boundaries: the previous phase's consumed prefetch data and
    /// written-back data must stop counting against the per-process quota.
    /// Returns bytes evicted. Dirty chunks are kept.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sums of bytes that were cached"
    )]
    pub fn evict_clean_for(&mut self, files: &FxHashSet<FileId>) -> u64 {
        let mut evicted = 0u64;
        let mut pf_evicted = 0u64;
        let mut freed: Vec<(OwnerId, u64)> = Vec::new();
        self.chunks.retain(|&(f, _), chunk| {
            if !files.contains(&f) || !chunk.dirty.is_empty() {
                return true;
            }
            evicted += chunk.present.covered();
            pf_evicted += chunk.prefetched_unused.covered();
            freed.extend(chunk.charges.iter().copied());
            false
        });
        self.ledger_remove(pf_evicted, |l| &mut l.evicted);
        for (ow, bytes) in freed {
            if let Some(u) = self.usage.get_mut(&ow) {
                *u = u.saturating_sub(bytes);
            }
        }
        self.stats.bytes_evicted += evicted;
        evicted
    }

    /// Collect all dirty ranges for write-back, clearing dirty state but
    /// keeping the data cached. Output is sorted by (file, offset) — the
    /// order the CRM wants anyway.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "dirty runs are non-empty, and merged runs are adjacent pieces of one file"
    )]
    pub fn drain_dirty(&mut self) -> Vec<(FileId, FileRegion)> {
        let mut out = Vec::new();
        for (&(file, _), chunk) in self.chunks.iter_mut() {
            for (s, e) in chunk.dirty.iter() {
                out.push((file, FileRegion::new(s, e - s)));
            }
            chunk.dirty.clear();
        }
        self.dirty_now = 0;
        out.sort_by_key(|&(f, r)| (f, r.offset));
        // Merge adjacent regions of the same file (chunk boundaries split
        // logically contiguous writes).
        let mut merged: Vec<(FileId, FileRegion)> = Vec::with_capacity(out.len());
        for (f, r) in out {
            if let Some(last) = merged.last_mut() {
                if last.0 == f && last.1.end() == r.offset {
                    last.1.len += r.len;
                    continue;
                }
            }
            merged.push((f, r));
        }
        merged
    }

    /// Total dirty bytes currently buffered.
    pub fn dirty_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.dirty_now,
            self.chunks.values().map(|c| c.dirty.covered()).sum::<u64>(),
            "incremental dirty counter out of sync"
        );
        self.dirty_now
    }

    /// Bytes charged to `owner`.
    pub fn usage(&self, owner: OwnerId) -> u64 {
        self.usage.get(&owner).copied().unwrap_or(0)
    }

    /// Total bytes cached across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.chunks.values().map(|c| c.present.covered()).sum()
    }

    /// End the prefetch epoch for `owner`: return the mis-prefetch ratio
    /// (unused prefetched bytes / prefetched bytes) and reset the epoch.
    /// Returns `None` if nothing was prefetched this epoch.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sums of bytes that were cached"
    )]
    pub fn end_prefetch_epoch(&mut self, owner: OwnerId) -> Option<f64> {
        let total = self.epoch_prefetched.remove(&owner)?;
        if total == 0 {
            return None;
        }
        let mut unused = 0u64;
        for chunk in self.chunks.values_mut() {
            if chunk.charged_owners().any(|o| o == owner) {
                unused += chunk.prefetched_unused.covered();
                chunk.prefetched_unused.clear();
            }
        }
        self.ledger_remove(unused, |l| &mut l.misprefetched);
        dualpar_sim::strict_assert_eq!(
            self.ledger.unused_now,
            self.scan_unused(),
            "ledger unused_now after end_prefetch_epoch"
        );
        Some((unused.min(total)) as f64 / total as f64)
    }

    /// Evict chunks idle since before `now - ttl`. Dirty chunks are never
    /// evicted (they must be written back first). Returns bytes evicted.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sums of bytes that were cached"
    )]
    pub fn evict_idle(&mut self, now: SimTime) -> u64 {
        let ttl = self.cfg.idle_ttl;
        let mut evicted = 0u64;
        let mut pf_evicted = 0u64;
        let mut freed: Vec<(OwnerId, u64)> = Vec::new();
        self.chunks.retain(|_, chunk| {
            let idle = now.since(chunk.last_ref) >= ttl;
            if idle && chunk.dirty.is_empty() {
                evicted += chunk.present.covered();
                pf_evicted += chunk.prefetched_unused.covered();
                freed.extend(chunk.charges.iter().copied());
                false
            } else {
                true
            }
        });
        self.ledger_remove(pf_evicted, |l| &mut l.evicted);
        for (ow, bytes) in freed {
            if let Some(u) = self.usage.get_mut(&ow) {
                *u = u.saturating_sub(bytes);
            }
        }
        self.stats.bytes_evicted += evicted;
        evicted
    }

    /// Drop everything cached for `file` (used on file close / test reset).
    ///
    /// # Panics
    /// Panics if the file still has dirty data — losing buffered writes is
    /// always a bug in the caller's phase logic.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sums of bytes that were cached"
    )]
    pub fn invalidate(&mut self, file: FileId) {
        let mut freed: Vec<(OwnerId, u64)> = Vec::new();
        let mut pf_evicted = 0u64;
        self.chunks.retain(|&(f, _), chunk| {
            if f != file {
                return true;
            }
            assert!(
                chunk.dirty.is_empty(),
                "invalidating {file:?} with dirty data"
            );
            pf_evicted += chunk.prefetched_unused.covered();
            freed.extend(chunk.charges.iter().copied());
            false
        });
        self.ledger_remove(pf_evicted, |l| &mut l.evicted);
        for (ow, bytes) in freed {
            if let Some(u) = self.usage.get_mut(&ow) {
                *u = u.saturating_sub(bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK: u64 = 64 * 1024;

    fn cache(nodes: u32) -> GlobalCache {
        GlobalCache::new(CacheConfig {
            chunk_size: CHUNK,
            num_nodes: nodes,
            idle_ttl: SimDuration::from_secs(10),
            node_capacity: u64::MAX,
        })
    }

    fn f(n: u32) -> FileId {
        FileId(n)
    }

    #[test]
    fn miss_then_prefetch_then_hit() {
        let mut c = cache(2);
        let region = FileRegion::new(1000, 5000);
        assert!(!c.read(f(1), region, SimTime::ZERO).hit);
        c.put_prefetch(OwnerId(1), f(1), region, SimTime::ZERO);
        let r = c.read(f(1), region, SimTime::from_millis(1));
        assert!(r.hit);
        assert_eq!(r.bytes_found, 5000);
    }

    #[test]
    fn partial_presence_is_a_miss() {
        let mut c = cache(1);
        c.put_prefetch(OwnerId(1), f(1), FileRegion::new(0, 1000), SimTime::ZERO);
        let r = c.read(f(1), FileRegion::new(0, 2000), SimTime::ZERO);
        assert!(!r.hit);
        assert_eq!(r.bytes_found, 1000);
    }

    #[test]
    fn cross_chunk_read_reports_homes_round_robin() {
        let mut c = cache(3);
        let region = FileRegion::new(0, 3 * CHUNK);
        c.put_prefetch(OwnerId(1), f(1), region, SimTime::ZERO);
        let r = c.read(f(1), region, SimTime::ZERO);
        assert!(r.hit);
        let nodes: Vec<u32> = r.homes.iter().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![0, 1, 2]);
        assert!(r.homes.iter().all(|&(_, b)| b == CHUNK));
    }

    #[test]
    fn writes_are_dirty_until_drained() {
        let mut c = cache(1);
        c.put_write(OwnerId(1), f(1), FileRegion::new(100, 50), SimTime::ZERO);
        c.put_write(OwnerId(1), f(1), FileRegion::new(150, 50), SimTime::ZERO);
        assert_eq!(c.dirty_bytes(), 100);
        let drained = c.drain_dirty();
        assert_eq!(drained, vec![(f(1), FileRegion::new(100, 100))]);
        assert_eq!(c.dirty_bytes(), 0);
        // Data still cached after write-back.
        assert!(c.read(f(1), FileRegion::new(100, 100), SimTime::ZERO).hit);
    }

    #[test]
    fn drain_merges_across_chunk_boundary() {
        let mut c = cache(4);
        let region = FileRegion::new(CHUNK - 100, 200); // straddles chunks 0/1
        c.put_write(OwnerId(1), f(1), region, SimTime::ZERO);
        let drained = c.drain_dirty();
        assert_eq!(drained, vec![(f(1), region)]);
    }

    #[test]
    fn quota_usage_tracks_inserted_bytes() {
        let mut c = cache(1);
        c.put_prefetch(OwnerId(7), f(1), FileRegion::new(0, 1000), SimTime::ZERO);
        assert_eq!(c.usage(OwnerId(7)), 1000);
        // Overlapping insert charges only new bytes.
        c.put_prefetch(OwnerId(7), f(1), FileRegion::new(500, 1000), SimTime::ZERO);
        assert_eq!(c.usage(OwnerId(7)), 1500);
    }

    #[test]
    fn misprefetch_ratio_counts_unused() {
        let mut c = cache(1);
        let ow = OwnerId(1);
        c.put_prefetch(ow, f(1), FileRegion::new(0, 1000), SimTime::ZERO);
        c.put_prefetch(ow, f(1), FileRegion::new(10_000, 1000), SimTime::ZERO);
        // Consume only the first region.
        assert!(c.read(f(1), FileRegion::new(0, 1000), SimTime::ZERO).hit);
        let ratio = c.end_prefetch_epoch(ow).unwrap();
        assert!((ratio - 0.5).abs() < 1e-9, "ratio {ratio}");
        // New epoch starts clean.
        assert!(c.end_prefetch_epoch(ow).is_none());
    }

    #[test]
    fn fully_used_prefetch_has_zero_ratio() {
        let mut c = cache(1);
        let ow = OwnerId(1);
        c.put_prefetch(ow, f(1), FileRegion::new(0, 4096), SimTime::ZERO);
        c.read(f(1), FileRegion::new(0, 4096), SimTime::ZERO);
        assert_eq!(c.end_prefetch_epoch(ow), Some(0.0));
    }

    #[test]
    fn idle_eviction_frees_clean_chunks_only() {
        let mut c = cache(1);
        c.put_prefetch(OwnerId(1), f(1), FileRegion::new(0, 1000), SimTime::ZERO);
        c.put_write(OwnerId(1), f(2), FileRegion::new(0, 1000), SimTime::ZERO);
        let evicted = c.evict_idle(SimTime::from_secs(60));
        assert_eq!(evicted, 1000); // only the clean chunk
        assert!(!c.read(f(1), FileRegion::new(0, 1000), SimTime::from_secs(60)).hit);
        assert_eq!(c.dirty_bytes(), 1000);
        assert_eq!(c.usage(OwnerId(1)), 1000);
    }

    #[test]
    fn recently_used_chunks_survive_eviction() {
        let mut c = cache(1);
        c.put_prefetch(OwnerId(1), f(1), FileRegion::new(0, 100), SimTime::ZERO);
        c.read(f(1), FileRegion::new(0, 100), SimTime::from_secs(55));
        assert_eq!(c.evict_idle(SimTime::from_secs(60)), 0);
    }

    #[test]
    #[should_panic(expected = "dirty")]
    fn invalidate_dirty_file_panics() {
        let mut c = cache(1);
        c.put_write(OwnerId(1), f(1), FileRegion::new(0, 10), SimTime::ZERO);
        c.invalidate(f(1));
    }

    #[test]
    fn invalidate_clean_file_frees_usage() {
        let mut c = cache(1);
        c.put_prefetch(OwnerId(1), f(1), FileRegion::new(0, 512), SimTime::ZERO);
        c.invalidate(f(1));
        assert_eq!(c.usage(OwnerId(1)), 0);
        assert_eq!(c.total_bytes(), 0);
    }

    #[test]
    fn node_capacity_evicts_lru_clean() {
        let mut c = GlobalCache::new(CacheConfig {
            chunk_size: CHUNK,
            num_nodes: 1,
            idle_ttl: SimDuration::from_secs(1000),
            node_capacity: 2 * CHUNK,
        });
        // Three full chunks, touched in order: the oldest must go.
        for i in 0..3u64 {
            c.put_prefetch(
                OwnerId(1),
                f(1),
                FileRegion::new(i * CHUNK, CHUNK),
                SimTime::from_secs(i),
            );
        }
        assert!(c.node_bytes(NodeId(0)) <= 2 * CHUNK);
        assert!(!c.read(f(1), FileRegion::new(0, CHUNK), SimTime::from_secs(9)).hit);
        assert!(c.read(f(1), FileRegion::new(2 * CHUNK, CHUNK), SimTime::from_secs(9)).hit);
        assert_eq!(c.usage(OwnerId(1)), 2 * CHUNK);
    }

    #[test]
    fn node_capacity_never_evicts_dirty() {
        let mut c = GlobalCache::new(CacheConfig {
            chunk_size: CHUNK,
            num_nodes: 1,
            idle_ttl: SimDuration::from_secs(1000),
            node_capacity: CHUNK,
        });
        c.put_write(OwnerId(1), f(1), FileRegion::new(0, CHUNK), SimTime::ZERO);
        c.put_write(OwnerId(1), f(1), FileRegion::new(CHUNK, CHUNK), SimTime::from_secs(1));
        // Over capacity, but both chunks are dirty: nothing may be lost.
        assert_eq!(c.dirty_bytes(), 2 * CHUNK);
        assert!(c.node_bytes(NodeId(0)) > CHUNK);
    }

    #[test]
    fn prefetch_ledger_balances_across_all_paths() {
        let mut c = cache(1);
        let ow = OwnerId(1);
        // Insert (overlap must not double-count), consume, overwrite.
        c.put_prefetch(ow, f(1), FileRegion::new(0, 1000), SimTime::ZERO);
        c.put_prefetch(ow, f(1), FileRegion::new(500, 1000), SimTime::ZERO);
        c.read(f(1), FileRegion::new(0, 300), SimTime::ZERO);
        c.put_write(ow, f(1), FileRegion::new(300, 200), SimTime::ZERO);
        let l = c.prefetch_ledger();
        assert_eq!(l.inserted, 1500);
        assert_eq!(l.consumed, 300);
        assert_eq!(l.overwritten, 200);
        assert_eq!(l.unused_now, 1000);
        c.assert_conservation();
        // Epoch end writes off what's left as mis-prefetched.
        c.end_prefetch_epoch(ow);
        let l = c.prefetch_ledger();
        assert_eq!(l.misprefetched, 1000);
        assert_eq!(l.unused_now, 0);
        c.assert_conservation();
        // Eviction of fresh speculative data lands in `evicted`.
        c.put_prefetch(ow, f(2), FileRegion::new(0, 256), SimTime::ZERO);
        c.evict_idle(SimTime::from_secs(60));
        let l = c.prefetch_ledger();
        assert_eq!(l.evicted, 256);
        assert!(l.balanced());
        c.assert_conservation();
    }

    #[test]
    fn dirty_high_water_mark_tracks_peak_backlog() {
        let mut c = cache(1);
        c.put_write(OwnerId(1), f(1), FileRegion::new(0, 300), SimTime::ZERO);
        c.put_write(OwnerId(1), f(1), FileRegion::new(1000, 200), SimTime::ZERO);
        // Overlapping re-write adds no new dirty bytes.
        c.put_write(OwnerId(1), f(1), FileRegion::new(0, 300), SimTime::ZERO);
        assert_eq!(c.dirty_bytes(), 500);
        assert_eq!(c.stats().dirty_hwm, 500);
        c.drain_dirty();
        assert_eq!(c.dirty_bytes(), 0);
        // The mark persists after drain; a smaller later burst can't lower it.
        c.put_write(OwnerId(1), f(1), FileRegion::new(0, 100), SimTime::ZERO);
        assert_eq!(c.stats().dirty_hwm, 500);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = cache(1);
        c.put_prefetch(OwnerId(1), f(1), FileRegion::new(0, 100), SimTime::ZERO);
        c.read(f(1), FileRegion::new(0, 100), SimTime::ZERO);
        c.read(f(1), FileRegion::new(500, 100), SimTime::ZERO);
        let s = c.stats();
        assert_eq!(s.read_probes, 2);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.bytes_prefetched, 100);
    }
}
