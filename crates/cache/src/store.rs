//! The chunked global cache store.

use dualpar_pfs::{FileId, FileRegion, RangeSet, Strided};
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
    /// Quota charges against each inserting owner, sorted by owner with
    /// one entry each (usually one or a few entries; interleaved writers
    /// can share a chunk).
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
        // Owners that write a chunk in ascending order (BTIO's ranks) only
        // ever add to or push onto the back.
        match self.charges.last_mut() {
            Some((o, c)) if *o == owner => *c += added,
            Some((o, _)) if *o > owner => match self.charge_index(owner) {
                Ok(i) => self.charges[i].1 += added,
                Err(i) => self.charges.insert(i, (owner, added)),
            },
            _ => self.charges.push((owner, added)),
        }
    }

    /// Where `owner`'s charge is (`Ok`) or would go (`Err`) in `charges`.
    fn charge_index(&self, owner: OwnerId) -> Result<usize, usize> {
        self.charges.binary_search_by_key(&owner, |&(o, _)| o)
    }
}

/// The `(chunk index, span)` pieces of a strided run, one per chunk it
/// touches, in ascending offset order. A piece's span runs from the run's
/// first byte in the chunk to the chunk end or the run end, whichever is
/// first; for a single region that is exactly the region's part in the
/// chunk. Pure arithmetic on the chunk size: no allocation and no borrow of
/// the cache.
#[derive(Debug, Clone, Copy)]
struct ChunkPieces {
    chunk_size: u64,
    run: Strided,
    /// Where the search for the next piece starts.
    pos: u64,
}

impl Iterator for ChunkPieces {
    type Item = (u64, FileRegion);

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "chunk_size is non-zero (checked in new), idx * chunk_size <= start, and the piece ends past start"
    )]
    fn next(&mut self) -> Option<(u64, FileRegion)> {
        let end = self.run.end();
        if self.pos >= end {
            return None;
        }
        // A one-block run has no gaps to skip.
        let start = if self.run.len() == 1 {
            self.pos
        } else {
            let Some(start) = self.run.first_byte_from(self.pos) else {
                self.pos = end;
                return None;
            };
            start
        };
        let idx = start / self.chunk_size;
        let chunk_end = (idx * self.chunk_size).saturating_add(self.chunk_size);
        let e = end.min(chunk_end);
        self.pos = e;
        Some((idx, FileRegion::new(start, e - start)))
    }
}

/// Home node of chunk `chunk_idx`: round-robin over the compute nodes (§IV-D).
#[inline]
#[expect(
    clippy::arithmetic_side_effects,
    reason = "num_nodes is non-zero (checked in new)"
)]
fn home_node(chunk_idx: u64, num_nodes: u32) -> NodeId {
    let node = u32::try_from(chunk_idx % u64::from(num_nodes))
        .expect("residue of a u32 modulus fits in u32");
    NodeId(node)
}

/// The `(home node, bytes)` pairs of a region inserted by
/// [`GlobalCache::put_write`] or [`GlobalCache::put_prefetch`]: one per
/// chunk the region touches, in ascending offset order, for charging the
/// network transfer of each chunk's bytes to its home. Computed on the
/// fly, so it is `Copy`, allocates nothing and holds no borrow of the
/// cache.
#[derive(Debug, Clone, Copy)]
pub struct ChunkHomes {
    pieces: ChunkPieces,
    num_nodes: u32,
}

impl Iterator for ChunkHomes {
    type Item = (NodeId, u64);

    fn next(&mut self) -> Option<(NodeId, u64)> {
        // A region's piece holds nothing but its bytes.
        let (idx, span) = self.pieces.next()?;
        Some((home_node(idx, self.num_nodes), span.len))
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
            == self.consumed
                + self.overwritten
                + self.evicted
                + self.misprefetched
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
    pub fn home_of(&self, _file: FileId, chunk_idx: u64) -> NodeId {
        home_node(chunk_idx, self.cfg.num_nodes)
    }

    /// The per-chunk pieces of `run` (none for an empty run).
    fn pieces(&self, run: Strided) -> ChunkPieces {
        ChunkPieces {
            chunk_size: self.cfg.chunk_size,
            run,
            pos: run.start(),
        }
    }

    /// The `(home, bytes)` pairs of `region`'s pieces.
    fn homes(&self, region: FileRegion) -> ChunkHomes {
        ChunkHomes {
            pieces: self.pieces(Strided::one(region)),
            num_nodes: self.cfg.num_nodes,
        }
    }

    #[expect(
        clippy::arithmetic_side_effects,
        reason = "an owner's usage sums the bytes it inserted"
    )]
    fn charge_usage(&mut self, owner: OwnerId, added: u64) {
        if added == 0 {
            return;
        }
        *self.usage.entry(owner).or_insert(0) += added;
    }

    /// Insert prefetched data for `owner`. Returns the `(home, bytes)` pair
    /// of every chunk piece of `region`, for network-cost charging of the
    /// insertion. The owner is charged only for bytes not already present.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sums of bytes newly covered by insert are bounded by the request length; the ledger and stats sum request bytes"
    )]
    pub fn put_prefetch(
        &mut self,
        owner: OwnerId,
        file: FileId,
        region: FileRegion,
        now: SimTime,
    ) -> ChunkHomes {
        let mut added = 0u64;
        let mut pf_added = 0u64;
        for (idx, sub) in self.pieces(Strided::one(region)) {
            let chunk = self.chunks.entry((file, idx)).or_default();
            let new = chunk.present.insert(sub.offset, sub.len);
            pf_added += chunk.prefetched_unused.insert(sub.offset, sub.len);
            chunk.last_ref = now;
            chunk.charge(owner, new);
            added += new;
        }
        self.charge_usage(owner, added);
        self.ledger.inserted += pf_added;
        self.ledger.unused_now = self.ledger.unused_now.saturating_add(pf_added);
        dualpar_sim::strict_assert!(self.ledger.balanced(), "ledger after put_prefetch");
        self.stats.bytes_prefetched += region.len;
        *self.epoch_prefetched.entry(owner).or_insert(0) += region.len;
        let homes = self.homes(region);
        for (home, _) in homes {
            self.enforce_node_capacity(home);
        }
        homes
    }

    /// Buffer a write of one region for `owner`: a one-block
    /// [`GlobalCache::put_write_strided`] that returns its homes as an
    /// iterator instead of appending them.
    pub fn put_write(
        &mut self,
        owner: OwnerId,
        file: FileId,
        region: FileRegion,
        now: SimTime,
    ) -> ChunkHomes {
        self.write_run(owner, file, Strided::one(region), now, |_, _| {});
        self.homes(region)
    }

    /// Buffer a write of every block of `run` for `owner` (data-driven mode
    /// write path). Appends to `homes` the `(home, bytes)` pair of every
    /// chunk the run touches, in ascending offset order, for network-cost
    /// charging of the write. The owner is charged only for bytes not
    /// already present; prefetched bytes it overwrites become live data.
    ///
    /// Each touched chunk gets one map lookup, one clip of the run to the
    /// chunk, one strided merge per byte set and one owner charge, however
    /// many blocks land in it. The result — cached bytes, deltas, charges,
    /// ledger, stats and the per-node byte totals of the appended homes —
    /// is exactly that of writing the blocks one at a time. An unbounded
    /// cache never evicts, so that holds by construction; a bounded one
    /// writes block by block (appending each block's homes) and enforces
    /// its capacity after every block, as separate writes would, because
    /// an eviction between two blocks can drop a clean chunk that a later
    /// block writes.
    pub fn put_write_strided(
        &mut self,
        owner: OwnerId,
        file: FileId,
        run: Strided,
        now: SimTime,
        homes: &mut Vec<(NodeId, u64)>,
    ) {
        let mut home = |node, bytes| homes.push((node, bytes));
        if self.cfg.node_capacity != u64::MAX && run.len() > 1 {
            for block in run.iter() {
                self.write_run(owner, file, Strided::one(block), now, &mut home);
            }
        } else {
            self.write_run(owner, file, run, now, home);
        }
    }

    /// Insert `run` into its chunks, passing each chunk's home and the
    /// run's bytes in it to `home`, then enforce each touched home's
    /// capacity.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sums of bytes newly covered by insert or dropped by remove are bounded by the run's bytes; stats sum request bytes"
    )]
    fn write_run(
        &mut self,
        owner: OwnerId,
        file: FileId,
        run: Strided,
        now: SimTime,
        mut home: impl FnMut(NodeId, u64),
    ) {
        let mut added = 0u64;
        let mut dirty_added = 0u64;
        let mut overwritten = 0u64;
        for (idx, span) in self.pieces(run) {
            let chunk = self.chunks.entry((file, idx)).or_default();
            // Written bytes are live data, not speculative. A one-block
            // run's piece is the block's part in the chunk, so it takes the
            // plain range ops and skips setting up a strided merge. A longer
            // run is clipped to the chunk once, and all three byte sets and
            // the home's byte count read that one clip.
            let (new, dirty, unspeculated, bytes) = if run.len() == 1 {
                (
                    chunk.present.insert(span.offset, span.len),
                    chunk.dirty.insert(span.offset, span.len),
                    chunk.prefetched_unused.remove(span.offset, span.len),
                    span.len,
                )
            } else {
                let blocks = run.clipped(span);
                let bytes = blocks.bytes();
                (
                    chunk.present.insert_strided(blocks.clone()),
                    chunk.dirty.insert_strided(blocks.clone()),
                    chunk.prefetched_unused.remove_strided(blocks),
                    bytes,
                )
            };
            home(home_node(idx, self.cfg.num_nodes), bytes);
            dirty_added += dirty;
            overwritten += unspeculated;
            chunk.last_ref = now;
            chunk.charge(owner, new);
            added += new;
        }
        self.charge_usage(owner, added);
        self.dirty_now = self.dirty_now.saturating_add(dirty_added);
        self.ledger_remove(overwritten, |l| &mut l.overwritten);
        dualpar_sim::strict_assert!(self.ledger.balanced(), "ledger after put_write");
        self.stats.bytes_written += run.bytes();
        self.stats.dirty_hwm = self.stats.dirty_hwm.max(self.dirty_now);
        if self.cfg.node_capacity != u64::MAX {
            for (idx, _) in self.pieces(run) {
                self.enforce_node_capacity(home_node(idx, self.cfg.num_nodes));
            }
        }
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
        reason = "sums of bytes found or removed are bounded by the request length"
    )]
    pub fn read(&mut self, file: FileId, region: FileRegion, now: SimTime) -> ReadResult {
        self.stats.read_probes += 1;
        let mut found = 0u64;
        let mut consumed = 0u64;
        let mut homes = Vec::new();
        for (idx, sub) in self.pieces(Strided::one(region)) {
            if let Some(chunk) = self.chunks.get_mut(&(file, idx)) {
                let n = chunk.present.intersect_len(sub.offset, sub.len);
                if n > 0 {
                    found += n;
                    consumed += chunk.prefetched_unused.remove(sub.offset, sub.len);
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
        self.pieces(Strided::one(region)).all(|(idx, sub)| {
            self.chunks
                .get(&(file, idx))
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
        // With no unused prefetched bytes anywhere, the scan could only
        // find 0 and clear nothing; the strict rescan below still checks.
        if self.ledger.unused_now > 0 {
            for chunk in self.chunks.values_mut() {
                if chunk.charge_index(owner).is_ok() {
                    unused += chunk.prefetched_unused.covered();
                    chunk.prefetched_unused.clear();
                }
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
    fn consumed_epoch_skips_scan_and_stays_balanced() {
        let mut c = cache(2);
        let ow = OwnerId(1);
        let region = FileRegion::new(CHUNK / 2, 2 * CHUNK);
        c.put_prefetch(ow, f(1), region, SimTime::ZERO);
        c.put_prefetch(OwnerId(2), f(2), FileRegion::new(0, 512), SimTime::ZERO);
        c.read(f(1), region, SimTime::ZERO);
        c.read(f(2), FileRegion::new(0, 512), SimTime::ZERO);
        assert_eq!(c.prefetch_ledger().unused_now, 0);
        assert_eq!(c.end_prefetch_epoch(ow), Some(0.0));
        let l = c.prefetch_ledger();
        assert_eq!(l.inserted, 2 * CHUNK + 512);
        assert_eq!(l.consumed, l.inserted);
        assert_eq!(l.misprefetched, 0);
        c.assert_conservation();
    }

    #[test]
    fn put_returns_chunk_homes_in_offset_order() {
        let mut c = cache(3);
        let region = FileRegion::new(CHUNK - 100, 2 * CHUNK);
        let want = vec![
            (NodeId(0), 100),
            (NodeId(1), CHUNK),
            (NodeId(2), CHUNK - 100),
        ];
        let homes = c.put_write(OwnerId(1), f(1), region, SimTime::ZERO);
        assert_eq!(homes.collect::<Vec<_>>(), want);
        let homes = c.put_prefetch(OwnerId(1), f(1), region, SimTime::ZERO);
        assert_eq!(homes.collect::<Vec<_>>(), want);
        let empty = c.put_write(OwnerId(1), f(1), FileRegion::new(0, 0), SimTime::ZERO);
        assert_eq!(empty.count(), 0);
        // Both calls covered the same bytes: only the first is charged.
        assert_eq!(c.usage(OwnerId(1)), 2 * CHUNK);
    }

    #[test]
    fn idle_eviction_frees_clean_chunks_only() {
        let mut c = cache(1);
        c.put_prefetch(OwnerId(1), f(1), FileRegion::new(0, 1000), SimTime::ZERO);
        c.put_write(OwnerId(1), f(2), FileRegion::new(0, 1000), SimTime::ZERO);
        let evicted = c.evict_idle(SimTime::from_secs(60));
        assert_eq!(evicted, 1000); // only the clean chunk
        assert!(
            !c.read(f(1), FileRegion::new(0, 1000), SimTime::from_secs(60))
                .hit
        );
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
        assert!(
            !c.read(f(1), FileRegion::new(0, CHUNK), SimTime::from_secs(9))
                .hit
        );
        assert!(
            c.read(
                f(1),
                FileRegion::new(2 * CHUNK, CHUNK),
                SimTime::from_secs(9)
            )
            .hit
        );
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
        c.put_write(
            OwnerId(1),
            f(1),
            FileRegion::new(CHUNK, CHUNK),
            SimTime::from_secs(1),
        );
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
    fn owner_charges_stay_sorted_and_unique() {
        let shuffled = [5u64, 2, 7, 0, 3, 6, 1, 4];
        let orders: [Vec<u64>; 3] = [(0..8).rev().collect(), (0..8).collect(), shuffled.to_vec()];
        for order in orders {
            let mut c = cache(1);
            let mut homes = Vec::new();
            // Each owner writes its own 16-byte cells twice over: a plain
            // write, then a strided run that repeats it and adds more cells.
            for pass in 0..2u64 {
                for &o in &order {
                    let base = o * 16;
                    if pass == 0 {
                        c.put_write(OwnerId(o), f(1), FileRegion::new(base, 16), SimTime::ZERO);
                    } else {
                        let run = Strided::new(base, 16, 128, 4);
                        c.put_write_strided(OwnerId(o), f(1), run, SimTime::ZERO, &mut homes);
                    }
                }
            }
            let charges = &c.chunks[&(f(1), 0)].charges;
            let want: Vec<(OwnerId, u64)> = (0..8).map(|o| (OwnerId(o), 64)).collect();
            assert_eq!(charges, &want, "order {order:?}");
            assert!((0..8).all(|o| c.usage(OwnerId(o)) == 64));
            // A charger in the middle of the list finds its unused
            // prefetch in the shared chunk at its epoch end.
            c.put_prefetch(OwnerId(5), f(1), FileRegion::new(1024, 64), SimTime::ZERO);
            assert_eq!(c.end_prefetch_epoch(OwnerId(5)), Some(1.0));
            assert_eq!(c.usage(OwnerId(5)), 128);
            c.drain_dirty();
            c.evict_clean_for(&[f(1)].into_iter().collect());
            assert!(
                (0..8).all(|o| c.usage(OwnerId(o)) == 0),
                "usage left after eviction, order {order:?}"
            );
        }
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
