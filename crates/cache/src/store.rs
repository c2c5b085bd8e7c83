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
    /// Charge `added` bytes to `owner`. True iff this is the owner's first
    /// charge in the chunk.
    fn charge(&mut self, owner: OwnerId, added: u64) -> bool {
        if added == 0 {
            return false;
        }
        // Owners that write a chunk in ascending order (BTIO's ranks) only
        // ever add to or push onto the back.
        match self.charges.last_mut() {
            Some((o, c)) if *o == owner => *c += added,
            Some((o, _)) if *o > owner => match self.charge_index(owner) {
                Ok(i) => self.charges[i].1 += added,
                Err(i) => {
                    self.charges.insert(i, (owner, added));
                    return true;
                }
            },
            _ => {
                self.charges.push((owner, added));
                return true;
            }
        }
        false
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

/// Sort drained dirty regions by `(file, offset)` and merge adjacent
/// regions of the same file (chunk boundaries split logically contiguous
/// writes).
#[expect(
    clippy::arithmetic_side_effects,
    reason = "merged runs are adjacent pieces of one file"
)]
fn sort_and_merge(mut out: Vec<(FileId, FileRegion)>) -> Vec<(FileId, FileRegion)> {
    out.sort_by_key(|&(f, r)| (f, r.offset));
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

/// Is a read that found `found` bytes of `region` a full hit?
fn full_hit(region: FileRegion, found: u64) -> bool {
    found == region.len && region.len > 0
}

/// One file's cached chunks, by chunk index.
type FileChunks = FxHashMap<u64, Chunk>;

/// Release an evicted chunk's quota `charges` from each owner's `usage`.
fn release(usage: &mut FxHashMap<OwnerId, u64>, charges: &[(OwnerId, u64)]) {
    for (ow, bytes) in charges {
        if let Some(u) = usage.get_mut(ow) {
            *u = u.saturating_sub(*bytes);
        }
    }
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
///
/// Chunks are kept per file, so every insert, read and probe does one
/// file lookup, and the phase-boundary passes ([`GlobalCache::drain_dirty`],
/// [`GlobalCache::evict_clean_for`] and
/// [`GlobalCache::end_prefetch_epoch`]) visit only the files or chunks
/// they can change, not the whole cache.
pub struct GlobalCache {
    cfg: CacheConfig,
    /// Cached chunks by file, then by chunk index. A file's map is dropped
    /// once its last chunk is evicted, so emptied maps keep no capacity.
    chunks: FxHashMap<FileId, FileChunks>,
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
    /// The files with dirty chunks: `write_run` adds a file whenever it
    /// adds dirty bytes, and `drain_dirty`, the only path that cleans a
    /// chunk, empties it. Kept per file, not per chunk: a drain walks each
    /// dirty file's map instead of looking up each dirty chunk.
    dirty_files: FxHashSet<FileId>,
    /// Per owner, the chunks it is charged in that may hold unused
    /// prefetched bytes: every chunk that holds some is listed under each
    /// owner charged in it. A key is pushed for every charged owner when a
    /// chunk's unused bytes go from none to some (only `put_prefetch` adds
    /// them), and for one owner when it is first charged in a chunk that
    /// holds some. `end_prefetch_epoch` takes the owner's list; a key
    /// listed twice, or whose chunk is gone or holds none, adds 0 there.
    /// Every list goes once the ledger's `unused_now` is 0.
    unused_chunks: FxHashMap<OwnerId, Vec<(FileId, u64)>>,
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
            dirty_files: FxHashSet::default(),
            unused_chunks: FxHashMap::default(),
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

    /// Every cached chunk, file by file.
    fn all_chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.values().flat_map(|fc| fc.values())
    }

    /// Recount the speculative bytes actually present in the chunks.
    fn scan_unused(&self) -> u64 {
        self.all_chunks()
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
        let pieces = self.pieces(Strided::one(region));
        let file_chunks = self.chunks.entry(file).or_default();
        for (idx, sub) in pieces {
            let chunk = file_chunks.entry(idx).or_default();
            let new = chunk.present.insert(sub.offset, sub.len);
            let was_unused = !chunk.prefetched_unused.is_empty();
            let speculative = chunk.prefetched_unused.insert(sub.offset, sub.len);
            pf_added += speculative;
            chunk.last_ref = now;
            let first_charge = chunk.charge(owner, new);
            if speculative > 0 && !was_unused {
                for &(o, _) in &chunk.charges {
                    self.unused_chunks.entry(o).or_default().push((file, idx));
                }
            } else if first_charge && was_unused {
                self.unused_chunks
                    .entry(owner)
                    .or_default()
                    .push((file, idx));
            }
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
        let pieces = self.pieces(run);
        let file_chunks = self.chunks.entry(file).or_default();
        for (idx, span) in pieces {
            let chunk = file_chunks.entry(idx).or_default();
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
            if chunk.charge(owner, new) && !chunk.prefetched_unused.is_empty() {
                self.unused_chunks
                    .entry(owner)
                    .or_default()
                    .push((file, idx));
            }
            added += new;
        }
        self.charge_usage(owner, added);
        if dirty_added > 0 {
            self.dirty_files.insert(file);
        }
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
            .flat_map(|(&f, fc)| fc.iter().map(move |(&idx, c)| (f, idx, c)))
            .filter(|&(f, idx, _)| self.home_of(f, idx) == node)
            .map(|(_, _, c)| c.present.covered())
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
            .flat_map(|(&f, fc)| fc.iter().map(move |(&idx, c)| ((f, idx), c)))
            .filter(|&((f, idx), c)| self.home_of(f, idx) == node && c.dirty.is_empty())
            .map(|(k, c)| (k, c.last_ref, c.present.covered()))
            .collect();
        victims.sort_by_key(|&(k, t, _)| (t, k));
        for ((file, idx), _, bytes) in victims {
            if used <= self.cfg.node_capacity {
                break;
            }
            let Some(file_chunks) = self.chunks.get_mut(&file) else {
                continue;
            };
            if let Some(chunk) = file_chunks.remove(&idx) {
                if file_chunks.is_empty() {
                    self.chunks.remove(&file);
                }
                self.ledger_remove(chunk.prefetched_unused.covered(), |l| &mut l.evicted);
                release(&mut self.usage, &chunk.charges);
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
    /// refresh the time tag. [`GlobalCache::read_into`] without the
    /// caller's buffer.
    pub fn read(&mut self, file: FileId, region: FileRegion, now: SimTime) -> ReadResult {
        let mut homes = Vec::new();
        let bytes_found = self.read_into(file, region, now, &mut homes);
        ReadResult {
            hit: full_hit(region, bytes_found),
            bytes_found,
            homes,
        }
    }

    /// Probe (and consume) a read, appending to `homes` the `(home, bytes)`
    /// pair of every chunk that holds some of it, in ascending offset
    /// order. Returns the bytes of `region` found; the read is a hit iff
    /// that is all of a non-empty region.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sums of bytes found or removed are bounded by the request length"
    )]
    pub fn read_into(
        &mut self,
        file: FileId,
        region: FileRegion,
        now: SimTime,
        homes: &mut Vec<(NodeId, u64)>,
    ) -> u64 {
        self.stats.read_probes += 1;
        let mut found = 0u64;
        let mut consumed = 0u64;
        let pieces = self.pieces(Strided::one(region));
        if let Some(file_chunks) = self.chunks.get_mut(&file) {
            for (idx, sub) in pieces {
                if let Some(chunk) = file_chunks.get_mut(&idx) {
                    let n = chunk.present.intersect_len(sub.offset, sub.len);
                    if n > 0 {
                        found += n;
                        consumed += chunk.prefetched_unused.remove(sub.offset, sub.len);
                        chunk.last_ref = now;
                        homes.push((home_node(idx, self.cfg.num_nodes), n));
                    }
                }
            }
        }
        self.ledger_remove(consumed, |l| &mut l.consumed);
        if full_hit(region, found) {
            self.stats.read_hits += 1;
        }
        found
    }

    /// Non-consuming probe: is every byte of `region` present? Does not
    /// touch reference times or prefetch-usage markers.
    pub fn contains(&self, file: FileId, region: FileRegion) -> bool {
        let file_chunks = self.chunks.get(&file);
        self.pieces(Strided::one(region)).all(|(idx, sub)| {
            file_chunks
                .and_then(|fc| fc.get(&idx))
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
        for file in files {
            let Some(file_chunks) = self.chunks.get_mut(file) else {
                continue;
            };
            file_chunks.retain(|_, chunk| {
                if !chunk.dirty.is_empty() {
                    return true;
                }
                evicted += chunk.present.covered();
                pf_evicted += chunk.prefetched_unused.covered();
                release(&mut self.usage, &chunk.charges);
                false
            });
            if file_chunks.is_empty() {
                self.chunks.remove(file);
            }
        }
        self.ledger_remove(pf_evicted, |l| &mut l.evicted);
        self.stats.bytes_evicted += evicted;
        evicted
    }

    /// Collect all dirty ranges for write-back, clearing dirty state but
    /// keeping the data cached. Output is sorted by (file, offset) — the
    /// order the CRM wants anyway. Walks only the files that hold dirty
    /// data.
    #[expect(clippy::arithmetic_side_effects, reason = "dirty runs are non-empty")]
    pub fn drain_dirty(&mut self) -> Vec<(FileId, FileRegion)> {
        let mut out = Vec::new();
        for file in self.dirty_files.drain() {
            // Dirty chunks are never evicted, so a dirty file has its map.
            let Some(file_chunks) = self.chunks.get_mut(&file) else {
                continue;
            };
            for chunk in file_chunks.values_mut() {
                for (s, e) in chunk.dirty.iter() {
                    out.push((file, FileRegion::new(s, e - s)));
                }
                chunk.dirty.clear();
            }
        }
        self.dirty_now = 0;
        sort_and_merge(out)
    }

    /// Total dirty bytes currently buffered.
    pub fn dirty_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.dirty_now,
            self.all_chunks().map(|c| c.dirty.covered()).sum::<u64>(),
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
        self.all_chunks().map(|c| c.present.covered()).sum()
    }

    /// End the prefetch epoch for `owner`: return the mis-prefetch ratio
    /// (unused prefetched bytes / prefetched bytes) and reset the epoch.
    /// Returns `None` if nothing was prefetched this epoch. Visits only the
    /// chunks listed for `owner` as ones that may hold unused prefetched
    /// bytes.
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
        let listed = self.unused_chunks.remove(&owner).unwrap_or_default();
        // With no unused prefetched bytes anywhere, the visit could only
        // find 0 and clear nothing; the strict rescan below still checks.
        if self.ledger.unused_now > 0 {
            for (file, idx) in listed {
                let chunk = self.chunks.get_mut(&file).and_then(|fc| fc.get_mut(&idx));
                // A recreated chunk may no longer charge the owner.
                if let Some(chunk) = chunk.filter(|c| c.charge_index(owner).is_ok()) {
                    unused += chunk.prefetched_unused.covered();
                    chunk.prefetched_unused.clear();
                }
            }
        }
        self.ledger_remove(unused, |l| &mut l.misprefetched);
        if self.ledger.unused_now == 0 {
            self.unused_chunks.clear();
        }
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
        let usage = &mut self.usage;
        self.chunks.retain(|_, file_chunks| {
            file_chunks.retain(|_, chunk| {
                let idle = now.since(chunk.last_ref) >= ttl;
                if idle && chunk.dirty.is_empty() {
                    evicted += chunk.present.covered();
                    pf_evicted += chunk.prefetched_unused.covered();
                    release(usage, &chunk.charges);
                    false
                } else {
                    true
                }
            });
            !file_chunks.is_empty()
        });
        self.ledger_remove(pf_evicted, |l| &mut l.evicted);
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
        let mut pf_evicted = 0u64;
        for chunk in self.chunks.remove(&file).unwrap_or_default().values() {
            assert!(
                chunk.dirty.is_empty(),
                "invalidating {file:?} with dirty data"
            );
            pf_evicted += chunk.prefetched_unused.covered();
            release(&mut self.usage, &chunk.charges);
        }
        self.ledger_remove(pf_evicted, |l| &mut l.evicted);
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
            let charges = &c.chunks[&f(1)][&0].charges;
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
    fn a_file_map_goes_with_its_last_chunk() {
        let mut c = cache(1);
        c.put_prefetch(
            OwnerId(1),
            f(1),
            FileRegion::new(0, 3 * CHUNK),
            SimTime::ZERO,
        );
        c.put_write(OwnerId(1), f(2), FileRegion::new(0, 10), SimTime::ZERO);
        let files: FxHashSet<FileId> = [f(1), f(2)].into_iter().collect();
        assert_eq!(c.evict_clean_for(&files), 3 * CHUNK);
        assert!(
            !c.chunks.contains_key(&f(1)),
            "an emptied file keeps its map"
        );
        assert!(c.chunks.contains_key(&f(2)), "the dirty chunk must stay");
        c.drain_dirty();
        assert!(c.dirty_files.is_empty());
        c.evict_idle(SimTime::from_secs(60));
        assert!(c.chunks.is_empty());
    }

    #[test]
    fn unused_prefetch_is_listed_per_charged_owner() {
        let mut c = cache(1);
        let listed = |c: &GlobalCache, o: u64| c.unused_chunks.get(&OwnerId(o)).map_or(0, Vec::len);
        for o in 1..=3u64 {
            let region = FileRegion::new(o * CHUNK, 100);
            c.put_prefetch(OwnerId(o), f(1), region, SimTime::ZERO);
        }
        // Owner 4 writes into owner 3's chunk and so shares its unused
        // bytes; owner 1's chunk is consumed.
        c.put_write(
            OwnerId(4),
            f(1),
            FileRegion::new(3 * CHUNK + 200, 10),
            SimTime::ZERO,
        );
        c.read(f(1), FileRegion::new(CHUNK, 100), SimTime::ZERO);
        assert_eq!([1, 2, 3, 4].map(|o| listed(&c, o)), [1, 1, 1, 1]);
        // An epoch end visits only its owner's list, and takes it.
        assert_eq!(c.end_prefetch_epoch(OwnerId(2)), Some(1.0));
        assert_eq!([1, 2, 3, 4].map(|o| listed(&c, o)), [1, 0, 1, 1]);
        c.put_prefetch(OwnerId(4), f(2), FileRegion::new(0, 100), SimTime::ZERO);
        assert_eq!(
            c.end_prefetch_epoch(OwnerId(4)),
            Some(1.0),
            "owner 3's bytes count for 4"
        );
        assert_eq!(c.end_prefetch_epoch(OwnerId(3)), Some(0.0));
        // With nothing unused anywhere, every list goes.
        assert!(c.unused_chunks.is_empty());
        c.assert_conservation();
    }

    /// The phase-boundary passes as first written, each scanning every
    /// chunk of the cache. Run on a twin cache they pin the indexed passes
    /// to the same results.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sums of bytes that were cached, as in the passes they mirror"
    )]
    mod scan_twin {
        use super::super::*;

        pub(super) fn end_prefetch_epoch(c: &mut GlobalCache, owner: OwnerId) -> Option<f64> {
            let total = c.epoch_prefetched.remove(&owner)?;
            if total == 0 {
                return None;
            }
            let mut unused = 0u64;
            for chunk in c.chunks.values_mut().flat_map(|fc| fc.values_mut()) {
                if chunk.charge_index(owner).is_ok() {
                    unused += chunk.prefetched_unused.covered();
                    chunk.prefetched_unused.clear();
                }
            }
            c.ledger_remove(unused, |l| &mut l.misprefetched);
            Some((unused.min(total)) as f64 / total as f64)
        }

        pub(super) fn drain_dirty(c: &mut GlobalCache) -> Vec<(FileId, FileRegion)> {
            let mut out = Vec::new();
            for (&file, fc) in c.chunks.iter_mut() {
                for chunk in fc.values_mut() {
                    for (s, e) in chunk.dirty.iter() {
                        out.push((file, FileRegion::new(s, e - s)));
                    }
                    chunk.dirty.clear();
                }
            }
            c.dirty_now = 0;
            sort_and_merge(out)
        }

        pub(super) fn evict_clean_for(c: &mut GlobalCache, files: &FxHashSet<FileId>) -> u64 {
            let (mut evicted, mut pf_evicted) = (0u64, 0u64);
            for (file, fc) in c.chunks.iter_mut() {
                fc.retain(|_, chunk| {
                    if !files.contains(file) || !chunk.dirty.is_empty() {
                        return true;
                    }
                    evicted += chunk.present.covered();
                    pf_evicted += chunk.prefetched_unused.covered();
                    release(&mut c.usage, &chunk.charges);
                    false
                });
            }
            c.ledger_remove(pf_evicted, |l| &mut l.evicted);
            c.stats.bytes_evicted += evicted;
            evicted
        }
    }

    /// Every chunk's byte sets, time tag and charges, in key order.
    type ChunkDump = (
        FileId,
        u64,
        Vec<(u64, u64)>,
        Vec<(u64, u64)>,
        Vec<(u64, u64)>,
        SimTime,
    );

    fn dump(c: &GlobalCache) -> Vec<(ChunkDump, Vec<(OwnerId, u64)>)> {
        let mut all: Vec<_> = c
            .chunks
            .iter()
            .flat_map(|(&file, fc)| {
                fc.iter().map(move |(&idx, ch)| {
                    let sets = (
                        file,
                        idx,
                        ch.present.iter().collect(),
                        ch.dirty.iter().collect(),
                        ch.prefetched_unused.iter().collect(),
                        ch.last_ref,
                    );
                    (sets, ch.charges.clone())
                })
            })
            .collect();
        all.sort_by_key(|(d, _)| (d.0, d.1));
        all
    }

    /// The indexes name every chunk that the passes must visit.
    fn indexes_cover(c: &GlobalCache) {
        for (&file, fc) in &c.chunks {
            for (&idx, ch) in fc {
                assert!(ch.dirty.is_empty() || c.dirty_files.contains(&file));
                for &(o, _) in &ch.charges {
                    let listed = c
                        .unused_chunks
                        .get(&o)
                        .is_some_and(|l| l.contains(&(file, idx)));
                    assert!(
                        ch.prefetched_unused.is_empty() || listed,
                        "chunk {idx} of {file:?} holds unused prefetch not listed for {o:?}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random operation sequences over three files and three owners on
        /// two identical caches, one running the indexed phase-boundary
        /// passes and one the scan-every-chunk twins: every pass returns
        /// the same result, and after every operation the chunks, usage,
        /// stats, ledger and dirty bytes agree.
        #[test]
        #[expect(
            clippy::arithmetic_side_effects,
            reason = "times, offsets and strides from small generated inputs"
        )]
        fn indexed_passes_match_full_scans(
            ops in proptest::collection::vec(
                (0u8..10, 0u64..3, 0u32..3, (0u64..60_000, 1u64..9_000), (1u64..400, 1u64..30)),
                1..80),
        ) {
            let cfg = CacheConfig {
                chunk_size: 4096,
                num_nodes: 3,
                idle_ttl: SimDuration::from_secs(10),
                node_capacity: u64::MAX,
            };
            let (mut idx, mut twin) = (GlobalCache::new(cfg.clone()), GlobalCache::new(cfg));
            let mut homes = Vec::new();
            for (i, &(kind, o, file, (off, len), (block, count))) in ops.iter().enumerate() {
                let (owner, file, now) = (OwnerId(o), FileId(file), SimTime::from_millis(700 * i as u64));
                let region = FileRegion::new(off, len);
                // A file set of one to three files, from the low bits of `off`.
                let files: FxHashSet<FileId> =
                    (0..3).filter(|b| (off >> b) & 1 == 1 || *b == file.0).map(FileId).collect();
                for c in [&mut idx, &mut twin] {
                    match kind {
                        0 | 1 => {
                            c.put_prefetch(owner, file, region, now);
                        }
                        2 => {
                            c.put_write(owner, file, region, now);
                        }
                        3 => {
                            let run = Strided::new(off, block, block + len % 500, count);
                            c.put_write_strided(owner, file, run, now, &mut homes);
                        }
                        4 | 5 => {
                            c.read(file, region, now);
                        }
                        _ => {}
                    }
                }
                match kind {
                    6 => assert_eq!(idx.evict_idle(now), twin.evict_idle(now)),
                    7 => assert_eq!(idx.drain_dirty(), scan_twin::drain_dirty(&mut twin)),
                    8 => assert_eq!(
                        idx.evict_clean_for(&files),
                        scan_twin::evict_clean_for(&mut twin, &files)
                    ),
                    9 => assert_eq!(
                        idx.end_prefetch_epoch(owner),
                        scan_twin::end_prefetch_epoch(&mut twin, owner)
                    ),
                    _ => {}
                }
                assert_eq!(dump(&idx), dump(&twin), "op {i}");
                for o in 0..3 {
                    assert_eq!(idx.usage(OwnerId(o)), twin.usage(OwnerId(o)));
                }
                assert_eq!(format!("{:?}", idx.stats()), format!("{:?}", twin.stats()));
                assert_eq!(idx.prefetch_ledger(), twin.prefetch_ledger());
                assert_eq!(idx.dirty_bytes(), twin.dirty_bytes());
                indexes_cover(&idx);
                idx.assert_conservation();
            }
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
