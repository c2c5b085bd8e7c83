//! The parallel file system proper: file table + striping + per-server
//! extent maps, with the end-to-end `file region → (server, LBN run)`
//! resolution used by every I/O path in the simulator.

use crate::alloc::{AllocConfig, ExtentAllocator};
use crate::layout::{FileId, FileRegion, ServerId, StripeLayout};
use dualpar_disk::Lbn;
use dualpar_sim::FxHashMap;
use serde::{Deserialize, Serialize};

/// A file-region fragment resolved all the way to a disk address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedIo {
    /// Data server holding this run.
    pub server: ServerId,
    /// File the run belongs to.
    pub file: FileId,
    /// The file-level byte range this run covers.
    pub file_offset: u64,
    /// Bytes of file data in this run.
    pub bytes: u64,
    /// First disk sector.
    pub lbn: Lbn,
    /// Sector span on disk.
    pub sectors: u64,
}

/// File metadata kept by the metadata server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileMeta {
    /// File identifier.
    pub id: FileId,
    /// File name (unique).
    pub name: String,
    /// File size in bytes.
    pub size: u64,
}

/// The PVFS2 analogue: one metadata table plus `num_servers` data servers'
/// allocation state. Disk devices themselves live in the cluster simulator;
/// this type owns the *mapping*.
pub struct Pvfs {
    layout: StripeLayout,
    allocators: Vec<ExtentAllocator>,
    files: FxHashMap<FileId, FileMeta>,
    by_name: FxHashMap<String, FileId>,
    next_file: u32,
}

impl Pvfs {
    /// Build a file system over `num_servers` disks of the given capacity.
    pub fn new(
        num_servers: u32,
        stripe_size: u64,
        capacity_sectors: u64,
        alloc: AllocConfig,
    ) -> Self {
        Pvfs {
            layout: StripeLayout::new(stripe_size, num_servers),
            allocators: (0..num_servers)
                .map(|_| ExtentAllocator::new(capacity_sectors, alloc.clone()))
                .collect(),
            files: FxHashMap::default(),
            by_name: FxHashMap::default(),
            next_file: 1,
        }
    }

    /// The striping function.
    pub fn layout(&self) -> StripeLayout {
        self.layout
    }

    /// Data servers in the file system.
    pub fn num_servers(&self) -> u32 {
        self.layout.num_servers
    }

    /// Create (and fully pre-allocate) a file. Pre-allocation matches the
    /// benchmarks, which write/read files of known size.
    pub fn create(&mut self, name: &str, size: u64) -> FileId {
        assert!(
            !self.by_name.contains_key(name),
            "file {name:?} already exists"
        );
        let id = FileId(self.next_file);
        self.next_file += 1;
        for s in 0..self.layout.num_servers {
            let local = self.layout.local_object_size(ServerId(s), size);
            if local > 0 {
                self.allocators[s as usize].allocate(id, local);
            }
        }
        self.files.insert(
            id,
            FileMeta {
                id,
                name: name.to_string(),
                size,
            },
        );
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look a file up by name.
    pub fn lookup(&self, name: &str) -> Option<FileId> {
        self.by_name.get(name).copied()
    }

    /// Metadata of `id`, if it exists.
    pub fn meta(&self, id: FileId) -> Option<&FileMeta> {
        self.files.get(&id)
    }

    /// Size of `id` in bytes (0 if unknown).
    pub fn size(&self, id: FileId) -> u64 {
        self.files.get(&id).map_or(0, |m| m.size)
    }

    /// Resolve a file region to per-server disk runs, in file order, and
    /// append them to `out` (runs already in `out` are left alone).
    /// Adjacent stripe pieces that are contiguous both on the same server's
    /// local object *and* on disk are merged into a single run.
    pub fn resolve(&self, file: FileId, region: FileRegion, out: &mut Vec<ResolvedIo>) {
        debug_assert!(
            region.end() <= self.size(file),
            "I/O beyond EOF: {region:?} on {file:?} (size {})",
            self.size(file)
        );
        let first = out.len();
        for piece in self.layout.split(region) {
            let alloc = &self.allocators[piece.server.0 as usize];
            let mut covered = 0u64;
            for (lbn, sectors) in alloc.translate(file, piece.local_offset, piece.len) {
                let run_bytes =
                    (sectors.saturating_mul(dualpar_disk::SECTOR_BYTES)).min(piece.len - covered);
                // Merge with the previous run if it continues it on disk.
                if let Some(last) = out[first..].last_mut() {
                    if last.server == piece.server
                        && last.lbn.saturating_add(last.sectors) == lbn
                        && last.file_offset + last.bytes == piece.file_offset + covered
                    {
                        last.sectors = last.sectors.saturating_add(sectors);
                        last.bytes += run_bytes;
                        covered += run_bytes;
                        continue;
                    }
                }
                out.push(ResolvedIo {
                    server: piece.server,
                    file,
                    file_offset: piece.file_offset + covered,
                    bytes: run_bytes,
                    lbn,
                    sectors,
                });
                covered += run_bytes;
            }
        }
    }

    /// First LBN of the file's object on `server` (for layout assertions).
    pub fn base_lbn(&self, server: ServerId, file: FileId) -> Option<Lbn> {
        self.allocators[server.0 as usize].base_lbn(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Pvfs {
        // 4 servers, 64 KB stripes, 300 GB disks, default gaps.
        Pvfs::new(4, 64 * 1024, 300 * (1 << 30) / 512, AllocConfig::default())
    }

    fn resolved(p: &Pvfs, file: FileId, region: FileRegion) -> Vec<ResolvedIo> {
        let mut out = Vec::new();
        p.resolve(file, region, &mut out);
        out
    }

    #[test]
    fn resolve_merges_fragments_contiguous_on_disk() {
        // 16 KB fragments with no gap between them: one 64 KB stripe unit
        // spans four extents but one run of disk sectors.
        let cfg = AllocConfig {
            inter_file_gap: 0,
            fragment_bytes: 16 << 10,
            fragment_gap: 0,
        };
        let mut p = Pvfs::new(4, 64 * 1024, 1 << 32, cfg);
        let f = p.create("frag", 1 << 20);
        let runs = resolved(&p, f, FileRegion::new(1000, 60_000));
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].bytes, 60_000);
        assert_eq!(runs[0].lbn, p.base_lbn(ServerId(0), f).unwrap() + 1);
        assert_eq!(runs[0].sectors, 119);
    }

    #[test]
    fn resolve_appends_without_merging_into_earlier_runs() {
        let mut p = fs();
        let f = p.create("big", 10 << 20);
        // Two back-to-back regions inside one stripe unit: resolved
        // separately they continue each other on disk, but each call's
        // runs stay its own.
        let mut out = Vec::new();
        p.resolve(f, FileRegion::new(0, 4096), &mut out);
        p.resolve(f, FileRegion::new(4096, 4096), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].file_offset, 4096);
    }

    #[test]
    fn create_and_lookup() {
        let mut p = fs();
        let f = p.create("data.bin", 1 << 20);
        assert_eq!(p.lookup("data.bin"), Some(f));
        assert_eq!(p.size(f), 1 << 20);
        assert!(p.lookup("other").is_none());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_name_panics() {
        let mut p = fs();
        p.create("x", 10);
        p.create("x", 10);
    }

    #[test]
    fn resolve_covers_all_bytes_in_order() {
        let mut p = fs();
        let f = p.create("big", 10 << 20);
        let region = FileRegion::new(100_000, 1_000_000);
        let runs = resolved(&p, f, region);
        let total: u64 = runs.iter().map(|r| r.bytes).sum();
        assert_eq!(total, region.len);
        let mut off = region.offset;
        for r in &runs {
            assert_eq!(r.file_offset, off);
            off += r.bytes;
        }
    }

    #[test]
    fn single_stripe_read_touches_one_server() {
        let mut p = fs();
        let f = p.create("big", 10 << 20);
        // Entirely within stripe unit 5 → server 1.
        let runs = resolved(&p, f, FileRegion::new(5 * 65536 + 100, 1000));
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].server, ServerId(1));
    }

    #[test]
    fn stripe_aligned_read_spreads_over_servers() {
        let mut p = fs();
        let f = p.create("big", 10 << 20);
        let runs = resolved(&p, f, FileRegion::new(0, 4 * 65536));
        let servers: Vec<u32> = runs.iter().map(|r| r.server.0).collect();
        assert_eq!(servers, vec![0, 1, 2, 3]);
    }

    #[test]
    fn file_offset_monotone_implies_lbn_monotone_per_server() {
        // The property DualPar leans on: sorting by file offset sorts the
        // per-server disk addresses too.
        let mut p = fs();
        let f = p.create("big", 64 << 20);
        let mut per_server_lbns: FxHashMap<ServerId, Vec<Lbn>> = FxHashMap::default();
        for i in 0..256u64 {
            for r in resolved(&p, f, FileRegion::new(i * 256 * 1024, 4096)) {
                per_server_lbns.entry(r.server).or_default().push(r.lbn);
            }
        }
        for (s, lbns) in per_server_lbns {
            let mut sorted = lbns.clone();
            sorted.sort_unstable();
            assert_eq!(lbns, sorted, "server {s:?} LBNs not monotone");
        }
    }

    #[test]
    fn two_files_far_apart_on_disk() {
        let mut p = fs();
        let a = p.create("a", 1 << 20);
        let b = p.create("b", 1 << 20);
        let la = p.base_lbn(ServerId(0), a).unwrap();
        let lb = p.base_lbn(ServerId(0), b).unwrap();
        assert!(lb - la > (32 << 20) / 512, "files should be far apart");
    }

    #[test]
    fn whole_stripe_row_merges_only_across_contiguous_lbns() {
        let mut p = fs();
        let f = p.create("big", 10 << 20);
        // Two consecutive units on the same server (units 0 and 4) are
        // adjacent in the local object, hence contiguous on disk — but a
        // region covering units 0..=4 visits servers 0,1,2,3,0: the final
        // piece merges with nothing because the previous run is server 3's.
        let runs = resolved(&p, f, FileRegion::new(0, 5 * 65536));
        assert_eq!(runs.len(), 5);
    }
}
