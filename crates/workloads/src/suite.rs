//! The paper's benchmark suite (§V-A), expressed as access-pattern-faithful
//! script generators. Each generator documents the sentence of the paper it
//! implements.

use crate::common::{build_program, compute, io_region};
use dualpar_mpiio::{Datatype, IoCall, IoKind, Op, ProcessScript, ProgramScript};
use dualpar_pfs::{FileId, FileRegion};
use dualpar_sim::{DetRng, SimDuration};
use serde::{Deserialize, Serialize};

/// `mpi-io-test` (PVFS2 distribution): "read or write a 2 GB file with
/// request size of 16 KB. Process p_i accesses the (i+64j)-th 16 KB segment
/// at call j — the benchmark generates a fully sequential access pattern",
/// with "a barrier routine frequently called in its execution".
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct MpiIoTest {
    /// Number of MPI processes.
    pub nprocs: usize,
    /// Total file bytes accessed (2 GB in the paper).
    pub file_size: u64,
    /// Bytes per request (16 KB in the paper).
    pub request_size: u64,
    /// Read or write run.
    pub kind: IoKind,
    /// Mark I/O calls collective (for the collective-I/O strategy).
    pub collective: bool,
    /// Insert a barrier every this many calls (1 = every call, as the
    /// benchmark does; 0 = never).
    pub barrier_every: usize,
    /// Injected computation between calls (sets the I/O ratio).
    pub compute_per_call: SimDuration,
}

impl Default for MpiIoTest {
    fn default() -> Self {
        MpiIoTest {
            nprocs: 64,
            file_size: 2 << 30,
            request_size: 16 * 1024,
            kind: IoKind::Read,
            collective: false,
            barrier_every: 1,
            compute_per_call: SimDuration::ZERO,
        }
    }
}

impl MpiIoTest {
    /// Generate the per-rank scripts against `file`.
    pub fn build(&self, file: FileId) -> ProgramScript {
        let segs = self.file_size / self.request_size;
        let calls = segs / self.nprocs as u64;
        build_program("mpi-io-test", self.nprocs, |rank| {
            let mut ops = Vec::new();
            let mut barrier = 0u64;
            for j in 0..calls {
                if self.compute_per_call > SimDuration::ZERO {
                    ops.push(compute(self.compute_per_call));
                }
                let seg = rank as u64 + self.nprocs as u64 * j;
                ops.push(io_region(
                    self.kind,
                    file,
                    seg * self.request_size,
                    self.request_size,
                    self.collective,
                ));
                if self.barrier_every > 0 && (j + 1) % self.barrier_every as u64 == 0 {
                    ops.push(Op::Barrier(barrier));
                    barrier += 1;
                }
            }
            ops
        })
    }
}

/// `hpio` (Northwestern/Sandia): contiguous-ish accesses built from "region
/// count 4096, region spacing 1024 B, region size 32 KB". Each process owns
/// a partition of the file and walks it with 32 KB requests separated by
/// 1 KB of space.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct Hpio {
    /// Number of MPI processes.
    pub nprocs: usize,
    /// Regions accessed per process.
    pub region_count: u64,
    /// Bytes of unused space between consecutive regions (1 KB).
    pub region_spacing: u64,
    /// Bytes per region (32 KB).
    pub region_size: u64,
    /// Read or write run.
    pub kind: IoKind,
    /// Mark I/O calls collective.
    pub collective: bool,
    /// Injected computation between calls.
    pub compute_per_call: SimDuration,
}

impl Default for Hpio {
    fn default() -> Self {
        Hpio {
            nprocs: 64,
            region_count: 4096,
            region_spacing: 1024,
            region_size: 32 * 1024,
            kind: IoKind::Read,
            collective: false,
            compute_per_call: SimDuration::ZERO,
        }
    }
}

impl Hpio {
    /// File size needed for this configuration.
    pub fn file_size(&self) -> u64 {
        self.nprocs as u64 * self.region_count * (self.region_size + self.region_spacing)
    }

    /// Generate the per-rank scripts against `file`.
    pub fn build(&self, file: FileId) -> ProgramScript {
        let per_proc = self.region_count * (self.region_size + self.region_spacing);
        build_program("hpio", self.nprocs, |rank| {
            let base = rank as u64 * per_proc;
            let mut ops = Vec::new();
            for i in 0..self.region_count {
                if self.compute_per_call > SimDuration::ZERO {
                    ops.push(compute(self.compute_per_call));
                }
                ops.push(io_region(
                    self.kind,
                    file,
                    base + i * (self.region_size + self.region_spacing),
                    self.region_size,
                    self.collective,
                ));
            }
            ops
        })
    }
}

/// `ior-mpi-io` (ASCI Purple): "each MPI process is responsible for reading
/// its own 1/64 of a 16 GB file ... sequential requests, each for a 32 KB
/// segment. The processes' requests are at the same relative offset in each
/// process's access scope — the access pattern presented to the storage
/// system is random."
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct IorMpiIo {
    /// Number of MPI processes (each owns 1/nprocs of the file).
    pub nprocs: usize,
    /// Total file bytes (16 GB in the paper).
    pub file_size: u64,
    /// Bytes per request (32 KB in the paper).
    pub request_size: u64,
    /// Read or write run.
    pub kind: IoKind,
    /// Mark I/O calls collective.
    pub collective: bool,
    /// Injected computation between calls.
    pub compute_per_call: SimDuration,
}

impl Default for IorMpiIo {
    fn default() -> Self {
        IorMpiIo {
            nprocs: 64,
            file_size: 16 << 30,
            request_size: 32 * 1024,
            kind: IoKind::Read,
            collective: false,
            compute_per_call: SimDuration::ZERO,
        }
    }
}

impl IorMpiIo {
    /// Generate the per-rank scripts against `file`.
    pub fn build(&self, file: FileId) -> ProgramScript {
        let scope = self.file_size / self.nprocs as u64;
        let calls = scope / self.request_size;
        build_program("ior-mpi-io", self.nprocs, |rank| {
            let base = rank as u64 * scope;
            let mut ops = Vec::new();
            for i in 0..calls {
                if self.compute_per_call > SimDuration::ZERO {
                    ops.push(compute(self.compute_per_call));
                }
                ops.push(io_region(
                    self.kind,
                    file,
                    base + i * self.request_size,
                    self.request_size,
                    self.collective,
                ));
            }
            ops
        })
    }
}

/// `noncontig` (ANL / Parallel I/O Benchmarking Consortium): "the file is a
/// two-dimensional array with 64 columns; each process reads a column with
/// a vector-derived datatype; in each row of a column there are `elmtcount`
/// MPI_INT elements. With collective I/O, each call moves 4 MB in total."
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct Noncontig {
    /// Number of MPI processes (= columns of the 2-D array).
    pub nprocs: usize,
    /// MPI_INT elements per cell (cell bytes = 4 × this).
    pub elmt_count: u64,
    /// Total data moved per (collective) call, all processes combined.
    pub bytes_per_call: u64,
    /// Rows of the 2-D array.
    pub rows: u64,
    /// Read or write run.
    pub kind: IoKind,
    /// Mark I/O calls collective.
    pub collective: bool,
    /// Injected computation between calls.
    pub compute_per_call: SimDuration,
}

impl Default for Noncontig {
    fn default() -> Self {
        Noncontig {
            nprocs: 64,
            elmt_count: 128, // 512 B cells
            bytes_per_call: 4 << 20,
            rows: 8192,
            kind: IoKind::Read,
            collective: false,
            compute_per_call: SimDuration::ZERO,
        }
    }
}

impl Noncontig {
    /// Bytes of one array cell.
    pub fn cell_bytes(&self) -> u64 {
        self.elmt_count * 4
    }

    /// Bytes of one full array row (all columns).
    pub fn row_bytes(&self) -> u64 {
        self.cell_bytes() * self.nprocs as u64
    }

    /// Total file bytes for this configuration.
    pub fn file_size(&self) -> u64 {
        self.row_bytes() * self.rows
    }

    /// Generate the per-rank scripts against `file`.
    pub fn build(&self, file: FileId) -> ProgramScript {
        let cell = self.cell_bytes();
        let row = self.row_bytes();
        // Rows per call so that all processes together move bytes_per_call.
        let rows_per_call = (self.bytes_per_call / (cell * self.nprocs as u64)).max(1);
        let calls = self.rows / rows_per_call;
        build_program("noncontig", self.nprocs, |rank| {
            let mut ops = Vec::new();
            for c in 0..calls {
                if self.compute_per_call > SimDuration::ZERO {
                    ops.push(compute(self.compute_per_call));
                }
                let dt = Datatype::Vector {
                    count: rows_per_call,
                    block_bytes: cell,
                    stride_bytes: row,
                };
                let base = c * rows_per_call * row + rank as u64 * cell;
                let mut call = IoCall::from_datatype(self.kind, file, &dt, base);
                call.collective = self.collective;
                ops.push(Op::Io(call));
            }
            ops
        })
    }
}

/// `S3asim` (sequence-similarity search): per query, each worker reads a
/// set of database fragments of mixed sizes and writes result data of mixed
/// sizes; sizes are drawn between configured min and max.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct S3asim {
    /// Number of worker processes.
    pub nprocs: usize,
    /// Sequence-search queries to run.
    pub queries: u64,
    /// Database fragments (16 in the paper).
    pub fragments: u64,
    /// Minimum sequence read/write size in bytes.
    pub min_seq: u64,
    /// Maximum sequence read/write size in bytes.
    pub max_seq: u64,
    /// Database file bytes.
    pub db_size: u64,
    /// Result file bytes (upper bound on written data).
    pub result_size: u64,
    /// Search computation per query.
    pub compute_per_query: SimDuration,
    /// Mark I/O calls collective.
    pub collective: bool,
    /// Deterministic seed for the size/offset draws.
    pub seed: u64,
}

impl Default for S3asim {
    fn default() -> Self {
        S3asim {
            nprocs: 64,
            queries: 16,
            fragments: 16,
            min_seq: 1024,
            max_seq: 100 * 1024,
            db_size: 1 << 30,
            result_size: 256 << 20,
            compute_per_query: SimDuration::from_millis(20),
            collective: false,
            seed: 7,
        }
    }
}

impl S3asim {
    /// Generate the per-rank scripts against the database and result files.
    pub fn build(&self, db: FileId, results: FileId) -> ProgramScript {
        let rng_root = DetRng::for_stream(self.seed, "s3asim");
        // Partition the result file among processes so writes never overlap.
        let result_scope = self.result_size / self.nprocs as u64;
        build_program("s3asim", self.nprocs, |rank| {
            let mut rng = rng_root.substream(rank as u64);
            let mut ops = Vec::new();
            let mut result_off = rank as u64 * result_scope;
            let result_end = (rank as u64 + 1) * result_scope;
            // Each worker searches a slice of each database fragment.
            let frag_size = self.db_size / self.fragments;
            let slice = frag_size / self.nprocs as u64;
            for _q in 0..self.queries {
                if self.compute_per_query > SimDuration::ZERO {
                    ops.push(compute(self.compute_per_query));
                }
                for f in 0..self.fragments {
                    let len = rng
                        .uniform_u64(self.min_seq, self.max_seq.saturating_add(1))
                        .min(slice);
                    let jitter = if slice > len {
                        rng.uniform_u64(0, (slice - len).saturating_add(1))
                    } else {
                        0
                    };
                    let off = f
                        .saturating_mul(frag_size)
                        .saturating_add((rank as u64).saturating_mul(slice))
                        .saturating_add(jitter);
                    ops.push(io_region(
                        IoKind::Read,
                        db,
                        off,
                        len.max(1),
                        self.collective,
                    ));
                }
                // Write merged results for this query.
                let wlen = rng
                    .uniform_u64(self.min_seq, self.max_seq + 1)
                    .min(result_end.saturating_sub(result_off));
                if wlen > 0 {
                    ops.push(io_region(
                        IoKind::Write,
                        results,
                        result_off,
                        wlen,
                        self.collective,
                    ));
                    result_off += wlen;
                }
            }
            ops
        })
    }
}

/// `BTIO` (NAS BT): the 3-D Navier-Stokes solver writing its solution with
/// MPI-IO. Each process owns an interleaved share of each solution row; per
/// step it appends `rows_per_step` vector accesses of tiny cells — "request
/// size of the benchmark is only a few bytes when many processes are used"
/// (§V-C): cell bytes shrink as the process count grows.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct Btio {
    /// Number of MPI processes.
    pub nprocs: usize,
    /// Total solution bytes written over the whole run.
    pub dataset: u64,
    /// Cell granularity for 64 processes; actual cell = this × 64 / nprocs,
    /// floored at 4 bytes (mirrors BTIO's shrinking requests).
    pub cell_at_64: u64,
    /// Solver timesteps that perform I/O.
    pub steps: u64,
    /// Write (checkpoint) or read (verification) run.
    pub kind: IoKind,
    /// Mark I/O calls collective.
    pub collective: bool,
    /// Solver computation per timestep.
    pub compute_per_step: SimDuration,
    /// Append BTIO's verification pass: after the solution is written, all
    /// ranks barrier and read their data back with the same access pattern.
    pub verify: bool,
}

impl Default for Btio {
    fn default() -> Self {
        Btio {
            nprocs: 64,
            dataset: 6800 << 20,
            cell_at_64: 16,
            steps: 40,
            kind: IoKind::Write,
            collective: false,
            compute_per_step: SimDuration::from_millis(50),
            verify: false,
        }
    }
}

impl Btio {
    /// Effective cell size at this process count.
    pub fn cell_bytes(&self) -> u64 {
        (self.cell_at_64 * 64 / self.nprocs as u64).max(4)
    }

    /// Total file bytes for this configuration.
    pub fn file_size(&self) -> u64 {
        self.dataset
    }

    /// Generate the per-rank scripts against `file`.
    pub fn build(&self, file: FileId) -> ProgramScript {
        let cell = self.cell_bytes();
        let row = cell * self.nprocs as u64;
        let total_rows = self.dataset / row;
        let rows_per_step = (total_rows / self.steps).max(1);
        // Split each step into calls of a bounded number of cells so one
        // call is one solution plane, like BTIO's per-variable writes.
        let rows_per_call = rows_per_step.clamp(1, 4096);
        build_program("btio", self.nprocs, |rank| {
            let mut ops = Vec::new();
            let mut row_cursor = 0u64;
            let emit_pass = |ops: &mut Vec<Op>, kind: IoKind, row_cursor: &mut u64| {
                for _step in 0..self.steps {
                    if self.compute_per_step > SimDuration::ZERO {
                        ops.push(compute(self.compute_per_step));
                    }
                    let mut remaining = rows_per_step;
                    while remaining > 0 {
                        let n = remaining.min(rows_per_call);
                        let dt = Datatype::Vector {
                            count: n,
                            block_bytes: cell,
                            stride_bytes: row,
                        };
                        let base = *row_cursor * row + rank as u64 * cell;
                        let mut call = IoCall::from_datatype(kind, file, &dt, base);
                        call.collective = self.collective;
                        ops.push(Op::Io(call));
                        *row_cursor += n;
                        remaining -= n;
                    }
                }
            };
            emit_pass(&mut ops, self.kind, &mut row_cursor);
            if self.verify {
                ops.push(Op::Barrier(0));
                row_cursor = 0;
                emit_pass(&mut ops, IoKind::Read, &mut row_cursor);
            }
            ops
        })
    }
}

/// The motivating synthetic program of §II: 8 processes read a 1 GB file
/// front to back; each call reads 16 segments at indices `k·N + myrank`
/// with a vector datatype; segment size 4–128 KB; compute time between
/// calls sets the I/O ratio.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct Demo {
    /// Number of MPI processes (8 in §II).
    pub nprocs: usize,
    /// Total file bytes (1 GB in §II).
    pub file_size: u64,
    /// Segment bytes (4–128 KB in §II).
    pub segment_size: u64,
    /// Segments per MPI-IO call (16 in §II).
    pub segs_per_call: u64,
    /// Injected computation per call (sets the I/O ratio).
    pub compute_per_call: SimDuration,
    /// Read or write run.
    pub kind: IoKind,
    /// Mark I/O calls collective.
    pub collective: bool,
}

impl Default for Demo {
    fn default() -> Self {
        Demo {
            nprocs: 8,
            file_size: 1 << 30,
            segment_size: 4 * 1024,
            segs_per_call: 16,
            compute_per_call: SimDuration::ZERO,
            kind: IoKind::Read,
            collective: false,
        }
    }
}

impl Demo {
    /// Generate the per-rank scripts against `file`.
    pub fn build(&self, file: FileId) -> ProgramScript {
        let n = self.nprocs as u64;
        let seg = self.segment_size;
        let segs_total = self.file_size / seg;
        let segs_per_round = self.segs_per_call * n;
        let calls = segs_total / segs_per_round;
        build_program("demo", self.nprocs, |rank| {
            let mut ops = Vec::new();
            for c in 0..calls {
                if self.compute_per_call > SimDuration::ZERO {
                    ops.push(compute(self.compute_per_call));
                }
                let dt = Datatype::Vector {
                    count: self.segs_per_call,
                    block_bytes: seg,
                    stride_bytes: n * seg,
                };
                let base = (c * segs_per_round + rank as u64) * seg;
                let mut call = IoCall::from_datatype(self.kind, file, &dt, base);
                call.collective = self.collective;
                ops.push(Op::Io(call));
            }
            ops
        })
    }
}

/// The Table III adversary: "an MPI program that reads 2 GB of data, and
/// the requested data addresses depend on the data read in the previous
/// I/O call" — every prefetch is wrong by construction.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct DependentReader {
    /// Number of MPI processes.
    pub nprocs: usize,
    /// Total bytes read across all processes.
    pub total_bytes: u64,
    /// Bytes per (pointer-chased) request.
    pub request_size: u64,
    /// Injected computation per call.
    pub compute_per_call: SimDuration,
    /// Fraction of calls a ghost predicts correctly (0.0 = the Table III
    /// adversary where every prefetch is wasted; 1.0 = fully predictable).
    /// Sweeping this crosses EMC's 20 % mis-prefetch veto threshold.
    pub predictability: f64,
    /// Deterministic seed for the chase targets.
    pub seed: u64,
}

impl Default for DependentReader {
    fn default() -> Self {
        DependentReader {
            nprocs: 64,
            total_bytes: 2 << 30,
            request_size: 64 * 1024,
            compute_per_call: SimDuration::ZERO,
            predictability: 0.0,
            seed: 11,
        }
    }
}

impl DependentReader {
    /// Total file bytes for this configuration.
    pub fn file_size(&self) -> u64 {
        self.total_bytes
    }

    /// Generate the per-rank scripts against `file`.
    pub fn build(&self, file: FileId) -> ProgramScript {
        let rng_root = DetRng::for_stream(self.seed, "dependent");
        let per_proc = self.total_bytes / self.nprocs as u64;
        let calls = per_proc / self.request_size;
        let slots = self.total_bytes / self.request_size;
        let rank_script = |rank: usize| {
            let mut rng = rng_root.substream(rank as u64);
            let mut ops = Vec::new();
            let mut predicted = Vec::new();
            for _ in 0..calls {
                if self.compute_per_call > SimDuration::ZERO {
                    ops.push(compute(self.compute_per_call));
                }
                // Actual target: a pointer chase to a random slot. A ghost
                // cannot know it: it would predict the slot that the *stale*
                // (unread) pointer names — model that as a different random
                // slot. With probability `predictability`, the pointer was
                // unchanged and the ghost's guess is right.
                let actual = rng.uniform_u64(0, slots) * self.request_size;
                let call = IoCall::read(file, FileRegion::new(actual, self.request_size));
                if !rng.chance(self.predictability) {
                    let guess = rng.uniform_u64(0, slots) * self.request_size;
                    predicted.push((ops.len(), FileRegion::new(guess, self.request_size).into()));
                }
                ops.push(Op::Io(call));
            }
            ProcessScript { ops, predicted }
        };
        ProgramScript {
            name: "dependent".to_string(),
            ranks: (0..self.nprocs).map(rank_script).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpiio_test_is_interleaved_sequential() {
        let w = MpiIoTest {
            nprocs: 4,
            file_size: 1 << 20,
            request_size: 16 * 1024,
            ..Default::default()
        };
        let p = w.build(FileId(1));
        assert_eq!(p.nprocs(), 4);
        // Union of all ranks' accesses covers the file exactly.
        assert_eq!(p.total_io_bytes(), 1 << 20);
        // Rank 1's first request is the second segment.
        let first = p.ranks[1]
            .ops
            .iter()
            .find_map(|o| match o {
                Op::Io(c) => c.regions.get(0),
                _ => None,
            })
            .unwrap();
        assert_eq!(first.offset, 16 * 1024);
        assert!(p.barriers_consistent());
    }

    #[test]
    fn ior_scopes_are_disjoint() {
        let w = IorMpiIo {
            nprocs: 4,
            file_size: 4 << 20,
            ..Default::default()
        };
        let p = w.build(FileId(1));
        let scope = 1 << 20;
        for (rank, script) in p.ranks.iter().enumerate() {
            for op in &script.ops {
                if let Op::Io(c) = op {
                    for r in c.regions.iter() {
                        assert!(r.offset >= rank as u64 * scope);
                        assert!(r.end() <= (rank as u64 + 1) * scope);
                    }
                }
            }
        }
        assert_eq!(p.total_io_bytes(), 4 << 20);
    }

    #[test]
    fn noncontig_columns_interleave() {
        let w = Noncontig {
            nprocs: 4,
            elmt_count: 2, // 8-byte cells
            bytes_per_call: 64,
            rows: 4,
            ..Default::default()
        };
        let p = w.build(FileId(1));
        // Row width = 32 bytes; rank 2's cells start at 16, 48, 80, ...
        let regions: Vec<_> = p.ranks[2]
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Io(c) => Some(c.regions.iter()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(regions[0].offset, 16);
        assert_eq!(regions[1].offset, 48);
        assert!(regions.iter().all(|r| r.len == 8));
        assert_eq!(p.total_io_bytes(), w.file_size());
    }

    #[test]
    fn btio_cell_shrinks_with_procs() {
        let base = Btio::default();
        let b16 = Btio {
            nprocs: 16,
            ..base.clone()
        };
        let b64 = Btio {
            nprocs: 64,
            ..base.clone()
        };
        let b256 = Btio {
            nprocs: 256,
            ..base
        };
        assert_eq!(b16.cell_bytes(), 64);
        assert_eq!(b64.cell_bytes(), 16);
        assert_eq!(b256.cell_bytes(), 4);
    }

    #[test]
    fn btio_covers_dataset() {
        let w = Btio {
            nprocs: 8,
            dataset: 1 << 20,
            steps: 4,
            ..Default::default()
        };
        let p = w.build(FileId(1));
        assert_eq!(p.total_io_bytes(), 1 << 20);
    }

    #[test]
    fn btio_verify_doubles_traffic_with_read_back() {
        let w = Btio {
            nprocs: 8,
            dataset: 1 << 20,
            steps: 4,
            verify: true,
            ..Default::default()
        };
        let p = w.build(FileId(1));
        assert_eq!(p.total_io_bytes(), 2 << 20);
        assert!(p.barriers_consistent());
        // The read pass covers exactly the written bytes.
        let reads: u64 = p
            .ranks
            .iter()
            .flat_map(|r| &r.ops)
            .filter_map(|o| match o {
                Op::Io(c) if c.kind == IoKind::Read => Some(c.bytes()),
                _ => None,
            })
            .sum();
        assert_eq!(reads, 1 << 20);
    }

    #[test]
    fn demo_reads_file_front_to_back() {
        let w = Demo {
            file_size: 8 << 20,
            ..Default::default()
        };
        let p = w.build(FileId(1));
        assert_eq!(p.total_io_bytes(), 8 << 20);
        // All ranks' first-call accesses fall within the first round.
        let round = w.segs_per_call * w.nprocs as u64 * w.segment_size;
        for script in &p.ranks {
            if let Some(Op::Io(c)) = script.ops.first() {
                assert!(c.regions.iter().all(|r| r.end() <= round));
            }
        }
    }

    #[test]
    fn s3asim_reads_within_db_and_writes_disjoint() {
        let w = S3asim {
            nprocs: 4,
            queries: 3,
            db_size: 16 << 20,
            result_size: 4 << 20,
            ..Default::default()
        };
        let p = w.build(FileId(1), FileId(2));
        let scope = (4 << 20) / 4;
        for (rank, script) in p.ranks.iter().enumerate() {
            for op in &script.ops {
                if let Op::Io(c) = op {
                    for r in c.regions.iter() {
                        match c.kind {
                            IoKind::Read => assert!(r.end() <= 16 << 20),
                            IoKind::Write => {
                                assert!(r.offset >= rank as u64 * scope);
                                assert!(r.end() <= (rank as u64 + 1) * scope);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn s3asim_deterministic() {
        let w = S3asim::default();
        let a = w.build(FileId(1), FileId(2));
        let b = w.build(FileId(1), FileId(2));
        assert_eq!(a, b);
    }

    #[test]
    fn dependent_reader_predictability_controls_mismatch_rate() {
        let rate = |p: f64| {
            let w = DependentReader {
                nprocs: 2,
                total_bytes: 8 << 20,
                predictability: p,
                ..Default::default()
            };
            let prog = w.build(FileId(1));
            let (mut wrong, mut total) = (0usize, 0usize);
            for r in &prog.ranks {
                total += r.num_io_calls();
                wrong += r.predicted.len();
            }
            wrong as f64 / total as f64
        };
        assert!(rate(0.0) > 0.99);
        assert!(rate(1.0) < 0.01);
        let half = rate(0.5);
        assert!((half - 0.5).abs() < 0.15, "got {half}");
    }

    #[test]
    fn dependent_reader_predictions_differ_from_actual() {
        let w = DependentReader {
            nprocs: 2,
            total_bytes: 4 << 20,
            ..Default::default()
        };
        let p = w.build(FileId(1));
        let mut mismatches = 0;
        let mut total = 0;
        for script in &p.ranks {
            for (pos, op) in script.ops.iter().enumerate() {
                if let Op::Io(c) = op {
                    total += 1;
                    if script.ghost_regions(pos) != Some(&c.regions) {
                        mismatches += 1;
                    }
                }
            }
        }
        assert!(total > 0);
        // Nearly all predictions are wrong (a random collision is possible
        // but vanishingly rare at these sizes).
        assert!(mismatches as f64 / total as f64 > 0.95);
    }

    #[test]
    fn hpio_regions_spaced() {
        let w = Hpio {
            nprocs: 2,
            region_count: 3,
            region_spacing: 1024,
            region_size: 32 * 1024,
            ..Default::default()
        };
        let p = w.build(FileId(1));
        let r: Vec<_> = p.ranks[0]
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Io(c) => c.regions.get(0),
                _ => None,
            })
            .collect();
        assert_eq!(r[1].offset - r[0].offset, 33 * 1024);
    }
}
