//! A compositional workload DSL: access patterns as data, not code.
//!
//! The paper's benchmarks each hard-code one access pattern; the DSL makes
//! pattern structure a first-class, serializable value instead. A
//! [`WorkloadExpr`] is a small recursive expression tree: leaves are
//! [`AccessPattern`]s (offset distribution × request-size distribution ×
//! read/write mix), and combinators compose them:
//!
//! - [`WorkloadExpr::Seq`] — run sub-workloads back to back;
//! - [`WorkloadExpr::Interleave`] — round-robin their operations;
//! - [`WorkloadExpr::Repeat`] — iterate a body N times;
//! - [`WorkloadExpr::Phased`] — BSP phases: compute, body, barrier.
//!
//! A [`DslWorkload`] wraps an expression with the run parameters (ranks,
//! file size, seed, name) and compiles it to a [`ProgramScript`].
//!
//! ## Determinism and seeding
//!
//! Every random draw comes from `DetRng::for_stream(seed, "dsl")`
//! sub-streamed by rank, so a spec is a pure description: building it twice
//! — or on different suite worker threads — yields byte-identical scripts.
//! All ranks walk the same expression tree, so barrier sequences agree by
//! construction even though each rank draws different sizes and offsets.
//! Open-loop arrival instances are reseeded per instance via
//! [`instance_seed`], keeping concurrent tenants decorrelated but
//! reproducible.

use crate::arrivals::instance_seed;
use crate::common::{build_program, compute, io_region};
use crate::distr::{zipf_rank, OffsetDistr, SizeDistr};
use dualpar_mpiio::{IoKind, Op, ProgramScript};
use dualpar_pfs::FileId;
use dualpar_sim::{DetRng, SimDuration};
use serde::{Deserialize, Serialize};

/// Maximum expression-tree depth accepted by [`DslWorkload::validate`].
pub const MAX_DEPTH: u32 = 16;

/// Maximum estimated operations per rank accepted by
/// [`DslWorkload::validate`] — a guard against `Repeat`/`Phased` blow-ups.
pub const MAX_OPS_PER_RANK: u64 = 4 << 20;

/// One leaf access pattern: `ops` I/O calls per rank, each with a size drawn
/// from `size` and an offset drawn from `offsets`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct AccessPattern {
    /// I/O calls issued per rank.
    pub ops: u64,
    /// Per-request size distribution.
    pub size: SizeDistr,
    /// File-offset distribution.
    pub offsets: OffsetDistr,
    /// Fraction of calls that are writes, in `[0, 1]` (0 = read-only).
    pub write_fraction: f64,
    /// Compute burst before each call, seconds (0 = I/O-bound).
    pub compute_secs_per_op: f64,
    /// Insert a barrier after every this many calls (0 = never).
    pub barrier_every: u64,
    /// Issue calls through the collective-I/O path.
    pub collective: bool,
}

impl Default for AccessPattern {
    fn default() -> Self {
        AccessPattern {
            ops: 64,
            size: SizeDistr::default(),
            offsets: OffsetDistr::default(),
            write_fraction: 0.0,
            compute_secs_per_op: 0.0,
            barrier_every: 0,
            collective: false,
        }
    }
}

/// A recursive, serializable workload expression — see the
/// [module docs](self) for the grammar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case", deny_unknown_fields)]
pub enum WorkloadExpr {
    /// Leaf: one access pattern.
    Pattern(AccessPattern),
    /// Run each child's operations back to back.
    Seq(Vec<WorkloadExpr>),
    /// Round-robin the children's operations one at a time.
    Interleave(Vec<WorkloadExpr>),
    /// Repeat the body `times` times.
    Repeat {
        /// Iteration count (>= 1).
        times: u64,
        /// The repeated sub-expression.
        body: Box<WorkloadExpr>,
    },
    /// Bulk-synchronous phases: each phase is a compute burst, the body's
    /// operations, then a barrier across all ranks.
    Phased {
        /// Number of phases (>= 1).
        phases: u64,
        /// Compute burst at the start of each phase, seconds.
        compute_secs: f64,
        /// The per-phase sub-expression.
        body: Box<WorkloadExpr>,
    },
}

impl Default for WorkloadExpr {
    fn default() -> Self {
        WorkloadExpr::Pattern(AccessPattern::default())
    }
}

/// Per-rank generation context: where this rank's disjoint slab lives.
struct EmitCtx {
    file: FileId,
    file_size: u64,
    /// Slab size (`file_size / nprocs`).
    slab: u64,
    /// This rank's slab base offset.
    base: u64,
}

impl WorkloadExpr {
    /// Expression-tree depth (a leaf is depth 1).
    pub fn depth(&self) -> u32 {
        match self {
            WorkloadExpr::Pattern(_) => 1,
            WorkloadExpr::Seq(xs) | WorkloadExpr::Interleave(xs) => {
                1 + xs.iter().map(WorkloadExpr::depth).max().unwrap_or(0)
            }
            WorkloadExpr::Repeat { body, .. } | WorkloadExpr::Phased { body, .. } => {
                1 + body.depth()
            }
        }
    }

    /// Estimated I/O calls per rank (saturating; feeds validation and cost
    /// estimation).
    pub fn estimated_ops(&self) -> u64 {
        self.weighted_ops(&|_| 1)
    }

    /// Estimated engine file requests per rank: each leaf op fans out into
    /// roughly `mean_size / 64 KiB` stripe-sized requests once the I/O
    /// layer splits it, so a pattern of few huge calls costs what it
    /// actually costs to simulate, not what its op count suggests.
    pub fn estimated_requests(&self) -> u64 {
        /// The engine's striping unit; requests are split to this size.
        const STRIPE_BYTES: u64 = 64 << 10;
        self.weighted_ops(&|p| p.size.mean_bytes().div_ceil(STRIPE_BYTES).max(1))
    }

    /// Leaf op counts, each multiplied by `weight(leaf)`, summed over the
    /// tree with repeats and phases expanded (saturating).
    fn weighted_ops(&self, weight: &dyn Fn(&AccessPattern) -> u64) -> u64 {
        match self {
            WorkloadExpr::Pattern(p) => p.ops.saturating_mul(weight(p)),
            WorkloadExpr::Seq(xs) | WorkloadExpr::Interleave(xs) => xs
                .iter()
                .fold(0u64, |acc, x| acc.saturating_add(x.weighted_ops(weight))),
            WorkloadExpr::Repeat { times: n, body }
            | WorkloadExpr::Phased {
                phases: n, body, ..
            } => body.weighted_ops(weight).saturating_mul(*n),
        }
    }

    /// Largest request size any leaf can draw (bounds the slab check).
    pub fn max_request(&self) -> u64 {
        match self {
            WorkloadExpr::Pattern(p) => p.size.max_bytes(),
            WorkloadExpr::Seq(xs) | WorkloadExpr::Interleave(xs) => {
                xs.iter().map(WorkloadExpr::max_request).max().unwrap_or(0)
            }
            WorkloadExpr::Repeat { body, .. } | WorkloadExpr::Phased { body, .. } => {
                body.max_request()
            }
        }
    }

    /// Validate this expression (structure and leaf parameters).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            WorkloadExpr::Pattern(p) => {
                if p.ops == 0 {
                    return Err("pattern: ops must be >= 1".into());
                }
                p.size.validate()?;
                p.offsets.validate()?;
                if !(0.0..=1.0).contains(&p.write_fraction) {
                    return Err(format!(
                        "pattern: write_fraction must be in [0,1], got {}",
                        p.write_fraction
                    ));
                }
                if p.compute_secs_per_op < 0.0 || !p.compute_secs_per_op.is_finite() {
                    return Err(format!(
                        "pattern: compute_secs_per_op must be finite and >= 0, got {}",
                        p.compute_secs_per_op
                    ));
                }
                Ok(())
            }
            WorkloadExpr::Seq(xs) | WorkloadExpr::Interleave(xs) => {
                if xs.is_empty() {
                    return Err("seq/interleave: needs at least one child".into());
                }
                xs.iter().try_for_each(WorkloadExpr::validate)
            }
            WorkloadExpr::Repeat { times, body } => {
                if *times == 0 {
                    return Err("repeat: times must be >= 1".into());
                }
                body.validate()
            }
            WorkloadExpr::Phased {
                phases,
                compute_secs,
                body,
            } => {
                if *phases == 0 {
                    return Err("phased: phases must be >= 1".into());
                }
                if *compute_secs < 0.0 || !compute_secs.is_finite() {
                    return Err(format!(
                        "phased: compute_secs must be finite and >= 0, got {compute_secs}"
                    ));
                }
                body.validate()
            }
        }
    }

    /// Generate this expression's operations for one rank. All ranks call
    /// this over the same tree, so barrier emission (structural, never
    /// random) stays rank-consistent.
    fn emit(&self, ctx: &EmitCtx, rng: &mut DetRng, next_barrier: &mut u64, ops: &mut Vec<Op>) {
        match self {
            WorkloadExpr::Pattern(p) => emit_pattern(p, ctx, rng, next_barrier, ops),
            WorkloadExpr::Seq(xs) => {
                for x in xs {
                    x.emit(ctx, rng, next_barrier, ops);
                }
            }
            WorkloadExpr::Interleave(xs) => {
                // Generate each child separately (draws happen in child
                // order, deterministically), then round-robin merge.
                let mut lanes: Vec<Vec<Op>> = Vec::with_capacity(xs.len());
                for x in xs {
                    let mut lane = Vec::new();
                    x.emit(ctx, rng, next_barrier, &mut lane);
                    lanes.push(lane);
                }
                let mut cursors: Vec<std::vec::IntoIter<Op>> =
                    lanes.into_iter().map(Vec::into_iter).collect();
                loop {
                    let mut emitted = false;
                    for c in &mut cursors {
                        if let Some(op) = c.next() {
                            ops.push(op);
                            emitted = true;
                        }
                    }
                    if !emitted {
                        break;
                    }
                }
            }
            WorkloadExpr::Repeat { times, body } => {
                for _ in 0..*times {
                    body.emit(ctx, rng, next_barrier, ops);
                }
            }
            WorkloadExpr::Phased {
                phases,
                compute_secs,
                body,
            } => {
                for _ in 0..*phases {
                    if *compute_secs > 0.0 {
                        ops.push(compute(SimDuration::from_secs_f64(*compute_secs)));
                    }
                    body.emit(ctx, rng, next_barrier, ops);
                    ops.push(Op::Barrier(*next_barrier));
                    *next_barrier += 1;
                }
            }
        }
    }
}

fn emit_pattern(
    p: &AccessPattern,
    ctx: &EmitCtx,
    rng: &mut DetRng,
    next_barrier: &mut u64,
    ops: &mut Vec<Op>,
) {
    // Sequential/strided walks keep a cursor local to this leaf instance:
    // repeating a leaf re-walks the same slab (a re-read / overwrite pass).
    // A sequential walk is a strided one without a gap.
    let mut cursor = 0u64;
    let gap = match p.offsets {
        OffsetDistr::Strided { stride } => stride,
        _ => 0,
    };
    for k in 0..p.ops {
        if p.compute_secs_per_op > 0.0 {
            ops.push(compute(SimDuration::from_secs_f64(p.compute_secs_per_op)));
        }
        let is_write = p.write_fraction > 0.0 && rng.chance(p.write_fraction);
        let kind = if is_write {
            IoKind::Write
        } else {
            IoKind::Read
        };
        let len = p.size.sample(rng).min(ctx.slab.max(1));
        let offset = match p.offsets {
            OffsetDistr::Sequential | OffsetDistr::Strided { .. } => {
                // Restart at the slab head when the request would pass the
                // slab end (`len <= slab`, so the test cannot overflow).
                if cursor > ctx.slab - len {
                    cursor = 0;
                }
                let off = ctx.base + cursor;
                cursor = cursor.saturating_add(len).saturating_add(gap);
                off
            }
            OffsetDistr::Random => {
                let span = ctx.slab - len;
                ctx.base
                    + if span == 0 {
                        0
                    } else {
                        rng.uniform_u64(0, span + 1)
                    }
            }
            OffsetDistr::ZipfHotspot { theta } => {
                if is_write {
                    // Writes stay slab-local to remain race-free.
                    let slots = (ctx.slab / len).max(1);
                    ctx.base + (zipf_rank(rng, slots, theta) - 1) * len
                } else {
                    // Reads contend on the globally hot head of the file.
                    let slots = (ctx.file_size / len).max(1);
                    (zipf_rank(rng, slots, theta) - 1) * len
                }
            }
        };
        ops.push(io_region(kind, ctx.file, offset, len, p.collective));
        if p.barrier_every > 0 && (k + 1) % p.barrier_every == 0 {
            ops.push(Op::Barrier(*next_barrier));
            *next_barrier += 1;
        }
    }
}

/// A complete DSL workload: an expression plus its run parameters. The
/// DSL-side counterpart of the named benchmark structs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct DslWorkload {
    /// Program label (also the stem of the backing file's name).
    pub name: String,
    /// MPI ranks.
    pub nprocs: usize,
    /// Backing file size, bytes. Each rank owns a `file_size / nprocs`
    /// slab; only Zipf-hotspot reads range over the whole file.
    pub file_size: u64,
    /// Master seed for this workload's deterministic draws.
    pub seed: u64,
    /// The access-pattern expression.
    pub expr: WorkloadExpr,
}

impl Default for DslWorkload {
    fn default() -> Self {
        DslWorkload {
            name: "dsl".into(),
            nprocs: 8,
            file_size: 64 << 20,
            seed: 1,
            expr: WorkloadExpr::default(),
        }
    }
}

impl DslWorkload {
    /// Validate run parameters and the expression tree.
    pub fn validate(&self) -> Result<(), String> {
        if self.nprocs == 0 {
            return Err("dsl: nprocs must be >= 1".into());
        }
        if self.file_size == 0 {
            return Err("dsl: file_size must be non-zero".into());
        }
        if self.name.is_empty() {
            return Err("dsl: name must be non-empty".into());
        }
        let depth = self.expr.depth();
        if depth > MAX_DEPTH {
            return Err(format!("dsl: expression depth {depth} exceeds {MAX_DEPTH}"));
        }
        self.expr.validate()?;
        let ops = self.expr.estimated_ops();
        if ops > MAX_OPS_PER_RANK {
            return Err(format!(
                "dsl: ~{ops} ops per rank exceeds the {MAX_OPS_PER_RANK} guard"
            ));
        }
        let slab = self.file_size / self.nprocs as u64;
        let need = self.expr.max_request();
        if slab < need {
            return Err(format!(
                "dsl: per-rank slab is {slab} bytes but the largest request is {need}; \
                 grow file_size or shrink nprocs/request sizes"
            ));
        }
        Ok(())
    }

    /// Estimated engine file requests across all ranks (suite scheduling
    /// cost proxy, comparable to the named presets' request counts): I/O
    /// calls weighted by each leaf's stripe fan-out, so a DSL workload of
    /// few megabyte-sized ops ranks where its simulation cost actually
    /// lands instead of at the bottom of the longest-first schedule.
    pub fn cost(&self) -> u64 {
        self.expr
            .estimated_requests()
            .saturating_mul(self.nprocs as u64)
    }

    /// Compile to a program script against `file`. Purely a function of
    /// `self` and `file` — see the module docs on determinism.
    pub fn build(&self, file: FileId) -> ProgramScript {
        let slab = (self.file_size / self.nprocs as u64).max(1);
        let root = DetRng::for_stream(self.seed, "dsl");
        build_program(&self.name, self.nprocs, |rank| {
            let mut rng = root.substream(rank as u64);
            let ctx = EmitCtx {
                file,
                file_size: self.file_size,
                slab,
                base: rank as u64 * slab,
            };
            let mut ops = Vec::new();
            let mut next_barrier = 0u64;
            self.expr.emit(&ctx, &mut rng, &mut next_barrier, &mut ops);
            ops
        })
    }

    /// A decorrelated copy for open-loop instance `instance`: same
    /// structure, independently seeded draws.
    pub fn reseeded(&self, instance: u64) -> Self {
        DslWorkload {
            seed: instance_seed(self.seed, instance),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(ops: u64) -> WorkloadExpr {
        WorkloadExpr::Pattern(AccessPattern {
            ops,
            ..AccessPattern::default()
        })
    }

    fn io_count(script: &ProgramScript, rank: usize) -> usize {
        script.ranks[rank]
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Io(_)))
            .count()
    }

    #[test]
    fn default_workload_builds_and_validates() {
        let w = DslWorkload::default();
        w.validate().expect("default validates");
        let script = w.build(FileId(1));
        assert_eq!(script.nprocs(), 8);
        assert!(script.barriers_consistent());
        assert_eq!(io_count(&script, 0), 64);
    }

    #[test]
    fn combinators_compose_op_counts() {
        let expr = WorkloadExpr::Repeat {
            times: 3,
            body: Box::new(WorkloadExpr::Seq(vec![leaf(4), leaf(2)])),
        };
        assert_eq!(expr.estimated_ops(), 18);
        let w = DslWorkload {
            expr,
            nprocs: 2,
            ..DslWorkload::default()
        };
        let script = w.build(FileId(1));
        assert_eq!(io_count(&script, 0), 18);
        assert_eq!(io_count(&script, 1), 18);
    }

    #[test]
    fn cost_weighs_request_fanout_not_just_ops() {
        // Few megabyte-sized ops simulate as many stripe requests; the
        // cost estimate must rank them above many tiny ops, or the
        // longest-first suite schedule runs its dominant entry last.
        let big = DslWorkload {
            nprocs: 4,
            expr: WorkloadExpr::Pattern(AccessPattern {
                ops: 8,
                size: SizeDistr::Fixed { bytes: 1 << 20 },
                ..AccessPattern::default()
            }),
            ..DslWorkload::default()
        };
        let small = DslWorkload {
            nprocs: 4,
            expr: WorkloadExpr::Pattern(AccessPattern {
                ops: 64,
                size: SizeDistr::Fixed { bytes: 4 << 10 },
                ..AccessPattern::default()
            }),
            ..DslWorkload::default()
        };
        // 8 ops × (1 MiB / 64 KiB) = 128 requests per rank, × 4 ranks.
        assert_eq!(big.cost(), 8 * 16 * 4);
        // Sub-stripe requests still count one request per op.
        assert_eq!(small.cost(), 64 * 4);
        assert!(big.cost() > small.cost());
        // The fan-out follows the distribution mean, not the max: a mean of
        // 8 MiB + 32 KiB is 129 stripes, where the 16 MiB max is 256.
        let mixed = WorkloadExpr::Pattern(AccessPattern {
            ops: 10,
            size: SizeDistr::Uniform {
                min: 64 << 10,
                max: 16 << 20,
            },
            ..AccessPattern::default()
        });
        assert_eq!(mixed.estimated_requests(), 10 * 129);
    }

    #[test]
    fn phased_emits_consistent_barriers() {
        let w = DslWorkload {
            nprocs: 4,
            expr: WorkloadExpr::Phased {
                phases: 5,
                compute_secs: 0.001,
                body: Box::new(leaf(8)),
            },
            ..DslWorkload::default()
        };
        let script = w.build(FileId(1));
        assert!(script.barriers_consistent());
        let barriers = script.ranks[0]
            .ops
            .iter()
            .filter(|o| matches!(o, Op::Barrier(_)))
            .count();
        assert_eq!(barriers, 5);
    }

    #[test]
    fn interleave_round_robins_children() {
        let a = WorkloadExpr::Pattern(AccessPattern {
            ops: 3,
            write_fraction: 1.0,
            ..AccessPattern::default()
        });
        let w = DslWorkload {
            nprocs: 1,
            expr: WorkloadExpr::Interleave(vec![a, leaf(3)]),
            ..DslWorkload::default()
        };
        let script = w.build(FileId(1));
        let kinds: Vec<IoKind> = script.ranks[0]
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Io(c) => Some(c.kind),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                IoKind::Write,
                IoKind::Read,
                IoKind::Write,
                IoKind::Read,
                IoKind::Write,
                IoKind::Read
            ]
        );
    }

    #[test]
    fn builds_are_deterministic_and_reseeding_decorrelates() {
        let w = DslWorkload {
            expr: WorkloadExpr::Pattern(AccessPattern {
                ops: 32,
                offsets: OffsetDistr::ZipfHotspot { theta: 0.99 },
                write_fraction: 0.3,
                ..AccessPattern::default()
            }),
            ..DslWorkload::default()
        };
        assert_eq!(w.build(FileId(1)), w.build(FileId(1)));
        let r = w.reseeded(1);
        assert_eq!(r.nprocs, w.nprocs);
        assert_ne!(r.seed, w.seed);
        assert_ne!(w.build(FileId(1)), r.build(FileId(1)));
        // Reseeding is itself deterministic.
        assert_eq!(r.build(FileId(1)), w.reseeded(1).build(FileId(1)));
    }

    #[test]
    fn sequential_is_strided_without_a_gap() {
        // One walk serves both forms: with the same seed, sizes that vary
        // and enough ops to wrap the slab, the scripts are equal.
        let with = |offsets| DslWorkload {
            nprocs: 2,
            file_size: 1 << 20,
            expr: WorkloadExpr::Pattern(AccessPattern {
                ops: 64,
                size: SizeDistr::Uniform {
                    min: 4096,
                    max: 65536,
                },
                offsets,
                write_fraction: 0.5,
                ..AccessPattern::default()
            }),
            ..DslWorkload::default()
        };
        let sequential = with(OffsetDistr::Sequential).build(FileId(1));
        assert_eq!(
            sequential,
            with(OffsetDistr::Strided { stride: 0 }).build(FileId(1))
        );
        // The walk wrapped: some request starts back at a slab head.
        let heads = sequential.ranks[1]
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Io(c) => c.regions.get(0),
                _ => None,
            })
            .filter(|r| r.offset == 512 << 10)
            .count();
        assert!(heads > 1, "64 ops of ~34 KiB must wrap a 512 KiB slab");
    }

    #[test]
    fn offsets_stay_in_bounds_for_every_distr() {
        for offsets in [
            OffsetDistr::Sequential,
            OffsetDistr::Strided { stride: 100_000 },
            OffsetDistr::Random,
            OffsetDistr::ZipfHotspot { theta: 1.2 },
        ] {
            let w = DslWorkload {
                nprocs: 4,
                file_size: 8 << 20,
                expr: WorkloadExpr::Pattern(AccessPattern {
                    ops: 200,
                    size: SizeDistr::Uniform {
                        min: 4096,
                        max: 1 << 20,
                    },
                    offsets: offsets.clone(),
                    write_fraction: 0.5,
                    ..AccessPattern::default()
                }),
                ..DslWorkload::default()
            };
            w.validate().expect("valid");
            let script = w.build(FileId(1));
            let slab = w.file_size / w.nprocs as u64;
            for (rank, ps) in script.ranks.iter().enumerate() {
                for op in &ps.ops {
                    if let Op::Io(c) = op {
                        for r in c.regions.iter() {
                            assert!(
                                r.offset + r.len <= w.file_size,
                                "{offsets:?}: region past EOF"
                            );
                            if c.kind == IoKind::Write {
                                let base = rank as u64 * slab;
                                assert!(
                                    r.offset >= base && r.offset + r.len <= base + slab,
                                    "{offsets:?}: write escaped rank {rank}'s slab"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn validation_rejects_bad_trees() {
        let too_deep = (0..20).fold(leaf(1), |e, _| WorkloadExpr::Repeat {
            times: 1,
            body: Box::new(e),
        });
        assert!(DslWorkload {
            expr: too_deep,
            ..DslWorkload::default()
        }
        .validate()
        .is_err());
        assert!(DslWorkload {
            expr: WorkloadExpr::Seq(vec![]),
            ..DslWorkload::default()
        }
        .validate()
        .is_err());
        assert!(DslWorkload {
            expr: WorkloadExpr::Repeat {
                times: u64::MAX,
                body: Box::new(leaf(1000)),
            },
            ..DslWorkload::default()
        }
        .validate()
        .is_err());
        // Requests larger than the per-rank slab are rejected.
        assert!(DslWorkload {
            file_size: 1 << 20,
            nprocs: 8,
            expr: WorkloadExpr::Pattern(AccessPattern {
                size: SizeDistr::Fixed { bytes: 1 << 20 },
                ..AccessPattern::default()
            }),
            ..DslWorkload::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn expr_round_trips_through_json() {
        let w = DslWorkload {
            name: "mix".into(),
            nprocs: 4,
            file_size: 16 << 20,
            seed: 99,
            expr: WorkloadExpr::Phased {
                phases: 2,
                compute_secs: 0.01,
                body: Box::new(WorkloadExpr::Interleave(vec![
                    WorkloadExpr::Pattern(AccessPattern {
                        ops: 16,
                        offsets: OffsetDistr::ZipfHotspot { theta: 0.9 },
                        ..AccessPattern::default()
                    }),
                    WorkloadExpr::Repeat {
                        times: 2,
                        body: Box::new(leaf(8)),
                    },
                ])),
            },
        };
        let json = serde_json::to_string(&w).expect("serialize");
        let back: DslWorkload = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, w);
        assert_eq!(back.build(FileId(1)), w.build(FileId(1)));
    }
}
