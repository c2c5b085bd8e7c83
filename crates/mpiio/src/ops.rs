//! The process-script model: what an MPI process *does*.
//!
//! A process is a sequence of compute bursts, I/O calls, and barriers. This
//! is the level at which DualPar's ghost processes replay execution: a ghost
//! walks the same script ahead of the blocked main process, *recording* the
//! I/O it encounters instead of issuing it.
//!
//! Data-dependent I/O (Table III) is modelled by a script's side table of
//! the regions a ghost would *predict* for some of its calls: for ordinary
//! I/O prediction is perfect (pre-execution re-runs the real computation),
//! for dependent I/O the prediction is wrong and the prefetched data goes
//! unused. Few calls have one, so the table sits beside the ops instead of
//! costing every op a field: an `Op` is 32 bytes.

use crate::datatype::Datatype;
use crate::regions::Regions;
use dualpar_pfs::FileId;
use dualpar_sim::SimDuration;

pub use dualpar_disk::IoKind;

/// One I/O call as issued by the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoCall {
    /// Read or write.
    pub kind: IoKind,
    /// Target file.
    pub file: FileId,
    /// The regions actually accessed, ascending by offset.
    pub regions: Regions,
    /// Whether this call is a collective MPI-IO call (all ranks must arrive
    /// before any proceeds).
    pub collective: bool,
}

impl IoCall {
    /// An independent read of `regions`.
    pub fn read(file: FileId, regions: impl Into<Regions>) -> Self {
        IoCall {
            kind: IoKind::Read,
            file,
            regions: regions.into(),
            collective: false,
        }
    }

    /// An independent write of `regions`.
    pub fn write(file: FileId, regions: impl Into<Regions>) -> Self {
        IoCall {
            kind: IoKind::Write,
            file,
            regions: regions.into(),
            collective: false,
        }
    }

    /// A call whose regions come from one datatype instance at `base`.
    pub fn from_datatype(kind: IoKind, file: FileId, dt: &Datatype, base: u64) -> Self {
        IoCall {
            kind,
            file,
            regions: dt.lower(base),
            collective: false,
        }
    }

    /// Mark the call collective (all ranks synchronise on it).
    pub fn collective(mut self) -> Self {
        self.collective = true;
        self
    }

    /// Total bytes the call moves.
    pub fn bytes(&self) -> u64 {
        self.regions.bytes()
    }
}

/// One step of a process script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Pure computation for the given duration.
    Compute(SimDuration),
    /// A (synchronous) I/O call.
    Io(IoCall),
    /// Synchronise with all ranks of the program at this barrier id.
    /// Barrier ids must appear in the same order in every rank's script.
    Barrier(u64),
}

/// The full script of one rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcessScript {
    /// The steps, executed in order.
    pub ops: Vec<Op>,
    /// Data-dependent calls: `(op index, regions)` of what a ghost
    /// pre-execution would fetch instead of the call's actual regions (it
    /// cannot know the true addresses because the data they depend on has
    /// not been read yet). Strictly ascending by op index, and each index
    /// names an [`Op::Io`]; a call absent from the table is predicted
    /// exactly. Read it through [`ProcessScript::ghost_regions`].
    pub predicted: Vec<(usize, Regions)>,
}

impl ProcessScript {
    /// Wrap an op list whose every call is predicted exactly.
    pub fn new(ops: Vec<Op>) -> Self {
        ProcessScript {
            ops,
            predicted: Vec::new(),
        }
    }

    /// The regions a ghost pre-execution would request for the I/O call at
    /// op `pos`: its prediction when it has one, else the regions it
    /// accesses. `None` when op `pos` is not an I/O call.
    pub fn ghost_regions(&self, pos: usize) -> Option<&Regions> {
        let Some(Op::Io(call)) = self.ops.get(pos) else {
            return None;
        };
        Some(
            match self.predicted.binary_search_by_key(&pos, |&(i, _)| i) {
                Ok(k) => &self.predicted[k].1,
                Err(_) => &call.regions,
            },
        )
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the script has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total compute time in the script.
    pub fn total_compute(&self) -> SimDuration {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Compute(d) => Some(*d),
                _ => None,
            })
            .sum()
    }

    /// Total bytes moved by I/O calls.
    pub fn total_io_bytes(&self) -> u64 {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Io(c) => Some(c.bytes()),
                _ => None,
            })
            .sum()
    }

    /// Number of I/O calls in the script.
    pub fn num_io_calls(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, Op::Io(_))).count()
    }
}

/// A multi-rank program: one script per rank plus a label.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramScript {
    /// Program label used in reports.
    pub name: String,
    /// One script per rank.
    pub ranks: Vec<ProcessScript>,
}

impl ProgramScript {
    /// Number of ranks.
    pub fn nprocs(&self) -> usize {
        self.ranks.len()
    }

    /// Sanity check: all ranks see the same barrier sequence.
    pub fn barriers_consistent(&self) -> bool {
        fn seq(s: &ProcessScript) -> impl Iterator<Item = u64> + '_ {
            s.ops.iter().filter_map(|o| match o {
                Op::Barrier(id) => Some(*id),
                _ => None,
            })
        }
        let Some((first, rest)) = self.ranks.split_first() else {
            return true;
        };
        rest.iter().all(|r| seq(r).eq(seq(first)))
    }

    /// Total bytes moved by all ranks.
    pub fn total_io_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.total_io_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualpar_pfs::FileRegion;

    #[test]
    fn ghost_regions_default_to_actual() {
        let script = ProcessScript::new(vec![Op::Io(IoCall::read(
            FileId(1),
            vec![FileRegion::new(0, 100)],
        ))]);
        assert_eq!(
            script.ghost_regions(0),
            Some(&Regions::from(FileRegion::new(0, 100)))
        );
    }

    #[test]
    fn ghost_regions_use_prediction_when_dependent() {
        let script = ProcessScript {
            ops: vec![
                Op::Compute(SimDuration::from_millis(1)),
                Op::Io(IoCall::read(FileId(1), vec![FileRegion::new(0, 100)])),
                Op::Io(IoCall::read(FileId(1), vec![FileRegion::new(100, 100)])),
                Op::Io(IoCall::read(FileId(1), vec![FileRegion::new(200, 100)])),
            ],
            predicted: vec![
                (1, FileRegion::new(5000, 100).into()),
                (3, FileRegion::new(9000, 100).into()),
            ],
        };
        assert_eq!(
            script.ghost_regions(1),
            Some(&Regions::from(FileRegion::new(5000, 100)))
        );
        assert!(matches!(
            &script.ops[1],
            Op::Io(c) if c.regions == Regions::from(FileRegion::new(0, 100))
        ));
        // A call between two predicted ones is predicted exactly.
        assert_eq!(
            script.ghost_regions(2),
            Some(&Regions::from(FileRegion::new(100, 100)))
        );
        assert_eq!(
            script.ghost_regions(3),
            Some(&Regions::from(FileRegion::new(9000, 100)))
        );
        // Only I/O calls have ghost regions.
        assert_eq!(script.ghost_regions(0), None);
        assert_eq!(script.ghost_regions(4), None);
    }

    #[test]
    fn ops_stay_small() {
        // Scripts hold millions of ops: a strided run lives behind one
        // pointer, a single region is stored inline, and predictions sit in
        // the script's side table.
        assert_eq!(std::mem::size_of::<Op>(), 32);
        assert_eq!(std::mem::size_of::<IoCall>(), 32);
        let op = Op::Io(IoCall::read(FileId(1), FileRegion::new(0, 4096)));
        assert!(matches!(&op, Op::Io(c) if !c.regions.is_strided() && c.regions.len() == 1));
    }

    #[test]
    fn script_accounting() {
        let s = ProcessScript::new(vec![
            Op::Compute(SimDuration::from_millis(5)),
            Op::Io(IoCall::read(FileId(1), vec![FileRegion::new(0, 1000)])),
            Op::Barrier(0),
            Op::Compute(SimDuration::from_millis(3)),
            Op::Io(IoCall::write(FileId(1), vec![FileRegion::new(0, 500)])),
        ]);
        assert_eq!(s.total_compute(), SimDuration::from_millis(8));
        assert_eq!(s.total_io_bytes(), 1500);
        assert_eq!(s.num_io_calls(), 2);
    }

    #[test]
    fn barrier_consistency_check() {
        let a = ProcessScript::new(vec![Op::Barrier(0), Op::Barrier(1)]);
        let b = ProcessScript::new(vec![
            Op::Compute(SimDuration::from_millis(1)),
            Op::Barrier(0),
            Op::Barrier(1),
        ]);
        let good = ProgramScript {
            name: "p".into(),
            ranks: vec![a.clone(), b],
        };
        assert!(good.barriers_consistent());
        let bad = ProgramScript {
            name: "p".into(),
            ranks: vec![a, ProcessScript::new(vec![Op::Barrier(1)])],
        };
        assert!(!bad.barriers_consistent());
    }
}
