//! The regions of one I/O call, kept in the form they were described in.
//!
//! A datatype-described call (`MPI_Type_vector`, a 2-D subarray) is a
//! [`Strided`] run: four numbers however many blocks it selects. BTIO's
//! checkpoint writes select millions of 16-byte cells, so flattening them
//! into one [`FileRegion`] each would cost more memory than the rest of the
//! simulation (Thakur, Gropp & Lusk's point about passing the derived
//! datatype down intact). Every engine consumer reads a call through
//! O(1) queries ([`Regions::len`], [`Regions::bytes`], [`Regions::get`]),
//! the by-value [`Regions::iter`], or the runs of [`Regions::runs`].

use dualpar_pfs::strided::Blocks;
use dualpar_pfs::{FileRegion, Strided};
use std::sync::OnceLock;

/// The regions of one I/O call, ascending by offset.
///
/// One region is stored inline (no heap allocation), a strided run in one
/// small box, and an explicit list (`MPI_Type_indexed`) as a `Vec`.
#[derive(Clone, Debug)]
pub struct Regions(Repr);

#[derive(Clone, Debug)]
enum Repr {
    One(FileRegion),
    Strided(Box<StridedRegions>),
    List(Vec<FileRegion>),
}

/// A strided run plus its flattened form, built only on demand by
/// [`Regions::as_slice`].
struct StridedRegions {
    run: Strided,
    flat: OnceLock<Vec<FileRegion>>,
}

impl Clone for StridedRegions {
    fn clone(&self) -> Self {
        StridedRegions {
            run: self.run,
            flat: OnceLock::new(),
        }
    }
}

impl std::fmt::Debug for StridedRegions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.run.fmt(f)
    }
}

impl Regions {
    /// The blocks of `run`: inline when it has at most one.
    pub fn strided(run: Strided) -> Self {
        match run.len() {
            0 => Regions::default(),
            1 => Regions(Repr::One(run.get(0))),
            _ => Regions(Repr::Strided(Box::new(StridedRegions {
                run,
                flat: OnceLock::new(),
            }))),
        }
    }

    /// Number of regions. O(1).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::One(_) => 1,
            Repr::Strided(s) => usize::try_from(s.run.len()).expect("region count fits in usize"),
            Repr::List(v) => v.len(),
        }
    }

    /// True when there are no regions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of all regions. O(1) except for an explicit list.
    #[inline]
    pub fn bytes(&self) -> u64 {
        match &self.0 {
            Repr::One(r) => r.len,
            Repr::Strided(s) => s.run.bytes(),
            Repr::List(v) => v.iter().map(|r| r.len).sum(),
        }
    }

    /// Region `i`, if there is one. O(1).
    #[inline]
    pub fn get(&self, i: usize) -> Option<FileRegion> {
        match &self.0 {
            Repr::One(r) => (i == 0).then_some(*r),
            Repr::Strided(s) => {
                let i = u64::try_from(i).ok()?;
                (i < s.run.len()).then(|| s.run.get(i))
            }
            Repr::List(v) => v.get(i).copied(),
        }
    }

    /// The regions by value, in ascending offset order, computed on the fly.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        match &self.0 {
            Repr::One(r) => Iter(IterRepr::One(Some(*r))),
            Repr::Strided(s) => Iter(IterRepr::Strided(s.run.iter())),
            Repr::List(v) => Iter(IterRepr::List(v.iter())),
        }
    }

    /// The regions as strided runs: the one run of a strided call, else one
    /// single-block run per region. What a strided consumer (the cache's
    /// write path) takes.
    #[inline]
    pub fn runs(&self) -> impl Iterator<Item = Strided> + '_ {
        let (run, list) = match &self.0 {
            Repr::One(r) => (Some(Strided::one(*r)), &[][..]),
            Repr::Strided(s) => (Some(s.run), &[][..]),
            Repr::List(v) => (None, &v[..]),
        };
        run.into_iter().chain(list.iter().map(|&r| Strided::one(r)))
    }

    /// True when the regions are held as a strided run.
    pub fn is_strided(&self) -> bool {
        matches!(self.0, Repr::Strided(_))
    }

    /// True once [`Regions::as_slice`] has flattened a strided run.
    pub fn is_flattened(&self) -> bool {
        matches!(&self.0, Repr::Strided(s) if s.flat.get().is_some())
    }

    /// The regions as a slice. A strided run is flattened into a `Vec` on
    /// first use and kept: a compatibility adapter for callers that want
    /// `&[FileRegion]` (or `for &r in &regions`). The simulator itself never
    /// calls it — use [`Regions::iter`] or [`Regions::get`].
    pub fn as_slice(&self) -> &[FileRegion] {
        match &self.0 {
            Repr::One(r) => std::slice::from_ref(r),
            Repr::Strided(s) => s.flat.get_or_init(|| s.run.iter().collect()),
            Repr::List(v) => v,
        }
    }
}

impl Default for Regions {
    /// No regions.
    fn default() -> Self {
        Regions(Repr::List(Vec::new()))
    }
}

impl From<FileRegion> for Regions {
    fn from(r: FileRegion) -> Self {
        Regions(Repr::One(r))
    }
}

impl From<Vec<FileRegion>> for Regions {
    /// An explicit list, stored inline when it holds a single region.
    fn from(v: Vec<FileRegion>) -> Self {
        match v[..] {
            [r] => Regions(Repr::One(r)),
            _ => Regions(Repr::List(v)),
        }
    }
}

impl FromIterator<FileRegion> for Regions {
    fn from_iter<I: IntoIterator<Item = FileRegion>>(iter: I) -> Self {
        Regions::from(iter.into_iter().collect::<Vec<_>>())
    }
}

/// Two region lists are equal when they list the same regions, however
/// they are stored.
impl PartialEq for Regions {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Regions {}

impl<'a> IntoIterator for &'a Regions {
    type Item = &'a FileRegion;
    type IntoIter = std::slice::Iter<'a, FileRegion>;

    /// Iterate by reference through [`Regions::as_slice`], which flattens a
    /// strided run.
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// By-value iterator over [`Regions`]; see [`Regions::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a>(IterRepr<'a>);

#[derive(Debug, Clone)]
enum IterRepr<'a> {
    One(Option<FileRegion>),
    Strided(Blocks),
    List(std::slice::Iter<'a, FileRegion>),
}

impl Iterator for Iter<'_> {
    type Item = FileRegion;

    #[inline]
    fn next(&mut self) -> Option<FileRegion> {
        match &mut self.0 {
            IterRepr::One(r) => r.take(),
            IterRepr::Strided(b) => b.next(),
            IterRepr::List(v) => v.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterRepr::One(r) => (usize::from(r.is_some()), Some(usize::from(r.is_some()))),
            IterRepr::Strided(b) => b.size_hint(),
            IterRepr::List(v) => v.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(o: u64, l: u64) -> FileRegion {
        FileRegion::new(o, l)
    }

    #[test]
    fn strided_queries_do_not_flatten() {
        let regs = Regions::strided(Strided::new(100, 16, 1024, 1000));
        assert!(regs.is_strided());
        assert_eq!(regs.len(), 1000);
        assert_eq!(regs.bytes(), 16_000);
        assert_eq!(regs.get(2), Some(r(2148, 16)));
        assert_eq!(regs.get(1000), None);
        assert_eq!(regs.iter().nth(999), Some(r(100 + 999 * 1024, 16)));
        assert_eq!(regs.runs().count(), 1);
        assert!(!regs.is_flattened());
        // The compatibility adapter flattens once; clones start unflattened.
        let flat: Vec<FileRegion> = (&regs).into_iter().copied().collect();
        assert_eq!(flat, regs.iter().collect::<Vec<_>>());
        assert!(regs.is_flattened());
        assert!(!regs.clone().is_flattened());
    }

    #[test]
    fn small_runs_and_single_regions_stay_inline() {
        assert!(!Regions::strided(Strided::new(0, 8, 64, 1)).is_strided());
        assert!(Regions::strided(Strided::new(0, 0, 64, 9)).is_empty());
        let one = Regions::from(vec![r(5, 10)]);
        assert_eq!(one, Regions::from(r(5, 10)));
        assert_eq!(one.as_slice(), &[r(5, 10)]);
        assert_eq!(one.runs().collect::<Vec<_>>(), vec![Strided::one(r(5, 10))]);
    }

    #[test]
    fn equality_ignores_representation() {
        let strided = Regions::strided(Strided::new(0, 16, 64, 3));
        let list: Regions = [r(0, 16), r(64, 16), r(128, 16)].into_iter().collect();
        assert_eq!(strided, list);
        assert_ne!(strided, Regions::from(r(0, 16)));
        assert_eq!(list.runs().count(), 3);
        assert_eq!(list.bytes(), 48);
    }
}
