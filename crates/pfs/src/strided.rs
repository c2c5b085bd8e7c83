//! Strided runs: `count` equal blocks whose starts lie a fixed stride
//! apart — the flattened shape of an MPI vector or 2-D subarray datatype,
//! kept as four numbers instead of one [`FileRegion`] per block.
//!
//! Every query here is O(1) except iteration, so layers that only need
//! totals, one block, or the part of the run inside a window (a cache
//! chunk) never materialise the blocks.

use crate::layout::FileRegion;

/// `count` blocks of `block` bytes, the `i`-th at `base + i * stride`.
///
/// Blocks never overlap: [`Strided::new`] rejects `stride < block` when
/// there are two or more blocks. A run with no bytes is canonicalised to
/// `count == 0`, so `len()` counts non-empty blocks only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Strided {
    base: u64,
    block: u64,
    stride: u64,
    count: u64,
}

impl Strided {
    /// A run of `count` blocks of `block` bytes, `stride` bytes apart.
    ///
    /// # Panics
    /// Panics when two or more blocks would overlap (`stride < block`), or
    /// when the run ends past `u64::MAX`. Both are checked in release
    /// builds: an overlapping run would double-count its bytes.
    pub fn new(base: u64, block: u64, stride: u64, count: u64) -> Self {
        if block == 0 || count == 0 {
            return Strided {
                base,
                block: 0,
                stride: 0,
                count: 0,
            };
        }
        if count == 1 {
            return Strided::one(FileRegion::new(base, block));
        }
        assert!(
            stride >= block,
            "overlapping strided blocks: stride {stride} < block {block}"
        );
        (count - 1)
            .checked_mul(stride)
            .and_then(|span| span.checked_add(block))
            .and_then(|span| span.checked_add(base))
            .expect("strided run ends past u64::MAX");
        Strided {
            base,
            block,
            stride,
            count,
        }
    }

    /// The single region `r` as a run (empty when `r` is).
    #[inline]
    pub fn one(r: FileRegion) -> Self {
        let count = u64::from(r.len > 0);
        Strided {
            base: r.offset,
            block: r.len,
            stride: r.len,
            count,
        }
    }

    /// Number of (non-empty) blocks.
    #[inline]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when the run holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total bytes of all blocks.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.count * self.block
    }

    /// Block `i` (`i < len()`).
    #[inline]
    pub fn get(&self, i: u64) -> FileRegion {
        debug_assert!(i < self.count, "block {i} of a {}-block run", self.count);
        FileRegion::new(self.base + i * self.stride, self.block)
    }

    /// First byte of the run (the base, for an empty run).
    #[inline]
    pub fn start(&self) -> u64 {
        self.base
    }

    /// One past the last byte of the run (the base, for an empty run).
    #[inline]
    pub fn end(&self) -> u64 {
        match self.count {
            0 => self.base,
            n => self.base + (n - 1) * self.stride + self.block,
        }
    }

    /// The blocks in ascending offset order.
    #[inline]
    pub fn iter(&self) -> Blocks {
        Blocks {
            run: *self,
            next: 0,
            end: self.count,
        }
    }

    /// For an offset `d` bytes past the base of a non-empty run: the block
    /// whose stride period holds it, clamped to the last block, and `d`'s
    /// distance from that block's start. Division-free in the first period
    /// and past the last block start, which covers every query on a
    /// one-block run.
    #[inline]
    fn period_of(&self, d: u64) -> (u64, u64) {
        let last = self.count - 1;
        let last_start = last * self.stride;
        if d >= last_start {
            return (last, d - last_start);
        }
        if d < self.stride {
            return (0, d);
        }
        let k = d / self.stride;
        (k, d - k * self.stride)
    }

    /// Index of the first block ending after `pos`, or `len()` if none.
    #[inline]
    fn first_ending_after(&self, pos: u64) -> u64 {
        if self.count == 0 || pos < self.base {
            return 0;
        }
        let (k, into) = self.period_of(pos - self.base);
        k + u64::from(into >= self.block)
    }

    /// Index one past the last block starting before `pos`.
    #[inline]
    fn last_starting_before(&self, pos: u64) -> u64 {
        if self.count == 0 || pos <= self.base {
            return 0;
        }
        self.period_of(pos - self.base - 1).0 + 1
    }

    /// The first byte of the run at or after `pos`, if any.
    #[inline]
    pub fn first_byte_from(&self, pos: u64) -> Option<u64> {
        let i = self.first_ending_after(pos);
        (i < self.count).then(|| pos.max(self.get(i).offset))
    }

    /// Bytes of the run below offset `x`.
    #[inline]
    fn bytes_below(&self, x: u64) -> u64 {
        if self.count == 0 || x <= self.base {
            return 0;
        }
        let (k, into) = self.period_of(x - self.base);
        k * self.block + into.min(self.block)
    }

    /// Bytes of the run inside `within`.
    #[inline]
    pub fn bytes_in(&self, within: FileRegion) -> u64 {
        self.bytes_below(within.end()) - self.bytes_below(within.offset)
    }

    /// True when the run has two or more blocks and a gap after each:
    /// its blocks are disjoint, non-touching ranges.
    #[inline]
    pub(crate) fn has_gaps(&self) -> bool {
        self.count >= 2 && self.block < self.stride
    }

    /// `self` and `other` as one run, when `other` has the same stride and
    /// block count (two or more) and each of its blocks starts where the
    /// matching block of `self` ends or ends where it starts, without
    /// reaching the next block. `None` otherwise. A result whose blocks
    /// fill their stride is dense: one contiguous range.
    #[inline]
    pub(crate) fn joined(&self, other: &Strided) -> Option<Strided> {
        if self.count < 2 || other.count != self.count || other.stride != self.stride {
            return None;
        }
        let block = self.block + other.block;
        if block > self.stride {
            return None;
        }
        let base = if other.base == self.base + self.block {
            self.base
        } else if other.base + other.block == self.base {
            other.base
        } else {
            return None;
        };
        Some(Strided {
            base,
            block,
            ..*self
        })
    }

    /// The blocks that meet `within`, clipped to it, as ascending
    /// half-open `(start, end)` pairs.
    #[inline]
    pub fn clipped(&self, within: FileRegion) -> Clipped {
        let (lo, hi) = (within.offset, within.end());
        let first = self.first_ending_after(lo);
        let last = if lo < hi {
            self.last_starting_before(hi)
        } else {
            0
        };
        Clipped {
            run: *self,
            next: first,
            end: last.max(first),
            lo,
            hi,
        }
    }
}

/// Iterator over a run's blocks; see [`Strided::iter`].
#[derive(Debug, Clone)]
pub struct Blocks {
    run: Strided,
    next: u64,
    end: u64,
}

impl Iterator for Blocks {
    type Item = FileRegion;

    #[inline]
    fn next(&mut self) -> Option<FileRegion> {
        if self.next >= self.end {
            return None;
        }
        let r = self.run.get(self.next);
        self.next += 1;
        Some(r)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.end - self.next).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

/// Iterator over a run's blocks clipped to a window; see
/// [`Strided::clipped`].
#[derive(Debug, Clone)]
pub struct Clipped {
    run: Strided,
    next: u64,
    end: u64,
    lo: u64,
    hi: u64,
}

impl Clipped {
    /// Start of the first and end of the last clipped block left, if any.
    #[inline]
    pub fn span(&self) -> Option<(u64, u64)> {
        (self.next < self.end).then(|| {
            let first = self.run.get(self.next).offset.max(self.lo);
            let last = self.run.get(self.end - 1).end().min(self.hi);
            (first, last)
        })
    }

    /// Bytes of the clipped blocks left: [`Strided::bytes_in`] of the
    /// window while none are taken. O(1) and division-free: the whole
    /// blocks less what the window cuts off the first and the last.
    #[inline]
    pub fn bytes(&self) -> u64 {
        if self.next >= self.end {
            return 0;
        }
        let first = self.run.get(self.next).offset;
        let last_end = self.run.get(self.end - 1).end();
        (self.end - self.next) * self.run.block
            - self.lo.saturating_sub(first)
            - last_end.saturating_sub(self.hi)
    }

    /// The blocks left as one run, when the window cuts neither the first
    /// nor the last of them. `None` when it does or no block is left.
    #[inline]
    pub(crate) fn uncut(&self) -> Option<Strided> {
        if self.next >= self.end {
            return None;
        }
        let first = self.run.get(self.next);
        let last = self.run.get(self.end - 1);
        (first.offset >= self.lo && last.end() <= self.hi).then(|| {
            Strided::new(
                first.offset,
                self.run.block,
                self.run.stride,
                self.end - self.next,
            )
        })
    }
}

impl Iterator for Clipped {
    type Item = (u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64)> {
        if self.next >= self.end {
            return None;
        }
        let r = self.run.get(self.next);
        self.next += 1;
        Some((r.offset.max(self.lo), r.end().min(self.hi)))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.end - self.next).expect("block count fits in usize");
        (n, Some(n))
    }
}

impl ExactSizeIterator for Clipped {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(o: u64, l: u64) -> FileRegion {
        FileRegion::new(o, l)
    }

    #[test]
    fn blocks_and_totals() {
        let s = Strided::new(1000, 16, 64, 3);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![r(1000, 16), r(1064, 16), r(1128, 16)]
        );
        assert_eq!(
            (s.len(), s.bytes(), s.start(), s.end()),
            (3, 48, 1000, 1144)
        );
        assert_eq!(s.get(2), r(1128, 16));
    }

    #[test]
    fn empty_and_single_runs_are_canonical() {
        assert!(Strided::new(5, 0, 64, 9).is_empty());
        assert!(Strided::new(5, 16, 64, 0).is_empty());
        assert!(Strided::one(r(5, 0)).is_empty());
        assert_eq!(Strided::new(5, 0, 0, 9).iter().count(), 0);
        // A one-block run ignores its stride.
        assert_eq!(Strided::new(7, 10, 0, 1), Strided::one(r(7, 10)));
    }

    #[test]
    fn dense_runs_are_allowed() {
        let s = Strided::new(0, 32, 32, 4);
        assert_eq!(s.bytes(), 128);
        assert_eq!(s.end(), 128);
    }

    #[test]
    #[should_panic(expected = "overlapping strided blocks")]
    fn overlapping_blocks_are_rejected() {
        Strided::new(0, 64, 16, 2);
    }

    #[test]
    fn clipping_cuts_partial_blocks() {
        let s = Strided::new(100, 16, 64, 4); // 100..116, 164..180, 228..244, 292..308
        let c = s.clipped(r(110, 130)); // [110, 240)
        assert_eq!(c.span(), Some((110, 240)));
        assert_eq!(
            c.collect::<Vec<_>>(),
            vec![(110, 116), (164, 180), (228, 240)]
        );
        assert_eq!(s.bytes_in(r(110, 130)), 6 + 16 + 12);
        assert_eq!(s.clipped(r(116, 48)).count(), 0); // the gap 116..164
        assert_eq!(s.first_byte_from(116), Some(164));
        assert_eq!(s.first_byte_from(170), Some(170));
        assert_eq!(s.first_byte_from(308), None);
    }

    #[test]
    fn abutting_runs_join() {
        let s = Strided::new(100, 16, 64, 3); // 100..116, 164..180, 228..244
        let after = Strided::new(116, 8, 64, 3);
        let before = Strided::new(92, 8, 64, 3);
        assert_eq!(s.joined(&after), Some(Strided::new(100, 24, 64, 3)));
        assert_eq!(s.joined(&before), Some(Strided::new(92, 24, 64, 3)));
        // Filling the stride leaves a dense run.
        let fill = Strided::new(116, 48, 64, 3);
        assert_eq!(s.joined(&fill), Some(Strided::new(100, 64, 64, 3)));
        assert!(s.has_gaps());
        assert!(!Strided::new(100, 64, 64, 3).has_gaps());
        // Past the next block, a gap between, another count or stride, or
        // a single block: no join.
        assert_eq!(s.joined(&Strided::new(116, 49, 64, 3)), None);
        assert_eq!(s.joined(&Strided::new(118, 8, 64, 3)), None);
        assert_eq!(s.joined(&Strided::new(116, 8, 64, 2)), None);
        assert_eq!(s.joined(&Strided::new(116, 8, 72, 3)), None);
        assert_eq!(
            Strided::one(r(0, 16)).joined(&Strided::one(r(16, 16))),
            None
        );
    }

    #[test]
    fn uncut_keeps_whole_blocks_only() {
        let s = Strided::new(100, 16, 64, 4); // 100..116, 164..180, 228..244, 292..308
        assert_eq!(s.clipped(r(0, 400)).uncut(), Some(s));
        // Window edges in the gaps keep the middle blocks as one run.
        assert_eq!(
            s.clipped(r(120, 170)).uncut(),
            Some(Strided::new(164, 16, 64, 2))
        );
        assert_eq!(
            s.clipped(r(164, 16)).uncut(),
            Some(Strided::one(r(164, 16)))
        );
        // An edge inside the first or last block cuts it.
        assert_eq!(s.clipped(r(110, 300)).uncut(), None);
        assert_eq!(s.clipped(r(0, 300)).uncut(), None);
        assert_eq!(s.clipped(r(116, 48)).uncut(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Every query against the run's flattened blocks. Bases stay small
        /// beside the windows, so windows often cut a first or last block.
        #[test]
        fn queries_match_the_flattened_blocks(
            base in 0u64..64,
            block in 0u64..24,
            gap in 0u64..24,
            count in 0u64..12,
            lo in 0u64..600,
            len in 0u64..300,
        ) {
            let s = Strided::new(base, block, block + gap, count);
            let blocks: Vec<FileRegion> = (0..count)
                .filter(|_| block > 0)
                .map(|i| r(base + i * (block + gap), block))
                .collect();
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), blocks.clone());
            prop_assert_eq!(s.len(), blocks.len() as u64);
            prop_assert_eq!(s.bytes(), blocks.iter().map(|b| b.len).sum::<u64>());
            let within = r(lo, len);
            let want: Vec<(u64, u64)> = blocks
                .iter()
                .map(|b| (b.offset.max(lo), b.end().min(lo + len)))
                .filter(|&(s, e)| s < e)
                .collect();
            let clipped = s.clipped(within);
            // `uncut` keeps the clipped blocks as one run exactly when the
            // window cuts neither end block, i.e. every clipped block is whole.
            let whole = !want.is_empty() && want.iter().all(|&(s, e)| e - s == block);
            let uncut = clipped.uncut();
            prop_assert_eq!(uncut.is_some(), whole);
            if let Some(u) = uncut {
                let regions: Vec<(u64, u64)> = u.iter().map(|b| (b.offset, b.end())).collect();
                prop_assert_eq!(regions, want.clone());
            }
            let want_bytes: u64 = want.iter().map(|&(s, e)| e - s).sum();
            prop_assert_eq!(clipped.len(), want.len());
            prop_assert_eq!(clipped.span(), want.first().map(|f| (f.0, want[want.len() - 1].1)));
            prop_assert_eq!(clipped.bytes(), want_bytes);
            prop_assert_eq!(clipped.collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(s.bytes_in(within), want_bytes);
            let from = blocks.iter().find(|b| b.end() > lo).map(|b| b.offset.max(lo));
            prop_assert_eq!(s.first_byte_from(lo), from);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `Clipped::bytes` is `bytes_in` of the window: on empty, one-block,
        /// dense and gapped runs, with windows that cut blocks, hold whole
        /// ones, or lie before, between or after the blocks. It also counts
        /// what the iterator still yields once some blocks are taken.
        #[test]
        fn clipped_bytes_equal_bytes_in(
            base in 0u64..64,
            block in 0u64..24,
            gap in prop_oneof![Just(0u64), 1u64..24],
            count in prop_oneof![Just(0u64), Just(1u64), 2u64..12],
            (lo, len) in (0u64..600, 0u64..300),
            taken in 0usize..4,
        ) {
            let s = Strided::new(base, block, block + gap, count);
            let within = r(lo, len);
            let mut clipped = s.clipped(within);
            prop_assert_eq!(clipped.bytes(), s.bytes_in(within));
            for _ in 0..taken {
                clipped.next();
            }
            let rest: u64 = clipped.clone().map(|(s, e)| e - s).sum();
            prop_assert_eq!(clipped.bytes(), rest);
        }
    }
}
