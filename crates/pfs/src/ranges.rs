//! A sorted, disjoint set of byte ranges.
//!
//! Used by the global cache to track which bytes of a chunk are present or
//! dirty, and by the CRM to compute holes between requests. Stored as a
//! sorted `Vec<(start, end)>` of half-open intervals, merged on insert.
//! `insert` and `remove` return the bytes they added or removed, so a
//! caller keeping byte totals never has to rescan the set. Their strided
//! twins apply the blocks of a [`Strided`] run clipped to a window (a
//! [`Clipped`], which the caller builds once and may hand to several sets)
//! in one merge pass, with the same byte deltas as inserting or removing
//! the blocks one at a time.
//!
//! A set may instead hold one periodic run: the blocks of a [`Strided`]
//! with two or more blocks and a gap after each. Interleaved strided
//! writes (BTIO's ranks, each writing every k-th cell of a chunk) build it
//! in O(1) per insert: the first run into an empty set becomes the set,
//! and each later run whose blocks abut the set's widens them, until the
//! blocks fill their stride and the set collapses to one range. Any other
//! mutation first expands the run into the explicit list. Queries read
//! either form without allocating.

use crate::layout::FileRegion;
use crate::strided::{Blocks, Clipped, Strided};

/// Set of disjoint half-open byte intervals `[start, end)`.
///
/// Equality is set equality: two sets are equal when they cover the same
/// bytes, whichever form each is stored in.
#[derive(Debug, Clone, Default)]
pub struct RangeSet {
    repr: Repr,
}

/// The two forms of a [`RangeSet`]. The periodic run sits behind a pointer
/// so a set stays as small as its `Vec`.
#[derive(Debug, Clone)]
enum Repr {
    /// Sorted, disjoint, non-touching, non-empty runs.
    Runs(Vec<(u64, u64)>),
    /// The blocks of a run with [`Strided::has_gaps`].
    Periodic(Box<Strided>),
}

impl Default for Repr {
    #[inline]
    fn default() -> Self {
        Repr::Runs(Vec::new())
    }
}

impl PartialEq for RangeSet {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for RangeSet {}

/// One-past-the-end offset of `[start, start+len)`. A range whose end
/// exceeds `u64::MAX` is a caller bug (file offsets are byte positions, so
/// the last representable byte is `u64::MAX - 1`); catch it loudly in debug
/// builds and clamp to `u64::MAX` in release rather than wrapping around to
/// a tiny end and silently corrupting the run list.
#[inline]
fn range_end(start: u64, len: u64) -> u64 {
    debug_assert!(
        start.checked_add(len).is_some(),
        "byte range overflows u64: start={start} len={len}"
    );
    start.saturating_add(len)
}

/// Iterator over a set's runs; see [`RangeSet::iter`].
enum Iter<'a> {
    Runs(std::slice::Iter<'a, (u64, u64)>),
    Periodic(Blocks),
}

impl Iterator for Iter<'_> {
    type Item = (u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64)> {
        match self {
            Iter::Runs(runs) => runs.next().copied(),
            Iter::Periodic(blocks) => blocks.next().map(|b| (b.offset, b.end())),
        }
    }
}

/// The blocks of a periodic run as explicit runs. Out of line: the
/// mutations that call it stay small on their hot, explicit path.
#[cold]
#[inline(never)]
fn expand(p: &Strided) -> Vec<(u64, u64)> {
    p.iter().map(|b| (b.offset, b.end())).collect()
}

/// The gaps that `runs` leave in `[start, end)`, as `(offset, len)` pairs.
/// `runs` ascend, and each starts before `end` and ends after `start`.
fn gaps_between(runs: impl Iterator<Item = (u64, u64)>, start: u64, end: u64) -> Vec<(u64, u64)> {
    let mut gaps = Vec::new();
    let mut cursor = start;
    for (rs, re) in runs {
        if rs > cursor {
            gaps.push((cursor, rs - cursor));
        }
        cursor = cursor.max(re);
    }
    if cursor < end {
        gaps.push((cursor, end - cursor));
    }
    gaps
}

impl RangeSet {
    /// The empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// A set containing the single interval `[start, start+len)`.
    pub fn from_range(start: u64, len: u64) -> Self {
        let mut s = RangeSet::new();
        s.insert(start, len);
        s
    }

    /// The explicit run list, expanding a periodic run into it first.
    #[inline]
    fn runs_mut(&mut self) -> &mut Vec<(u64, u64)> {
        if let Repr::Periodic(p) = &self.repr {
            self.repr = Repr::Runs(expand(p));
        }
        match &mut self.repr {
            Repr::Runs(runs) => runs,
            Repr::Periodic(_) => unreachable!("periodic set was just expanded"),
        }
    }

    /// Does the set cover nothing?
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Runs(runs) => runs.is_empty(),
            Repr::Periodic(_) => false,
        }
    }

    /// Number of disjoint runs.
    pub fn num_runs(&self) -> usize {
        match &self.repr {
            Repr::Runs(runs) => runs.len(),
            Repr::Periodic(p) => usize::try_from(p.len()).unwrap_or(usize::MAX),
        }
    }

    /// Total bytes covered.
    pub fn covered(&self) -> u64 {
        match &self.repr {
            Repr::Runs(runs) => runs.iter().map(|&(s, e)| e - s).sum(),
            Repr::Periodic(p) => p.bytes(),
        }
    }

    /// Iterate the disjoint `(start, end)` runs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        match &self.repr {
            Repr::Runs(runs) => Iter::Runs(runs.iter()),
            Repr::Periodic(p) => Iter::Periodic(p.iter()),
        }
    }

    /// Insert `[start, start+len)`, merging with touching/overlapping runs.
    /// Returns the bytes newly covered (`len` minus the bytes already
    /// present), so callers never need a before/after [`covered`] pair.
    ///
    /// [`covered`]: RangeSet::covered
    pub fn insert(&mut self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let runs = self.runs_mut();
        let mut s = start;
        let mut e = range_end(start, len);
        // Find all runs overlapping or touching [s, e).
        let lo = runs.partition_point(|&(_, re)| re < s);
        let mut hi = lo;
        let mut absorbed = 0;
        while hi < runs.len() && runs[hi].0 <= e {
            let (rs, re) = runs[hi];
            absorbed += re - rs;
            s = s.min(rs);
            e = e.max(re);
            hi += 1;
        }
        runs.splice(lo..hi, [(s, e)]);
        (e - s) - absorbed
    }

    /// Remove `[start, start+len)` from the set. Returns the bytes removed.
    /// Works in place: only the runs overlapping the range are replaced
    /// (by at most two trimmed ends), and a range that overlaps nothing
    /// leaves the runs untouched.
    pub fn remove(&mut self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let runs = self.runs_mut();
        let s = start;
        let e = range_end(start, len);
        let lo = runs.partition_point(|&(_, re)| re <= s);
        let mut hi = lo;
        let mut removed = 0;
        while hi < runs.len() && runs[hi].0 < e {
            let (rs, re) = runs[hi];
            removed += re.min(e) - rs.max(s);
            hi += 1;
        }
        if hi == lo {
            return 0;
        }
        let first_start = runs[lo].0;
        let last_end = runs[hi - 1].1;
        // The trimmed ends that survive: `[first_start, s)` and `[e, last_end)`.
        let ends = [(first_start, s), (e, last_end)];
        let keep = usize::from(first_start >= s)..1 + usize::from(last_end > e);
        runs.splice(lo..hi, ends[keep].iter().copied());
        removed
    }

    /// Insert the clipped blocks of a strided run ([`Strided::clipped`]).
    /// Returns the bytes newly covered: exactly what inserting the blocks
    /// one at a time would return in total.
    ///
    /// Two cases take O(1): uncut blocks into an empty set, which become
    /// its periodic run, and uncut blocks that abut a periodic set's
    /// blocks ([`Strided::joined`]), which widen them. Everything else is
    /// one merge pass over the runs the blocks touch.
    pub fn insert_strided(&mut self, blocks: Clipped) -> u64 {
        let Some((first, last)) = blocks.span() else {
            return 0;
        };
        if blocks.len() == 1 {
            return self.insert(first, last - first);
        }
        if let Some(added) = blocks.uncut().and_then(|whole| self.join(whole)) {
            return added;
        }
        // Runs touching or overlapping [first, last] are merged with the
        // blocks; everything outside that section stays put.
        let runs = self.runs_mut();
        let lo = runs.partition_point(|&(_, re)| re < first);
        let hi = runs.partition_point(|&(rs, _)| rs <= last);
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(hi - lo + blocks.len());
        let (mut before, mut after) = (0, 0);
        let mut push = |(s, e): (u64, u64)| match merged.last_mut() {
            Some(prev) if s <= prev.1 => {
                after += e.saturating_sub(prev.1);
                prev.1 = prev.1.max(e);
            }
            _ => {
                after += e - s;
                merged.push((s, e));
            }
        };
        let mut old = runs[lo..hi].iter().copied().peekable();
        for block in blocks {
            while let Some(run) = old.next_if(|&(rs, _)| rs <= block.0) {
                before += run.1 - run.0;
                push(run);
            }
            push(block);
        }
        for run in old {
            before += run.1 - run.0;
            push(run);
        }
        runs.splice(lo..hi, merged);
        after - before
    }

    /// The O(1) cases of [`insert_strided`] for a run of two or more whole
    /// blocks: the set is empty, or periodic with blocks the run abuts.
    /// Returns the bytes added, or `None` with the set untouched.
    ///
    /// [`insert_strided`]: RangeSet::insert_strided
    fn join(&mut self, whole: Strided) -> Option<u64> {
        let joined = match &mut self.repr {
            Repr::Runs(runs) if runs.is_empty() => whole,
            Repr::Runs(_) => return None,
            Repr::Periodic(p) => {
                let joined = p.joined(&whole)?;
                if joined.has_gaps() {
                    **p = joined;
                    return Some(whole.bytes());
                }
                joined
            }
        };
        self.repr = if joined.has_gaps() {
            Repr::Periodic(Box::new(joined))
        } else {
            Repr::Runs(vec![(joined.start(), joined.end())])
        };
        Some(whole.bytes())
    }

    /// Remove the clipped blocks of a strided run ([`Strided::clipped`]) in
    /// one pass over the runs they overlap. Returns the bytes removed:
    /// exactly what removing the blocks one at a time would return in
    /// total.
    pub fn remove_strided(&mut self, blocks: Clipped) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let Some((first, last)) = blocks.span() else {
            return 0;
        };
        if blocks.len() == 1 {
            return self.remove(first, last - first);
        }
        let runs = self.runs_mut();
        let lo = runs.partition_point(|&(_, re)| re <= first);
        let hi = runs.partition_point(|&(rs, _)| rs < last);
        if lo == hi {
            return 0;
        }
        let mut kept: Vec<(u64, u64)> = Vec::with_capacity(hi - lo + blocks.len());
        let mut removed = 0;
        let mut cuts = blocks.peekable();
        for &(rs, re) in &runs[lo..hi] {
            let mut cursor = rs;
            while let Some(&(cs, ce)) = cuts.peek() {
                if cs >= re {
                    break;
                }
                if ce > cursor {
                    if cs > cursor {
                        kept.push((cursor, cs));
                    }
                    removed += ce.min(re) - cs.max(cursor);
                    cursor = ce.min(re);
                }
                if ce > re {
                    // The cut reaches past this run: it may cut the next.
                    break;
                }
                cuts.next();
            }
            if cursor < re {
                kept.push((cursor, re));
            }
        }
        runs.splice(lo..hi, kept);
        removed
    }

    /// Does the set fully cover `[start, start+len)`?
    pub fn contains_range(&self, start: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let e = range_end(start, len);
        match &self.repr {
            Repr::Runs(runs) => {
                let idx = runs.partition_point(|&(_, re)| re <= start);
                match runs.get(idx) {
                    Some(&(rs, re)) => rs <= start && e <= re,
                    None => false,
                }
            }
            Repr::Periodic(p) => p.bytes_in(FileRegion::new(start, e - start)) == e - start,
        }
    }

    /// Bytes of `[start, start+len)` covered by the set.
    pub fn intersect_len(&self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let e = range_end(start, len);
        match &self.repr {
            Repr::Runs(runs) => {
                let mut covered = 0;
                let idx = runs.partition_point(|&(_, re)| re <= start);
                for &(rs, re) in &runs[idx..] {
                    if rs >= e {
                        break;
                    }
                    covered += re.min(e) - rs.max(start);
                }
                covered
            }
            Repr::Periodic(p) => p.bytes_in(FileRegion::new(start, e - start)),
        }
    }

    /// The gaps of `[start, start+len)` not covered by the set.
    pub fn gaps(&self, start: u64, len: u64) -> Vec<(u64, u64)> {
        let e = range_end(start, len);
        match &self.repr {
            Repr::Runs(runs) => {
                let idx = runs.partition_point(|&(_, re)| re <= start);
                let inside = runs[idx..].iter().copied().take_while(|&(rs, _)| rs < e);
                gaps_between(inside, start, e)
            }
            Repr::Periodic(p) => {
                gaps_between(p.clipped(FileRegion::new(start, e - start)), start, e)
            }
        }
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        if let Repr::Runs(runs) = &mut self.repr {
            runs.clear();
        } else {
            self.repr = Repr::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_merges_touching() {
        let mut r = RangeSet::new();
        r.insert(0, 10);
        r.insert(10, 10); // touching
        assert_eq!(r.num_runs(), 1);
        assert_eq!(r.covered(), 20);
        r.insert(30, 5);
        assert_eq!(r.num_runs(), 2);
        r.insert(15, 20); // bridges the gap
        assert_eq!(r.num_runs(), 1);
        assert_eq!(r.covered(), 35);
    }

    #[test]
    fn insert_overlapping_is_idempotent() {
        let mut r = RangeSet::from_range(5, 10);
        r.insert(5, 10);
        r.insert(7, 3);
        assert_eq!(r.covered(), 10);
        assert_eq!(r.num_runs(), 1);
    }

    #[test]
    fn remove_splits_runs() {
        let mut r = RangeSet::from_range(0, 100);
        r.remove(40, 20);
        assert_eq!(r.num_runs(), 2);
        assert_eq!(r.covered(), 80);
        assert!(r.contains_range(0, 40));
        assert!(r.contains_range(60, 40));
        assert!(!r.contains_range(39, 2));
    }

    #[test]
    fn remove_nonexistent_is_noop() {
        let mut r = RangeSet::from_range(0, 10);
        assert_eq!(r.remove(50, 10), 0);
        assert_eq!(r.covered(), 10);
    }

    #[test]
    fn insert_and_remove_return_byte_deltas() {
        let mut r = RangeSet::new();
        assert_eq!(r.insert(0, 10), 10);
        assert_eq!(r.insert(5, 10), 5); // 10..15 is new
        assert_eq!(r.insert(20, 5), 5);
        assert_eq!(r.insert(0, 30), 10); // fills 15..20 and 25..30
        assert_eq!(r.insert(3, 4), 0);
        assert_eq!(r.remove(10, 5), 5); // splits the run
        assert_eq!(r.num_runs(), 2);
        assert_eq!(r.remove(5, 20), 15); // trims both neighbours
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(0, 5), (25, 30)]);
        assert_eq!(r.remove(0, 40), 10);
        assert!(r.is_empty());
    }

    #[test]
    fn contains_range_edges() {
        let r = RangeSet::from_range(10, 10);
        assert!(r.contains_range(10, 10));
        assert!(r.contains_range(15, 5));
        assert!(!r.contains_range(15, 6));
        assert!(!r.contains_range(9, 2));
        assert!(r.contains_range(0, 0)); // empty range trivially contained
    }

    #[test]
    fn intersect_len_partial() {
        let mut r = RangeSet::new();
        r.insert(0, 10);
        r.insert(20, 10);
        assert_eq!(r.intersect_len(5, 20), 10); // 5..10 and 20..25
        assert_eq!(r.intersect_len(10, 10), 0);
        assert_eq!(r.intersect_len(0, 30), 20);
    }

    #[test]
    fn gaps_are_complement() {
        let mut r = RangeSet::new();
        r.insert(10, 10);
        r.insert(30, 10);
        let gaps = r.gaps(0, 50);
        assert_eq!(gaps, vec![(0, 10), (20, 10), (40, 10)]);
        assert_eq!(r.gaps(10, 10), vec![]);
        assert_eq!(r.gaps(12, 5), vec![]);
    }

    #[test]
    fn zero_len_operations() {
        let mut r = RangeSet::new();
        r.insert(5, 0);
        assert!(r.is_empty());
        r.insert(5, 5);
        r.remove(6, 0);
        assert_eq!(r.covered(), 5);
        assert_eq!(r.intersect_len(0, 0), 0);
    }

    #[test]
    fn near_max_ranges_are_exact() {
        // The largest representable range ends exactly at u64::MAX.
        let start = u64::MAX - 100;
        let mut r = RangeSet::from_range(start, 100);
        assert_eq!(r.covered(), 100);
        assert!(r.contains_range(start, 100));
        assert!(r.contains_range(u64::MAX - 1, 1));
        assert_eq!(r.intersect_len(start, 100), 100);
        assert_eq!(r.gaps(start, 100), vec![]);
        r.remove(start + 40, 20);
        assert_eq!(r.covered(), 80);
        assert_eq!(r.gaps(start, 100), vec![(start + 40, 20)]);
    }

    #[test]
    fn set_stays_small() {
        // The periodic run sits behind a pointer: a set costs its `Vec`.
        assert_eq!(std::mem::size_of::<RangeSet>(), 24);
    }

    /// Rank `k` of four writing 16-byte cells at a 64-byte stride.
    fn rank(k: u64) -> Strided {
        Strided::new(k * 16, 16, 64, 4)
    }

    #[test]
    fn interleaved_ranks_stay_periodic_and_collapse() {
        let window = FileRegion::new(0, 256);
        let mut r = RangeSet::new();
        assert_eq!(r.insert_strided(rank(1).clipped(window)), 64);
        assert!(matches!(r.repr, Repr::Periodic(_)));
        assert_eq!(r.insert_strided(rank(2).clipped(window)), 64); // appends
        assert_eq!(r.insert_strided(rank(0).clipped(window)), 64); // prepends
        assert!(matches!(r.repr, Repr::Periodic(_)));
        assert_eq!((r.num_runs(), r.covered()), (4, 192));
        assert_eq!(
            r.iter().take(2).collect::<Vec<_>>(),
            vec![(0, 48), (64, 112)]
        );
        assert!(r.contains_range(64, 48));
        assert!(!r.contains_range(40, 16));
        assert_eq!(r.intersect_len(40, 40), 8 + 16);
        assert_eq!(r.gaps(40, 40), vec![(48, 16)]);
        assert_eq!(r.insert_strided(rank(3).clipped(window)), 64); // fills the stride
        assert!(matches!(&r.repr, Repr::Runs(runs) if runs == &[(0, 256)]));
    }

    #[test]
    fn other_strided_inserts_take_the_merge() {
        let window = FileRegion::new(0, 256);
        // A window that cuts the first block keeps the explicit form.
        let mut cut = RangeSet::new();
        assert_eq!(cut.insert_strided(rank(0).clipped(FileRegion::new(8, 248))), 56);
        assert!(matches!(cut.repr, Repr::Runs(_)));
        // A run whose blocks do not abut the periodic ones expands them.
        let mut apart = RangeSet::new();
        apart.insert_strided(rank(0).clipped(window));
        assert_eq!(apart.insert_strided(rank(2).clipped(window)), 64);
        assert!(matches!(apart.repr, Repr::Runs(_)));
        assert_eq!(apart.num_runs(), 8);
        // A periodic set equals the same bytes held as explicit runs.
        let mut periodic = RangeSet::new();
        periodic.insert_strided(rank(0).clipped(window));
        let mut explicit = RangeSet::new();
        for k in 0..4 {
            explicit.insert(k * 64, 16);
        }
        assert_eq!(periodic, explicit);
        // Any other mutation expands it first.
        assert_eq!(periodic.remove(8, 64), 8 + 8);
        assert!(matches!(periodic.repr, Repr::Runs(_)));
        assert_eq!(
            periodic.iter().collect::<Vec<_>>(),
            vec![(0, 8), (72, 80), (128, 144), (192, 208)]
        );
        periodic.clear();
        assert!(periodic.is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "byte range overflows u64")]
    fn overflowing_range_panics_in_debug() {
        let mut r = RangeSet::new();
        r.insert(u64::MAX - 5, 10);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Ranges pinned near `u64::MAX` whose end still fits in `u64`.
        fn near_max_range() -> impl Strategy<Value = (u64, u64)> {
            (0u64..4096).prop_flat_map(|back| {
                let start = u64::MAX - back;
                (Just(start), 0..=back)
            })
        }

        /// Window of the bitmap oracle below.
        const SPAN: usize = 256;

        /// The canonical runs of a byte bitmap.
        fn bitmap_runs(bits: &[bool]) -> Vec<(u64, u64)> {
            let mut runs = Vec::new();
            let mut i = 0;
            while i < bits.len() {
                if bits[i] {
                    let s = i;
                    while i < bits.len() && bits[i] {
                        i += 1;
                    }
                    runs.push((s as u64, i as u64));
                } else {
                    i += 1;
                }
            }
            runs
        }

        /// Check every query of `r` against the bitmap `bits`: the runs,
        /// their count and bytes, and `contains_range`, `intersect_len` and
        /// `gaps` over the probe window `(plo, plen)`.
        fn check_queries(r: &RangeSet, bits: &[bool], (plo, plen): (u64, u64)) {
            let want = bitmap_runs(bits);
            let got: Vec<(u64, u64)> = r.iter().collect();
            prop_assert!(got.iter().all(|&(s, e)| s < e));
            prop_assert!(got.windows(2).all(|w| w[0].1 < w[1].0));
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(r.num_runs(), want.len());
            prop_assert_eq!(r.is_empty(), want.is_empty());
            let set = bits.iter().filter(|&&b| b).count() as u64;
            prop_assert_eq!(r.covered(), set);
            let probe = &bits[plo as usize..(plo + plen) as usize];
            let hit = probe.iter().filter(|&&b| b).count() as u64;
            prop_assert_eq!(r.intersect_len(plo, plen), hit, "probe {:?}", (plo, plen));
            prop_assert_eq!(
                r.contains_range(plo, plen),
                hit == plen,
                "probe {:?}",
                (plo, plen)
            );
            let gaps: Vec<(u64, u64)> = bitmap_runs(&probe.iter().map(|&b| !b).collect::<Vec<_>>())
                .into_iter()
                .map(|(s, e)| (plo + s, e - s))
                .collect();
            prop_assert_eq!(r.gaps(plo, plen), gaps, "probe {:?}", (plo, plen));
        }

        /// Apply one op to the set and the bitmap; check its byte delta.
        /// Ops 0/1 insert/remove `[start, start + len)`; ops 2/3
        /// insert/remove `run` clipped to `within`.
        fn apply(
            r: &mut RangeSet,
            bits: &mut [bool],
            op: u8,
            (start, len): (u64, u64),
            run: Strided,
            within: FileRegion,
        ) {
            let is_insert = op.is_multiple_of(2);
            let before = r.clone();
            let spans: Vec<(u64, u64)> = if op < 2 {
                vec![(start, start + len)]
            } else {
                run.clipped(within).collect()
            };
            let mut flips = 0;
            for &(s, e) in &spans {
                let window = &mut bits[s as usize..e as usize];
                flips += window.iter().filter(|&&b| b != is_insert).count() as u64;
                window.fill(is_insert);
            }
            let delta = match op {
                0 => r.insert(start, len),
                1 => r.remove(start, len),
                2 => r.insert_strided(run.clipped(within)),
                _ => r.remove_strided(run.clipped(within)),
            };
            prop_assert_eq!(
                delta,
                flips,
                "op {} {:?} {:?} {:?}",
                op,
                (start, len),
                run,
                within
            );
            if delta == 0 {
                prop_assert_eq!(&*r, &before, "an op that moves no byte");
            }
        }

        proptest! {
            #[test]
            fn deltas_match_bitmap_oracle(
                ops in proptest::collection::vec(
                    (
                        (0u8..4, 0u64..SPAN as u64, 0u64..48),
                        (0u64..12, 0u64..12, 0u64..10),
                        (0u64..SPAN as u64 + 48, 0u64..200),
                    ),
                    1..64,
                ),
                probes in proptest::collection::vec((0u64..SPAN as u64 + 48, 0u64..200), 64),
            ) {
                // Strided ops use the run at `start` (block, block + gap,
                // count), clipped to the window `(wlo, wlen)`.
                let mut r = RangeSet::new();
                let mut bits = [false; SPAN + 512];
                for (i, &((op, start, len), (block, gap, count), (wlo, wlen))) in ops.iter().enumerate() {
                    let run = Strided::new(start, block, block + gap, count);
                    apply(&mut r, &mut bits, op, (start, len), run, FileRegion::new(wlo, wlen));
                    check_queries(&r, &bits, probes[i]);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// BTIO's interleave: `k` ranks each write every k-th cell of a
            /// stride (plus an optional gap that keeps the blocks from ever
            /// filling it), in a random rank order, clipped to windows that
            /// need not align with the stride, with plain inserts and
            /// removes now and then. In rank order the set stays periodic
            /// and collapses to one run; other orders and cut windows take
            /// the merge.
            #[test]
            fn interleaved_strided_inserts_match_bitmap_oracle(
                (ranks, cell, gap, count, base) in (1u64..7, 1u64..7, 0u64..3, 1u64..9, 0u64..20),
                keys in proptest::collection::vec(any::<u64>(), 6),
                passes in proptest::collection::vec(
                    (any::<bool>(), 0u64..320, 0u64..340),
                    1..3,
                ),
                extras in proptest::collection::vec((0u8..8, 0u64..300, 0u64..40), 12),
                probes in proptest::collection::vec((0u64..320, 0u64..200), 12),
            ) {
                let stride = ranks * cell + gap;
                let mut order: Vec<u64> = (0..ranks).collect();
                if keys[0].is_multiple_of(2) {
                    order.sort_by_key(|&k| keys[k as usize]);
                }
                let mut r = RangeSet::new();
                let mut bits = [false; 768];
                for &(whole, wlo, wlen) in &passes {
                    let within = if whole {
                        FileRegion::new(0, 768)
                    } else {
                        FileRegion::new(wlo, wlen)
                    };
                    for (i, &rank) in order.iter().enumerate() {
                        let run = Strided::new(base + rank * cell, cell, stride, count);
                        apply(&mut r, &mut bits, 2, (0, 0), run, within);
                        check_queries(&r, &bits, probes[i]);
                        let (op, start, len) = extras[i];
                        if op < 2 {
                            apply(&mut r, &mut bits, op, (start, len), run, within);
                            check_queries(&r, &bits, probes[i + 6]);
                        }
                    }
                }
            }
        }

        proptest! {

            #[test]
            fn single_insert_near_max_round_trips(
                (start, len) in near_max_range()
            ) {
                let r = RangeSet::from_range(start, len);
                prop_assert_eq!(r.covered(), len);
                prop_assert!(r.contains_range(start, len));
                prop_assert_eq!(r.intersect_len(start, len), len);
                prop_assert_eq!(r.gaps(start, len), vec![]);
            }

            #[test]
            fn insert_remove_near_max_is_consistent(
                (s1, l1) in near_max_range(),
                (s2, l2) in near_max_range(),
            ) {
                let mut r = RangeSet::new();
                r.insert(s1, l1);
                r.insert(s2, l2);
                // covered == probe-based count over the union window
                // (bounded: lo >= u64::MAX - 4095, so <= 4096 probes).
                let lo = s1.min(s2);
                let want: u64 = (lo..=u64::MAX)
                    .filter(|&b| {
                        (b >= s1 && b - s1 < l1) || (b >= s2 && b - s2 < l2)
                    })
                    .count() as u64;
                prop_assert_eq!(r.covered(), want);
                r.remove(s2, l2);
                prop_assert_eq!(r.intersect_len(s2, l2), 0);
                // gaps ∪ runs must tile the removed window exactly.
                let gap_total: u64 =
                    r.gaps(s2, l2).iter().map(|&(_, g)| g).sum();
                prop_assert_eq!(gap_total + r.intersect_len(s2, l2), l2);
            }
        }
    }
}
