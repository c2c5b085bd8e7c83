//! A sorted, disjoint set of byte ranges.
//!
//! Used by the global cache to track which bytes of a chunk are present or
//! dirty, and by the CRM to compute holes between requests. Stored as a
//! sorted `Vec<(start, end)>` of half-open intervals, merged on insert.
//! `insert` and `remove` return the bytes they added or removed, so a
//! caller keeping byte totals never has to rescan the set. Their strided
//! twins apply a whole [`Strided`] run (clipped to a window) in one merge
//! pass, with the same byte deltas as inserting or removing its blocks one
//! at a time.

use crate::layout::FileRegion;
use crate::strided::Strided;
use serde::{Deserialize, Serialize};

/// Set of disjoint half-open byte intervals `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeSet {
    runs: Vec<(u64, u64)>,
}

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

    /// Does the set cover nothing?
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of disjoint runs.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Total bytes covered.
    pub fn covered(&self) -> u64 {
        self.runs.iter().map(|&(s, e)| e - s).sum()
    }

    /// Iterate the disjoint `(start, end)` runs in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().copied()
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
        let mut s = start;
        let mut e = range_end(start, len);
        // Find all runs overlapping or touching [s, e).
        let lo = self.runs.partition_point(|&(_, re)| re < s);
        let mut hi = lo;
        let mut absorbed = 0;
        while hi < self.runs.len() && self.runs[hi].0 <= e {
            let (rs, re) = self.runs[hi];
            absorbed += re - rs;
            s = s.min(rs);
            e = e.max(re);
            hi += 1;
        }
        self.runs.splice(lo..hi, [(s, e)]);
        (e - s) - absorbed
    }

    /// Remove `[start, start+len)` from the set. Returns the bytes removed.
    /// Works in place: only the runs overlapping the range are replaced
    /// (by at most two trimmed ends), and a range that overlaps nothing
    /// leaves the set untouched.
    pub fn remove(&mut self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let s = start;
        let e = range_end(start, len);
        let lo = self.runs.partition_point(|&(_, re)| re <= s);
        let mut hi = lo;
        let mut removed = 0;
        while hi < self.runs.len() && self.runs[hi].0 < e {
            let (rs, re) = self.runs[hi];
            removed += re.min(e) - rs.max(s);
            hi += 1;
        }
        if hi == lo {
            return 0;
        }
        let first_start = self.runs[lo].0;
        let last_end = self.runs[hi - 1].1;
        // The trimmed ends that survive: `[first_start, s)` and `[e, last_end)`.
        let ends = [(first_start, s), (e, last_end)];
        let keep = usize::from(first_start >= s)..1 + usize::from(last_end > e);
        self.runs.splice(lo..hi, ends[keep].iter().copied());
        removed
    }

    /// Insert the blocks of `run` that meet `within`, clipped to it, in one
    /// merge pass over the runs they touch. Returns the bytes newly
    /// covered: exactly what inserting the clipped blocks one at a time
    /// would return in total.
    pub fn insert_strided(&mut self, run: Strided, within: FileRegion) -> u64 {
        let blocks = run.clipped(within);
        let Some((first, last)) = blocks.span() else {
            return 0;
        };
        if blocks.len() == 1 {
            return self.insert(first, last - first);
        }
        // Runs touching or overlapping [first, last] are merged with the
        // blocks; everything outside that section stays put.
        let lo = self.runs.partition_point(|&(_, re)| re < first);
        let hi = self.runs.partition_point(|&(rs, _)| rs <= last);
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
        let mut old = self.runs[lo..hi].iter().copied().peekable();
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
        self.runs.splice(lo..hi, merged);
        after - before
    }

    /// Remove the blocks of `run` that meet `within`, clipped to it, in one
    /// pass over the runs they overlap. Returns the bytes removed: exactly
    /// what removing the clipped blocks one at a time would return in
    /// total.
    pub fn remove_strided(&mut self, run: Strided, within: FileRegion) -> u64 {
        if self.runs.is_empty() {
            return 0;
        }
        let blocks = run.clipped(within);
        let Some((first, last)) = blocks.span() else {
            return 0;
        };
        if blocks.len() == 1 {
            return self.remove(first, last - first);
        }
        let lo = self.runs.partition_point(|&(_, re)| re <= first);
        let hi = self.runs.partition_point(|&(rs, _)| rs < last);
        if lo == hi {
            return 0;
        }
        let mut kept: Vec<(u64, u64)> = Vec::with_capacity(hi - lo + blocks.len());
        let mut removed = 0;
        let mut cuts = blocks.peekable();
        for &(rs, re) in &self.runs[lo..hi] {
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
        self.runs.splice(lo..hi, kept);
        removed
    }

    /// Does the set fully cover `[start, start+len)`?
    pub fn contains_range(&self, start: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let e = range_end(start, len);
        let idx = self.runs.partition_point(|&(_, re)| re <= start);
        match self.runs.get(idx) {
            Some(&(rs, re)) => rs <= start && e <= re,
            None => false,
        }
    }

    /// Bytes of `[start, start+len)` covered by the set.
    pub fn intersect_len(&self, start: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let e = range_end(start, len);
        let mut covered = 0;
        let idx = self.runs.partition_point(|&(_, re)| re <= start);
        for &(rs, re) in &self.runs[idx..] {
            if rs >= e {
                break;
            }
            covered += re.min(e) - rs.max(start);
        }
        covered
    }

    /// The gaps of `[start, start+len)` not covered by the set.
    pub fn gaps(&self, start: u64, len: u64) -> Vec<(u64, u64)> {
        let e = range_end(start, len);
        let mut gaps = Vec::new();
        let mut cursor = start;
        let idx = self.runs.partition_point(|&(_, re)| re <= start);
        for &(rs, re) in &self.runs[idx..] {
            if rs >= e {
                break;
            }
            if rs > cursor {
                gaps.push((cursor, rs - cursor));
            }
            cursor = cursor.max(re);
        }
        if cursor < e {
            gaps.push((cursor, e - cursor));
        }
        gaps
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.runs.clear();
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
                )
            ) {
                // Ops 0/1 insert/remove one range; ops 2/3 insert/remove the
                // strided run at `start` (block, block + gap, count),
                // clipped to the window `(wlo, wlen)`.
                let mut r = RangeSet::new();
                let mut bits = [false; SPAN + 512];
                for &((op, start, len), (block, gap, count), (wlo, wlen)) in &ops {
                    let is_insert = op % 2 == 0;
                    let before = r.runs.clone();
                    let run = Strided::new(start, block, block + gap, count);
                    let within = FileRegion::new(wlo, wlen);
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
                        2 => r.insert_strided(run, within),
                        _ => r.remove_strided(run, within),
                    };
                    let what = (op, start, len, block, gap, count, wlo, wlen);
                    prop_assert_eq!(delta, flips, "op {:?}", what);
                    if !is_insert && delta == 0 {
                        prop_assert_eq!(&r.runs, &before, "a remove that overlaps nothing");
                    }
                    // Sorted, disjoint, non-touching, non-empty runs.
                    prop_assert!(r.runs.iter().all(|&(s, e)| s < e));
                    prop_assert!(r.runs.windows(2).all(|w| w[0].1 < w[1].0));
                    prop_assert_eq!(&r.runs, &bitmap_runs(&bits));
                }
            }

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
