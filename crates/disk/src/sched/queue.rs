//! The LBN-sorted request queue that CFQ, AS, DEADLINE, SCAN and SSTF all
//! serve from. Each differs only in how it picks the next request: the
//! elevator ([`SortedQueue::pop_elevator`]), the nearest request
//! ([`SortedQueue::pop_nearest`]) or a named expired one
//! ([`SortedQueue::take`]).

use crate::model::Lbn;
use crate::request::{DiskRequest, IoKind};

/// Queued requests, sorted by `(lbn, id)`.
#[derive(Debug, Default)]
pub(super) struct SortedQueue {
    /// `(lbn, slot)` of every queued request, sorted by the requests'
    /// `(lbn, id)`. Every search runs over these 16-byte keys, and an
    /// insert or a remove shifts them, not the 80-byte requests.
    order: Vec<(Lbn, u32)>,
    /// The requests, at the slots `order` names; `None` marks a free slot.
    slots: Vec<Option<DiskRequest>>,
    /// Free slots, the last freed first.
    free: Vec<u32>,
    /// The longest request this queue has held, merges included. Never
    /// lowered, so a request ending at `start` starts no earlier than
    /// `start - longest`.
    longest: u64,
}

impl SortedQueue {
    /// The request at position `i` of `order`.
    fn at(&self, i: usize) -> Option<&DiskRequest> {
        let &(_, slot) = self.order.get(i)?;
        self.slots.get(slot as usize)?.as_ref()
    }

    /// The first position of a request starting at or after `lbn`.
    fn lower_bound(&self, lbn: Lbn) -> usize {
        self.order.partition_point(|&(l, _)| l < lbn)
    }

    /// The first position before `pos` from which every request up to
    /// `pos` starts at or after `lo`. Merge windows hold a request or two,
    /// so a backward scan beats a second binary search.
    fn window_start(&self, pos: usize, lo: Lbn) -> usize {
        let below = self.order.get(..pos).unwrap_or_default();
        pos.saturating_sub(below.iter().rev().take_while(|&&(l, _)| l >= lo).count())
    }

    fn remove(&mut self, i: usize) -> DiskRequest {
        // Must be the shifting `remove`, not `swap_remove`: every search
        // assumes `order` stays sorted. The shift moves 16-byte keys; the
        // `dispatch` and `disk_path` criterion groups in
        // `crates/bench/benches/hot_path.rs` are the regression guard.
        let (_, slot) = self.order.remove(i);
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("order names a queued request")
    }

    /// Add `req`, back-merging it into the first request (in `(lbn, id)`
    /// order) it continues within `max_merge` sectors.
    pub(super) fn insert(&mut self, req: DiskRequest, max_merge: u64) {
        let mut pos = self.lower_bound(req.lbn);
        // A back-merge target ends at `req.lbn` and leaves `req` room under
        // the cap, so it starts in `[req.lbn - room, req.lbn)`.
        if let Some(room) = max_merge.checked_sub(req.sectors) {
            let first = self.window_start(pos, req.lbn.saturating_sub(room));
            let target = (first..pos).find(|&i| {
                self.at(i)
                    .is_some_and(|r| r.can_back_merge(&req, max_merge))
            });
            if let Some(i) = target {
                let slot = self.order[i].1 as usize;
                let prev = self.slots[slot]
                    .as_mut()
                    .expect("order names a queued request");
                prev.back_merge(req);
                self.longest = self.longest.max(prev.sectors);
                return;
            }
        }
        // Equal LBNs order by id.
        while self.order.get(pos).is_some_and(|&(l, _)| l == req.lbn)
            && self.at(pos).is_some_and(|r| r.id < req.id)
        {
            pos = pos.saturating_add(1);
        }
        self.longest = self.longest.max(req.sectors);
        let lbn = req.lbn;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(req);
                slot
            }
            None => {
                self.slots.push(Some(req));
                u32::try_from(self.slots.len().saturating_sub(1))
                    .expect("a queue holds under 2^32 requests")
            }
        };
        self.order.insert(pos, (lbn, slot));
    }

    /// Remove the next request in circular-SCAN order from `head`: the
    /// first starting at or after it, else the lowest.
    pub(super) fn pop_elevator(&mut self, head: Lbn) -> Option<DiskRequest> {
        if self.order.is_empty() {
            return None;
        }
        let i = self.lower_bound(head);
        let i = if i == self.order.len() { 0 } else { i };
        Some(self.remove(i))
    }

    /// Remove the request starting nearest to `head`; on a tie the lower
    /// LBN wins, then the lower id.
    pub(super) fn pop_nearest(&mut self, head: Lbn) -> Option<DiskRequest> {
        let above = self.lower_bound(head);
        // The first request at the highest LBN below the head.
        let below = above
            .checked_sub(1)
            .map(|i| self.lower_bound(self.order[i].0));
        let i = match (below, self.order.get(above)) {
            (Some(b), Some(&(la, _))) if la.abs_diff(head) < head.abs_diff(self.order[b].0) => {
                above
            }
            (Some(b), _) => b,
            (None, Some(_)) => above,
            (None, None) => return None,
        };
        Some(self.remove(i))
    }

    /// Remove the first request of `kind` starting at `end`.
    pub(super) fn take_starting_at(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let first = self.lower_bound(end);
        let i = (first..self.order.len())
            .take_while(|&i| self.order[i].0 == end)
            .find(|&i| self.at(i).is_some_and(|r| r.kind == kind))?;
        Some(self.remove(i))
    }

    /// Remove the first request of `kind` ending at `start`.
    pub(super) fn take_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
        let pos = self.lower_bound(start);
        let first = self.window_start(pos, start.saturating_sub(self.longest));
        let i = (first..pos).find(|&i| {
            self.at(i)
                .is_some_and(|r| r.end() == start && r.kind == kind)
        })?;
        Some(self.remove(i))
    }

    /// The position of request `id`, starting at `lbn`, if it is queued.
    pub(super) fn find(&self, lbn: Lbn, id: u64) -> Option<usize> {
        (self.lower_bound(lbn)..self.order.len())
            .take_while(|&i| self.order[i].0 == lbn)
            .find(|&i| self.at(i).is_some_and(|r| r.id == id))
    }

    /// Remove the request `id`, starting at `lbn`, if it is queued.
    pub(super) fn take(&mut self, lbn: Lbn, id: u64) -> Option<DiskRequest> {
        let i = self.find(lbn, id)?;
        Some(self.remove(i))
    }

    pub(super) fn len(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualpar_sim::SimTime;
    use proptest::prelude::*;

    /// The queue as the anticipatory and deadline schedulers kept it before
    /// the key array and windowed searches, with SSTF's nearest-request
    /// scan: every probe is a linear scan of one sorted `Vec`. The oracle
    /// [`SortedQueue`] must agree with.
    #[derive(Debug, Default)]
    struct LinearQueue {
        sorted: Vec<DiskRequest>,
    }

    impl LinearQueue {
        fn insert(&mut self, req: DiskRequest, max_merge: u64) {
            if let Some(prev) = self
                .sorted
                .iter_mut()
                .find(|r| r.can_back_merge(&req, max_merge))
            {
                prev.back_merge(req);
                return;
            }
            let pos = self
                .sorted
                .partition_point(|r| (r.lbn, r.id) < (req.lbn, req.id));
            self.sorted.insert(pos, req);
        }

        fn pop_elevator(&mut self, head: Lbn) -> Option<DiskRequest> {
            if self.sorted.is_empty() {
                return None;
            }
            let idx = self.sorted.partition_point(|r| r.lbn < head);
            let idx = if idx == self.sorted.len() { 0 } else { idx };
            Some(self.sorted.remove(idx))
        }

        fn pop_nearest(&mut self, head: Lbn) -> Option<DiskRequest> {
            let (idx, _) = self
                .sorted
                .iter()
                .enumerate()
                .min_by_key(|(i, r)| (r.lbn.abs_diff(head), r.lbn, *i))?;
            Some(self.sorted.remove(idx))
        }

        fn remove_first(&mut self, hit: impl Fn(&DiskRequest) -> bool) -> Option<DiskRequest> {
            let idx = self.sorted.iter().position(hit)?;
            Some(self.sorted.remove(idx))
        }

        fn take(&mut self, lbn: Lbn, id: u64) -> Option<DiskRequest> {
            self.remove_first(|r| r.lbn == lbn && r.id == id)
        }

        fn take_starting_at(&mut self, end: Lbn, kind: IoKind) -> Option<DiskRequest> {
            self.remove_first(|r| r.lbn == end && r.kind == kind)
        }

        fn take_ending_at(&mut self, start: Lbn, kind: IoKind) -> Option<DiskRequest> {
            self.remove_first(|r| r.end() == start && r.kind == kind)
        }
    }

    /// One step of the oracle comparison.
    #[derive(Debug, Clone)]
    enum Step {
        Insert {
            write: bool,
            lbn: Lbn,
            sectors: u64,
            id_hi: u64,
        },
        /// Pop in elevator (`nearest == false`) or nearest order, then
        /// chain merges onto the dispatch as `Disk::try_start` does.
        Pop {
            head: Lbn,
            nearest: bool,
        },
        /// Take the `nth` inserted request by `(lbn, id)`, whether or not
        /// it is still queued on its own.
        Take {
            nth: usize,
        },
        TakeStartingAt {
            end: Lbn,
            write: bool,
        },
        TakeEndingAt {
            start: Lbn,
            write: bool,
        },
    }

    /// The merge cap of the comparison: small, so that sums landing on it
    /// exactly and requests longer than it are both common.
    const CAP: u64 = 16;

    /// A step over LBNs `0..span`. A `dense` case inserts only 1-sector
    /// requests into a band of 32 sectors, so one back-merge window spans
    /// most of the queue and equal LBNs pile up.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "sector counts drawn from 0..64 stay far from overflow"
    )]
    fn step(dense: bool) -> impl Strategy<Value = Step> {
        let span: Lbn = if dense { 32 } else { 128 };
        // Mostly short requests, so merges outgrow every request a queue
        // was handed; one in eight reaches near or past the cap.
        let sectors = move |x: u64| match x {
            _ if dense => 1,
            0..=55 => 1 + x % 6,
            _ => CAP - 4 + x % 13,
        };
        let insert = || {
            (
                any::<bool>(),
                0..span,
                (0u64..64).prop_map(sectors),
                0u64..4,
            )
                .prop_map(|(write, lbn, sectors, id_hi)| Step::Insert {
                    write,
                    lbn,
                    sectors,
                    id_hi,
                })
        };
        let lbn = 0..span + 32;
        prop_oneof![
            insert(),
            insert(),
            (lbn.clone(), any::<bool>()).prop_map(|(head, nearest)| Step::Pop { head, nearest }),
            (0usize..64).prop_map(|nth| Step::Take { nth }),
            (lbn.clone(), any::<bool>())
                .prop_map(|(end, write)| Step::TakeStartingAt { end, write }),
            (lbn, any::<bool>()).prop_map(|(start, write)| Step::TakeEndingAt { start, write }),
        ]
    }

    fn kind(write: bool) -> IoKind {
        if write {
            IoKind::Write
        } else {
            IoKind::Read
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The windowed `SortedQueue` makes exactly the linear oracle's
        /// decisions: the same popped, taken and absorbed requests, with
        /// the same merged tag lists, through random interleavings.
        #[test]
        fn sorted_queue_matches_the_linear_oracle(
            steps in any::<bool>()
                .prop_flat_map(|dense| proptest::collection::vec(step(dense), 1..160)),
        ) {
            let mut fast = SortedQueue::default();
            let mut slow = LinearQueue::default();
            let mut inserted = Vec::new();
            for (seq, step) in (0u64..).zip(steps) {
                match step {
                    Step::Insert { write, lbn, sectors, id_hi } => {
                        // Ids are unique but not in arrival order, and
                        // equal LBNs are common.
                        let id = (id_hi << 32) | seq;
                        let req = DiskRequest::new(id, kind(write), lbn, sectors, SimTime::ZERO);
                        inserted.push((lbn, id));
                        fast.insert(req.clone(), CAP);
                        slow.insert(req, CAP);
                    }
                    Step::Pop { head, nearest } => {
                        let got = if nearest {
                            let got = fast.pop_nearest(head);
                            prop_assert_eq!(&got, &slow.pop_nearest(head));
                            got
                        } else {
                            let got = fast.pop_elevator(head);
                            prop_assert_eq!(&got, &slow.pop_elevator(head));
                            got
                        };
                        let Some(mut r) = got else { continue };
                        while r.sectors < CAP {
                            let next = fast.take_starting_at(r.end(), r.kind);
                            prop_assert_eq!(&next, &slow.take_starting_at(r.end(), r.kind));
                            let Some(next) = next else { break };
                            r.back_merge(next);
                        }
                        while r.sectors < CAP {
                            let prev = fast.take_ending_at(r.lbn, r.kind);
                            prop_assert_eq!(&prev, &slow.take_ending_at(r.lbn, r.kind));
                            let Some(mut prev) = prev else { break };
                            prev.back_merge(r);
                            r = prev;
                        }
                    }
                    Step::Take { nth } => {
                        if let Some(&(lbn, id)) = inserted.get(nth) {
                            prop_assert_eq!(fast.find(lbn, id).is_some(), slow.sorted.iter().any(|r| r.id == id));
                            prop_assert_eq!(fast.take(lbn, id), slow.take(lbn, id));
                        }
                    }
                    Step::TakeStartingAt { end, write } => {
                        let got = fast.take_starting_at(end, kind(write));
                        prop_assert_eq!(got, slow.take_starting_at(end, kind(write)));
                    }
                    Step::TakeEndingAt { start, write } => {
                        let got = fast.take_ending_at(start, kind(write));
                        prop_assert_eq!(got, slow.take_ending_at(start, kind(write)));
                    }
                }
                prop_assert_eq!(fast.len(), slow.sorted.len());
            }
            // Drain: the rest comes out in the same order too.
            let mut head = 0;
            while let Some(r) = fast.pop_elevator(head) {
                prop_assert_eq!(Some(&r), slow.pop_elevator(head).as_ref());
                head = r.end();
            }
            prop_assert!(slow.sorted.is_empty());
        }
    }
}
