//! Criterion benchmarks guarding the data structures rebuilt for the
//! slab-allocated hot path:
//!
//! * `group_slab` — generational-slab churn against the `FxHashMap` keyed
//!   by monotonically growing ids it replaced in the cluster engine. The
//!   workload mirrors the engine's lifecycle: insert a record per I/O
//!   group, hit it a few times from sub-request completions, remove it.
//! * `dispatch` — sorted-queue churn in the CFQ and anticipatory disk
//!   schedulers with arrivals interleaved into dispatch. This is the bench
//!   guard for the `Vec::remove` in their dispatch paths: selection relies
//!   on `partition_point` over a queue kept sorted by `(lbn, id)`, so
//!   removal must shift (a `swap_remove` would corrupt the order). If the
//!   O(n) shift ever dominates, this group is where it shows.
//! * `event_queue` — schedule/cancel/pop churn through the hierarchical
//!   timing wheel ([`dualpar_sim::EventQueue`]) against an inline rebuild
//!   of the binary-heap + lazy-cancellation queue it replaced, at steady
//!   pending populations from 10³ to 10⁶. Every simulation event in the
//!   workspace funnels through this structure, so this group is the
//!   engine-throughput guard. `idle_peek_9` polls `peek_time` on nine
//!   idle server-like queues the way the cluster's window loop does.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dualpar_disk::{
    AnticipatoryConfig, AnticipatoryScheduler, CfqConfig, CfqScheduler, Decision, DiskRequest,
    IoCtx, IoKind, Scheduler,
};
use dualpar_sim::{EventId, EventQueue, FxHashMap, FxHashSet, SimDuration, SimTime, Slab, SlabKey};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Stand-in for the engine's `Group` record: big enough that moves are not
/// free, small enough to stay realistic.
#[derive(Clone, Copy)]
struct Payload {
    remaining: u64,
    issued: u64,
    stats: [u64; 4],
}

const CHURN: u64 = 4_096;
/// Live records at steady state (the engine keeps a few dozen groups and a
/// few hundred outstanding sub-requests in flight).
const LIVE: usize = 256;

fn bench_group_slab(c: &mut Criterion) {
    let mut g = c.benchmark_group("group_slab");
    g.throughput(Throughput::Elements(CHURN));

    // Insert → 3 hits → remove, with LIVE records resident throughout.
    g.bench_function("slab_churn_4k", |b| {
        b.iter(|| {
            let mut slab: Slab<Payload> = Slab::with_capacity(LIVE);
            let mut live: Vec<SlabKey> = Vec::with_capacity(LIVE);
            let mut acc = 0u64;
            for i in 0..CHURN {
                let key = slab.insert(Payload {
                    remaining: i,
                    issued: i * 2,
                    stats: [i; 4],
                });
                live.push(key);
                for probe in 0..3u64 {
                    let pick = ((i + probe).wrapping_mul(48271)) as usize % live.len();
                    if let Some(p) = slab.get_mut(live[pick]) {
                        p.remaining = p.remaining.wrapping_add(1);
                        acc = acc.wrapping_add(p.issued);
                    }
                }
                if live.len() >= LIVE {
                    let pick = (i.wrapping_mul(2654435761)) as usize % live.len();
                    let key = live.swap_remove(pick);
                    acc = acc.wrapping_add(slab.remove(key).map_or(0, |p| p.stats[0]));
                }
            }
            black_box(acc)
        })
    });

    // The structure the slab replaced: same lifecycle, hash lookups keyed
    // by ever-growing u64 ids.
    g.bench_function("fxhashmap_churn_4k", |b| {
        b.iter(|| {
            let mut map: FxHashMap<u64, Payload> = FxHashMap::default();
            let mut live: Vec<u64> = Vec::with_capacity(LIVE);
            let mut acc = 0u64;
            for i in 0..CHURN {
                map.insert(
                    i,
                    Payload {
                        remaining: i,
                        issued: i * 2,
                        stats: [i; 4],
                    },
                );
                live.push(i);
                for probe in 0..3u64 {
                    let pick = ((i + probe).wrapping_mul(48271)) as usize % live.len();
                    if let Some(p) = map.get_mut(&live[pick]) {
                        p.remaining = p.remaining.wrapping_add(1);
                        acc = acc.wrapping_add(p.issued);
                    }
                }
                if live.len() >= LIVE {
                    let pick = (i.wrapping_mul(2654435761)) as usize % live.len();
                    let id = live.swap_remove(pick);
                    acc = acc.wrapping_add(map.remove(&id).map_or(0, |p| p.stats[0]));
                }
            }
            black_box(acc)
        })
    });

    g.finish();
}

/// Drain a scheduler with arrivals interleaved so the sorted queue stays
/// populated while dispatch keeps removing from arbitrary positions.
fn churn_scheduler<S: Scheduler>(mut s: S, n: u64) -> u64 {
    let mut next_id = 0u64;
    let enqueue = |s: &mut S, id: u64| {
        s.enqueue(DiskRequest::new(
            id,
            IoCtx((id % 8) as u32),
            IoKind::Read,
            (id.wrapping_mul(48271) % 100_000) * 64,
            32,
            SimTime::ZERO,
        ));
    };
    // Pre-fill half so the first dispatches already shift a long queue.
    for _ in 0..n / 2 {
        enqueue(&mut s, next_id);
        next_id += 1;
    }
    let mut now = SimTime::ZERO;
    let mut head = 0;
    loop {
        match s.decide(now, head) {
            Decision::Dispatch(r) => {
                head = r.end();
                if next_id < n {
                    enqueue(&mut s, next_id);
                    next_id += 1;
                }
            }
            Decision::IdleUntil(t) => now = t,
            Decision::Empty => break,
        }
    }
    head
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch");
    let n = 4_096u64;
    g.throughput(Throughput::Elements(n));

    g.bench_function("cfq_interleaved_4k", |b| {
        b.iter_batched(
            || CfqScheduler::new(CfqConfig::default()),
            |s| black_box(churn_scheduler(s, n)),
            BatchSize::SmallInput,
        )
    });

    g.bench_function("anticipatory_interleaved_4k", |b| {
        b.iter_batched(
            || AnticipatoryScheduler::new(AnticipatoryConfig::default()),
            |s| black_box(churn_scheduler(s, n)),
            BatchSize::SmallInput,
        )
    });

    g.finish();
}

/// Timed churn rounds per event-queue iteration.
const EQ_CHURN: u64 = 4_096;
/// Scheduling horizon for pseudo-random deltas (10 simulated seconds) —
/// wide enough to spread events across every wheel level.
const EQ_HORIZON_NS: u64 = 10_000_000_000;
/// Server queues polled by `idle_peek_9` (the default cluster has 9).
const IDLE_QUEUES: u64 = 9;
/// Window-loop rounds per `idle_peek_9` iteration.
const IDLE_POLLS: u64 = 4_096;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The retired production queue, rebuilt inline as the bench baseline:
/// a min-heap of `(time, seq)` with lazy cancellation through side sets.
struct LazyHeapQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    next_seq: u64,
    now: SimTime,
    cancelled: FxHashSet<u64>,
    pending: FxHashSet<u64>,
}

impl LazyHeapQueue {
    fn new() -> Self {
        LazyHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            cancelled: FxHashSet::default(),
            pending: FxHashSet::default(),
        }
    }

    fn schedule(&mut self, at: SimTime, payload: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
        self.heap.push(Reverse((at, seq, payload)));
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        if !self.pending.remove(&seq) {
            return false;
        }
        self.cancelled.insert(seq)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        while let Some(Reverse((t, seq, payload))) = self.heap.pop() {
            if self.cancelled.remove(&seq) {
                continue;
            }
            self.pending.remove(&seq);
            self.now = t;
            return Some((t, payload));
        }
        None
    }
}

fn wheel_prefill(pending: usize) -> (EventQueue<u64>, Vec<EventId>) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut ids = Vec::with_capacity(pending);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..pending as u64 {
        let delta = SimDuration(1 + xorshift(&mut x) % EQ_HORIZON_NS);
        ids.push(q.schedule(q.now().saturating_add(delta), i));
    }
    (q, ids)
}

fn wheel_churn((mut q, mut ids): (EventQueue<u64>, Vec<EventId>)) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    for i in 0..EQ_CHURN {
        if let Some((t, payload)) = q.pop() {
            acc = acc.wrapping_add(t.0).wrapping_add(payload);
        }
        let delta = SimDuration(1 + xorshift(&mut x) % EQ_HORIZON_NS);
        ids.push(q.schedule(q.now().saturating_add(delta), i));
        // Every fourth round, cancel a uniformly chosen remembered id.
        // Some of them have already fired — exercising the O(1) stale-id
        // rejection alongside live cancellation, like the engine does.
        if i % 4 == 0 {
            let pick = xorshift(&mut x) as usize % ids.len();
            let id = ids.swap_remove(pick);
            acc = acc.wrapping_add(u64::from(q.cancel(id)));
        }
    }
    acc.wrapping_add(q.len() as u64)
}

fn heap_prefill(pending: usize) -> (LazyHeapQueue, Vec<u64>) {
    let mut q = LazyHeapQueue::new();
    let mut ids = Vec::with_capacity(pending);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..pending as u64 {
        let delta = SimDuration(1 + xorshift(&mut x) % EQ_HORIZON_NS);
        ids.push(q.schedule(q.now.saturating_add(delta), i));
    }
    (q, ids)
}

fn heap_churn((mut q, mut ids): (LazyHeapQueue, Vec<u64>)) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    for i in 0..EQ_CHURN {
        if let Some((t, payload)) = q.pop() {
            acc = acc.wrapping_add(t.0).wrapping_add(payload);
        }
        let delta = SimDuration(1 + xorshift(&mut x) % EQ_HORIZON_NS);
        ids.push(q.schedule(q.now.saturating_add(delta), i));
        if i % 4 == 0 {
            let pick = xorshift(&mut x) as usize % ids.len();
            let id = ids.swap_remove(pick);
            acc = acc.wrapping_add(u64::from(q.cancel(id)));
        }
    }
    acc.wrapping_add(q.pending.len() as u64)
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(EQ_CHURN));
    for pending in [1_000usize, 10_000, 100_000, 1_000_000] {
        g.bench_function(&format!("wheel_churn_{pending}"), |b| {
            b.iter_batched(
                || wheel_prefill(pending),
                |input| black_box(wheel_churn(input)),
                BatchSize::LargeInput,
            )
        });
        g.bench_function(&format!("heap_churn_{pending}"), |b| {
            b.iter_batched(
                || heap_prefill(pending),
                |input| black_box(heap_churn(input)),
                BatchSize::LargeInput,
            )
        });
    }
    // Nine queues (one per data server), each holding a few events
    // milliseconds ahead: wheel level >= 1, empty ready run. Every window
    // of the cluster loop peeks each of them without popping anything.
    let mut idle: Vec<EventQueue<u64>> = (0..IDLE_QUEUES)
        .map(|s| {
            let mut q = EventQueue::new();
            for i in 0..4u64 {
                q.schedule(SimTime((1 + s + 2 * i) * 1_000_000 + 37 * i), i);
            }
            q
        })
        .collect();
    g.throughput(Throughput::Elements(IDLE_POLLS * IDLE_QUEUES));
    g.bench_function(&format!("idle_peek_{IDLE_QUEUES}"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..IDLE_POLLS {
                for q in &mut idle {
                    acc = acc.wrapping_add(q.peek_time().map_or(0, |t| t.0));
                }
            }
            acc
        })
    });
    g.finish();
}

criterion_group!(benches, bench_group_slab, bench_dispatch, bench_event_queue);
criterion_main!(benches);
