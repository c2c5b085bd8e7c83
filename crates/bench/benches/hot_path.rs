//! Criterion benchmarks guarding the data structures rebuilt for the
//! slab-allocated hot path:
//!
//! * `group_slab` — generational-slab churn against the `FxHashMap` keyed
//!   by monotonically growing ids it replaced in the cluster engine. The
//!   workload mirrors the engine's lifecycle: insert a record per I/O
//!   group, hit it a few times from sub-request completions, remove it.
//! * `dispatch` — sorted-queue churn in the CFQ and SSTF disk schedulers
//!   with arrivals interleaved into dispatch, the queue holding 2,048
//!   requests at first. Both serve from the one sorted queue that every
//!   scheduler but NOOP shares, one through the elevator's pick and one
//!   through the nearest-request pick. This is the bench
//!   guard for the shifting `Vec::remove` in that queue: selection relies
//!   on `partition_point` over keys kept sorted by `(lbn, id)`, so removal
//!   must shift (a `swap_remove` would corrupt the order). If the O(n)
//!   shift ever dominates, this group is where it shows.
//! * `disk_path` — one disk's enqueue → `try_start` → `complete` cycle on
//!   a CFQ queue held at 34 queued requests, the `disk.queue_depth_max` of
//!   perfbench's `hpio-read-vanilla`, with no request contiguous to
//!   another. Each dispatch runs both dispatch-time merge probes
//!   (`absorb_contiguous`, `absorb_ending_at`) and misses, as every
//!   vanilla sub-request does; `dispatch` drives the scheduler alone and
//!   never reaches them.
//! * `event_queue` — pop-then-schedule churn through the future-event list
//!   ([`dualpar_sim::EventQueue`], one binary heap with the payloads
//!   inline, where each schedule refills the root slot the pop before it
//!   left vacant) at steady pending populations of 64 and 1,024 (about
//!   the engine's traced `simcore.queue_depth_max` on perfbench's
//!   `hpio-read-vanilla` and `btio-ckpt-dualpar`) and from 10⁴ to 10⁶.
//!   Every simulation event in the workspace funnels through this
//!   structure, so this group is the engine-throughput guard.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dualpar_disk::{
    CfqScheduler, Disk, DiskParams, DiskRequest, IoKind, Scheduler, SchedulerKind, SstfScheduler,
};
use dualpar_sim::{EventQueue, FxHashMap, SimDuration, SimTime, Slab, SlabKey};
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
            IoKind::Read,
            (id.wrapping_mul(48271) % 100_000) * 64,
            32,
        ));
    };
    // Pre-fill half so the first dispatches already shift a long queue.
    for _ in 0..n / 2 {
        enqueue(&mut s, next_id);
        next_id += 1;
    }
    let mut head = 0;
    while let Some(r) = s.decide(head) {
        head = r.end();
        if next_id < n {
            enqueue(&mut s, next_id);
            next_id += 1;
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
            CfqScheduler::new,
            |s| black_box(churn_scheduler(s, n)),
            BatchSize::SmallInput,
        )
    });

    g.bench_function("sstf_interleaved_4k", |b| {
        b.iter_batched(
            SstfScheduler::new,
            |s| black_box(churn_scheduler(s, n)),
            BatchSize::SmallInput,
        )
    });

    g.finish();
}

/// Dispatches per `disk_path` iteration.
const DISK_CHURN: u64 = 4_096;
/// Queued requests held on the disk: `hpio-read-vanilla`'s measured
/// `disk.queue_depth_max`.
const DISK_DEPTH: u64 = 34;

/// Run `n` dispatches through one CFQ disk whose queue stays at
/// [`DISK_DEPTH`] queued 8-sector reads, 64 sectors apart so none merges.
fn churn_disk(n: u64) -> u64 {
    let mut d = Disk::new(DiskParams::hdd_7200rpm(), SchedulerKind::Cfq, false);
    let enqueue = |d: &mut Disk, id: u64| {
        // 48271 is coprime with 100 000, so the LBNs are distinct.
        let lbn = 2048 + (id.wrapping_mul(48271) % 100_000) * 64;
        d.enqueue(DiskRequest::new(id, IoKind::Read, lbn, 8));
    };
    for id in 0..DISK_DEPTH {
        enqueue(&mut d, id);
    }
    let mut now = SimTime::ZERO;
    let mut next_id = DISK_DEPTH;
    let mut done = 0;
    while done < n {
        now = d.try_start(now).expect("the queue never drains");
        d.complete();
        enqueue(&mut d, next_id);
        next_id += 1;
        done += 1;
    }
    d.head()
}

fn bench_disk_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("disk_path");
    g.throughput(Throughput::Elements(DISK_CHURN));
    g.bench_function("cfq_depth34_4k", |b| {
        b.iter(|| black_box(churn_disk(DISK_CHURN)))
    });
    g.finish();
}

/// Timed churn rounds per event-queue iteration.
const EQ_CHURN: u64 = 4_096;
/// Scheduling horizon for pseudo-random deltas (10 simulated seconds).
const EQ_HORIZON_NS: u64 = 10_000_000_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn queue_prefill(pending: usize) -> EventQueue<u64> {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..pending as u64 {
        let delta = SimDuration(1 + xorshift(&mut x) % EQ_HORIZON_NS);
        q.schedule(q.now().saturating_add(delta), i);
    }
    q
}

fn queue_churn(mut q: EventQueue<u64>) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    for i in 0..EQ_CHURN {
        if let Some((t, payload)) = q.pop() {
            acc = acc.wrapping_add(t.0).wrapping_add(payload);
        }
        let delta = SimDuration(1 + xorshift(&mut x) % EQ_HORIZON_NS);
        q.schedule(q.now().saturating_add(delta), i);
    }
    acc.wrapping_add(q.len() as u64)
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(EQ_CHURN));
    for pending in [64usize, 1_024, 10_000, 100_000, 1_000_000] {
        g.bench_function(&format!("churn_{pending}"), |b| {
            b.iter_batched(
                || queue_prefill(pending),
                |input| black_box(queue_churn(input)),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_group_slab,
    bench_dispatch,
    bench_disk_path,
    bench_event_queue
);
criterion_main!(benches);
