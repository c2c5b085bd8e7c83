//! Criterion micro-benchmarks of the simulator's hot paths: the event
//! queue, the CFQ scheduler, the CRM request algebra, the cache store's
//! chunk index, the byte-range algebra, and a complete small cluster run
//! (events per second end to end).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dualpar_bench::small_cluster;
use dualpar_cache::{CacheConfig, GlobalCache, OwnerId};
use dualpar_cluster::{Cluster, IoStrategy, ProgramSpec};
use dualpar_disk::{CfqScheduler, Decision, DiskRequest, IoKind, Scheduler};
use dualpar_mpiio::build_batch;
use dualpar_pfs::{FileId, FileRegion, RangeSet, Strided};
use dualpar_sim::{EventQueue, SimDuration, SimTime};
use dualpar_workloads::MpiIoTest;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    let n = 10_000u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime(i.wrapping_mul(2654435761) % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
    g.finish();
}

fn bench_cfq(c: &mut Criterion) {
    let mut g = c.benchmark_group("cfq");
    let n = 4_096u64;
    g.throughput(Throughput::Elements(n));
    g.bench_function("enqueue_drain_4k", |b| {
        b.iter_batched(
            || {
                let mut s = CfqScheduler::new();
                for i in 0..n {
                    s.enqueue(DiskRequest::new(
                        i,
                        IoKind::Read,
                        (i.wrapping_mul(48271) % 100_000) * 64,
                        32,
                        SimTime::ZERO,
                    ));
                }
                s
            },
            |mut s| {
                let mut now = SimTime::ZERO;
                let mut head = 0;
                loop {
                    match s.decide(now, head) {
                        Decision::Dispatch(r) => head = r.end(),
                        Decision::IdleUntil(t) => now = t,
                        Decision::Empty => break,
                    }
                }
                black_box(head)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_batch_algebra(c: &mut Criterion) {
    let mut g = c.benchmark_group("crm_algebra");
    let n = 100_000usize;
    g.throughput(Throughput::Elements(n as u64));
    let items: Vec<(FileId, FileRegion)> = (0..n)
        .map(|i| {
            let off = ((i as u64).wrapping_mul(2654435761)) % (1 << 30);
            (FileId(1 + (i % 3) as u32), FileRegion::new(off, 4096))
        })
        .collect();
    g.bench_function("build_batch_100k", |b| {
        b.iter(|| black_box(build_batch(items.clone(), 64 * 1024)))
    });
    g.finish();
}

fn bench_cache_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_store");
    let chunk = 64 * 1024u64;
    let n = 2_048u64; // chunks touched per pass
    let cfg = CacheConfig {
        chunk_size: chunk,
        num_nodes: 8,
        idle_ttl: SimDuration::from_secs(30),
        node_capacity: u64::MAX,
    };
    g.throughput(Throughput::Elements(n));
    // Prefetch-insert then read back across a strided chunk set: dominated
    // by lookups in the (FileId, chunk index) map that the engine hammers.
    g.bench_function("prefetch_read_2k_chunks", |b| {
        b.iter_batched(
            || GlobalCache::new(cfg.clone()),
            |mut cache| {
                let f = FileId(1);
                let owner = OwnerId(7);
                for i in 0..n {
                    let idx = (i.wrapping_mul(48271)) % (4 * n);
                    let region = FileRegion::new(idx * chunk, chunk);
                    cache.put_prefetch(owner, f, region, SimTime::ZERO);
                }
                let mut hit = 0u64;
                for i in 0..n {
                    let idx = (i.wrapping_mul(48271)) % (4 * n);
                    let region = FileRegion::new(idx * chunk, chunk);
                    hit += cache.read(f, region, SimTime::ZERO).bytes_found;
                }
                black_box(hit)
            },
            BatchSize::SmallInput,
        )
    });
    // BTIO's checkpoint pattern (§V-C): 64 ranks each buffer 16-byte cells
    // at a 1 KiB stride over 64 chunks, rank after rank, so every chunk
    // fragments into many runs that later ranks' cells merge back together.
    let (ranks, cell, stride, chunks) = (64u64, 16u64, 1024u64, 64u64);
    let cells = chunks * chunk / stride;
    g.throughput(Throughput::Elements(ranks * cells));
    g.bench_function("put_write_btio_cells", |b| {
        b.iter_batched(
            || GlobalCache::new(cfg.clone()),
            |mut cache| {
                let f = FileId(1);
                for rank in 0..ranks {
                    for k in 0..cells {
                        let region = FileRegion::new(k * stride + rank * cell, cell);
                        black_box(cache.put_write(OwnerId(rank), f, region, SimTime::ZERO));
                    }
                }
                black_box(cache.dirty_bytes())
            },
            BatchSize::SmallInput,
        )
    });
    // The same cells and bytes as one strided run per rank: one cache
    // insert per (rank, chunk) instead of one per cell. In rank order each
    // rank's cells abut the last rank's, so every chunk's byte sets stay
    // one periodic run and each insert is O(1).
    g.bench_function("put_write_btio_strided", |b| {
        b.iter_batched(
            || GlobalCache::new(cfg.clone()),
            |mut cache| {
                let f = FileId(1);
                let mut homes = Vec::new();
                for rank in 0..ranks {
                    let run = Strided::new(rank * cell, cell, stride, cells);
                    homes.clear();
                    cache.put_write_strided(OwnerId(rank), f, run, SimTime::ZERO, &mut homes);
                    black_box(&homes);
                }
                black_box(cache.dirty_bytes())
            },
            BatchSize::SmallInput,
        )
    });
    // The same runs with the ranks in a fixed pseudo-random order
    // (Fisher-Yates over a 64-bit LCG): most runs land between cells that
    // are not theirs, so the chunks' byte sets take the explicit merge.
    let mut shuffled: Vec<u64> = (0..ranks).collect();
    let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..shuffled.len()).rev() {
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        shuffled.swap(i, ((lcg >> 33) % (i as u64 + 1)) as usize);
    }
    g.bench_function("put_write_btio_strided_shuffled", |b| {
        b.iter_batched(
            || GlobalCache::new(cfg.clone()),
            |mut cache| {
                let f = FileId(1);
                let mut homes = Vec::new();
                for &rank in &shuffled {
                    let run = Strided::new(rank * cell, cell, stride, cells);
                    homes.clear();
                    cache.put_write_strided(OwnerId(rank), f, run, SimTime::ZERO, &mut homes);
                    black_box(&homes);
                }
                black_box(cache.dirty_bytes())
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_rangeset(c: &mut Criterion) {
    let mut g = c.benchmark_group("rangeset");
    let n = 4_096u64;
    g.throughput(Throughput::Elements(n));
    // Interleaved insert/remove/probe on a set that keeps fragmenting and
    // re-coalescing, the access pattern of per-chunk presence tracking.
    g.bench_function("churn_4k_ops", |b| {
        b.iter(|| {
            let mut set = RangeSet::new();
            let mut probe = 0u64;
            let mut moved = 0u64;
            for i in 0..n {
                let start = (i.wrapping_mul(2654435761)) % (1 << 22);
                match i % 4 {
                    0 | 1 => moved += set.insert(start, 4096),
                    2 => moved += set.remove(start, 2048),
                    _ => probe += set.intersect_len(start, 8192),
                }
            }
            black_box((set.covered(), probe, moved))
        })
    });
    g.finish();
}

fn bench_full_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);
    g.bench_function("mpiio_8mb_dualpar", |b| {
        b.iter(|| {
            let mut cluster = Cluster::new(small_cluster());
            let w = MpiIoTest {
                nprocs: 8,
                file_size: 8 << 20,
                ..Default::default()
            };
            let f = cluster.create_file("x", w.file_size);
            cluster.add_program(ProgramSpec::new(w.build(f), IoStrategy::DualParForced));
            black_box(cluster.run().events_processed)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_cfq,
    bench_batch_algebra,
    bench_cache_store,
    bench_rangeset,
    bench_full_run
);
criterion_main!(benches);
