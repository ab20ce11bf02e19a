//! Named microbenches for the simulation's hot kernels.
//!
//! Three kernels dominate the engine profile: the memory-system access
//! path (L1 hit / LLC hit / remote ping-pong / invalidation mixes — the
//! mixes the spinning and HyperPlane sq500 configs actually produce), the
//! calendar-wheel event queue (schedule/pop per simulated event), and the
//! alias-sampler draw (per arrival). The simulator benchmark
//! (`bench/README.md`, declared in `BENCHMARK.json`) measures the
//! end-to-end events/s these feed into; these benches isolate each kernel
//! so a regression is attributable.

use hp_bench::microbench::Criterion;
use hp_bench::{criterion_group, criterion_main};
use hp_core::monitoring::MonitoringSet;
use hp_core::ready_set::{ReadySet, ServicePolicy};
use hp_mem::system::{MemSystem, MemSystemConfig};
use hp_mem::types::{AccessKind, Addr, CoreId, LineAddr};
use hp_par::Rendezvous;
use hp_queues::sim::QueueId;
use hp_rand::rngs::SmallRng;
use hp_rand::{Rng, SeedableRng};
use hp_sim::event::EventQueue;
use hp_sim::time::{Cycles, SimTime};
use hp_traffic::alias::AliasTable;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

fn bench_mem_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem_access");

    // Stable-state L1 hit: repeated loads to a small resident working set
    // (the MRU filter + stable-state short-circuit path).
    g.bench_function("l1_hit_load", |b| {
        let mut m = MemSystem::new(MemSystemConfig::cmp(4));
        for i in 0..8u64 {
            m.access(CoreId(0), Addr(0x1000 + i * 64), AccessKind::Load);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(m.access(CoreId(0), Addr(0x1000 + (i % 8) * 64), AccessKind::Load))
        })
    });

    // LLC hit: a 1000-line poll working set that exceeds the 512-line L1
    // (the spinning sq500 steady state — every poll misses L1, hits LLC).
    g.bench_function("llc_hit_load", |b| {
        let mut m = MemSystem::new(MemSystemConfig::cmp(4));
        for i in 0..1000u64 {
            m.access(CoreId(0), Addr(0x10_0000 + i * 64), AccessKind::Load);
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(m.access(
                CoreId(0),
                Addr(0x10_0000 + (i % 1000) * 64),
                AccessKind::Load,
            ))
        })
    });

    // Remote ping-pong: producer stores / consumer loads alternating on
    // the same doorbell-like line set (the HyperPlane sq500 steady state).
    g.bench_function("remote_pingpong", |b| {
        let mut m = MemSystem::new(MemSystemConfig::cmp(4));
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let a = Addr(0x20_0000 + (i % 500) * 64);
            m.access(CoreId(2), a, AccessKind::Store);
            black_box(m.access(CoreId(0), a, AccessKind::Load))
        })
    });

    // Invalidation mix: two writers alternating on one line (GetM +
    // invalidate on every access).
    g.bench_function("invalidate_mix", |b| {
        let mut m = MemSystem::new(MemSystemConfig::cmp(4));
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let core = CoreId((i & 1) as usize);
            black_box(m.access(core, Addr(0x30_0000), AccessKind::Store))
        })
    });

    // S-state LLC hit: two cores share a 1000-line read-only set that
    // overcommits each L1, so every poll is an LLC hit on a stably-shared
    // line — the sharer-set join arm of the shared-line fast path
    // (DESIGN.md §13; evictions are tracked, so joins, not peeks).
    g.bench_function("s_state_llc_hit", |b| {
        let mut m = MemSystem::new(MemSystemConfig::cmp(4));
        for core in [CoreId(0), CoreId(1)] {
            for i in 0..1000u64 {
                m.access(core, Addr(0x40_0000 + i * 64), AccessKind::Load);
            }
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(m.access(
                CoreId(0),
                Addr(0x40_0000 + (i % 1000) * 64),
                AccessKind::Load,
            ))
        })
    });

    g.finish();
}

fn bench_calendar_wheel(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar_wheel");

    // Steady-state schedule/pop with a realistic standing population
    // (arrival + per-core steps in flight), near-future delays.
    g.bench_function("schedule_pop", |b| {
        let mut ev: EventQueue<u32> = EventQueue::new();
        for i in 0..8u32 {
            ev.schedule_at(SimTime(i as u64 * 100), i);
        }
        let mut d = 0u64;
        b.iter(|| {
            let (_, payload) = ev.pop().expect("standing population");
            d = (d * 25 + 13) % 4096;
            ev.schedule_after(Cycles(d + 1), payload);
            black_box(payload)
        })
    });

    // Same-cycle batch pop: eight events land on one bucket; one
    // `pop_batch` returns the head and drains the rest in a single
    // occupancy-word clear (the engine's main-loop fast path for
    // same-instant event runs).
    g.bench_function("pop_batch_run", |b| {
        let mut ev: EventQueue<u32> = EventQueue::new();
        let mut run = std::collections::VecDeque::new();
        for i in 0..8u32 {
            ev.schedule_at(SimTime(100), i);
        }
        b.iter(|| {
            let (t, head) = ev.pop_batch(&mut run).expect("standing run");
            let next = t + Cycles(97);
            ev.schedule_at(next, head);
            for p in run.drain(..) {
                ev.schedule_at(next, p);
            }
            black_box(head)
        })
    });

    g.finish();
}

/// The engine's per-queue hot state as the SoA refactor first packed it
/// (the row has since shrunk further; DESIGN.md §13), reproduced at both
/// layouts that refactor chose between: the packed row holds exactly the poll/arrival
/// prefix (one host line), the padded row models the pre-refactor struct
/// where cold latency accumulators ride in the same allocation.
fn bench_soa_rows(c: &mut Criterion) {
    #[derive(Clone, Copy)]
    struct HotRow {
        doorbell: u64,
        descriptor: u64,
        db_hint: u64,
        desc_hint: u64,
        depth: u32,
        _group: u32,
    }
    #[derive(Clone, Copy)]
    struct PaddedRow {
        hot: HotRow,
        _cold: [u64; 12], // latency stats, slot counters, IRQ state
    }

    let mut g = c.benchmark_group("soa_arrival_touch");
    // Arrival touch: random queue, read the row's poll prefix (doorbell,
    // descriptor, both hints — what one spin_step reads), bump the
    // queue depth (the enqueue-site update).
    let n = 500usize;
    g.bench_function("packed_rows", |b| {
        let mut rows = vec![
            HotRow {
                doorbell: 1,
                descriptor: 2,
                db_hint: 0,
                desc_hint: 0,
                depth: 0,
                _group: 0,
            };
            n
        ];
        let mut x = 0x9E37_79B9u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let q = (x >> 33) as usize % n;
            let row = &mut rows[q];
            row.depth = row.depth.wrapping_add(1);
            black_box(
                row.doorbell + row.descriptor + row.db_hint + row.desc_hint + row.depth as u64,
            )
        })
    });
    g.bench_function("padded_rows", |b| {
        let mut rows = vec![
            PaddedRow {
                hot: HotRow {
                    doorbell: 1,
                    descriptor: 2,
                    db_hint: 0,
                    desc_hint: 0,
                    depth: 0,
                    _group: 0,
                },
                _cold: [0; 12],
            };
            n
        ];
        let mut x = 0x9E37_79B9u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let q = (x >> 33) as usize % n;
            let row = &mut rows[q].hot;
            row.depth = row.depth.wrapping_add(1);
            black_box(
                row.doorbell + row.descriptor + row.db_hint + row.desc_hint + row.depth as u64,
            )
        })
    });
    g.finish();
}

fn bench_alias_sampler(c: &mut Criterion) {
    let mut g = c.benchmark_group("alias_sampler");

    // One draw from a 500-way skewed table (per-arrival queue pick).
    let weights: Vec<f64> = (0..500).map(|i| 1.0 / (i + 1) as f64).collect();
    let table = AliasTable::new(&weights).expect("valid weights");
    let mut rng = SmallRng::seed_from_u64(42);
    g.bench_function("draw_500", |b| b.iter(|| black_box(table.sample(&mut rng))));

    // Baseline: the raw RNG draws a sample costs (range + f64).
    g.bench_function("rng_pair", |b| {
        b.iter(|| {
            let i = rng.random_range(0..500usize);
            let x = rng.random::<f64>();
            black_box((i, x))
        })
    });

    g.finish();
}

fn bench_ready_select_hier(c: &mut Criterion) {
    let mut g = c.benchmark_group("ready_select_hier");

    // Select + reactivate over a sparse ready population: 64 ready QIDs
    // spread across the whole space, so every select climbs the summary
    // pyramid (O(log64 N) words) instead of scanning leaves. The 1k
    // variant is the paper's design point, where the hierarchy
    // degenerates to the flat scan (16 leaf words, no summary levels).
    for (label, n) in [("select_1m", 1usize << 20), ("select_1k", 1024)] {
        g.bench_function(label, |b| {
            let mut rs = ReadySet::new(n, ServicePolicy::RoundRobin);
            let stride = (n / 64).max(1);
            for i in 0..64 {
                rs.activate(QueueId((i * stride % n) as u32));
            }
            b.iter(|| {
                let q = rs.select().expect("population is reactivated");
                rs.activate(q);
                black_box(q)
            })
        });
    }

    // Worst-case single-bit find: one ready QID at the far end, selected
    // and re-activated — the longest climb-and-descend path.
    g.bench_function("select_far_bit_1m", |b| {
        let n = 1usize << 20;
        let mut rs = ReadySet::new(n, ServicePolicy::RoundRobin);
        rs.activate(QueueId(n as u32 - 1));
        b.iter(|| {
            let q = rs.select().expect("bit is reactivated");
            rs.activate(q);
            black_box(q)
        })
    });
    g.finish();
}

fn bench_monitoring_shard_probe(c: &mut Criterion) {
    let mut g = c.benchmark_group("monitoring_shard_probe");

    // GetM snoop + re-arm against a fully populated 1M-QID monitoring
    // set: hashed 32-bank sharding (one-bank probe, DESIGN.md §17) vs
    // the monolithic table the paper sizes for 1024 QIDs.
    let n: usize = 1 << 20;
    let mk = |banks: usize| {
        let mut ms = MonitoringSet::with_shape(n + n / 8, banks, MonitoringSet::DEFAULT_WAYS);
        ms.reserve_qids(n);
        for q in 0..n as u32 {
            let _ = ms.insert(QueueId(q), LineAddr(0x1000 + q as u64));
        }
        ms
    };
    for (label, banks) in [("snoop_hashed_32banks", 32usize), ("snoop_monolithic", 1)] {
        g.bench_function(label, |b| {
            let mut ms = mk(banks);
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                let hit = ms.snoop(LineAddr(0x1000 + (i % n as u64)));
                if let Some(q) = hit {
                    ms.arm(q);
                }
                black_box(hit)
            })
        });
    }
    g.finish();
}

fn bench_rendezvous_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("rendezvous_cycle");

    // Uncontended baseline: a single party is always leader, so this is
    // the raw atomic cost of one two-barrier window cycle.
    g.bench_function("two_barriers_1_party", |b| {
        let r = Rendezvous::new(1);
        b.iter(|| {
            black_box(r.wait());
            black_box(r.wait());
        })
    });

    // Contended: siblings run the same two-barrier loop the parallel
    // engine's window protocol runs, so one iter is one full rendezvous
    // round across all parties (arrive → leader decision point → release).
    for parties in [2usize, 4] {
        let name = format!("two_barriers_{parties}_parties");
        let r = Rendezvous::new(parties);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let (r, stop) = (&r, &stop);
            for _ in 0..parties - 1 {
                scope.spawn(move || loop {
                    r.wait();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    r.wait();
                });
            }
            g.bench_function(&name, |b| {
                b.iter(|| {
                    black_box(r.wait());
                    black_box(r.wait());
                })
            });
            // Wind down: siblings observe the flag right after the first
            // barrier of the next cycle and exit without the second.
            stop.store(true, Ordering::Relaxed);
            r.wait();
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_mem_access,
    bench_calendar_wheel,
    bench_soa_rows,
    bench_alias_sampler,
    bench_ready_select_hier,
    bench_monitoring_shard_probe,
    bench_rendezvous_cycle
);
criterion_main!(benches);
