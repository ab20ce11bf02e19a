//! Micro-benchmarks of the HyperPlane hardware structures, plus the
//! DESIGN.md monitoring-set associativity ablation. (The two PPA designs
//! differ only in gate depth and area; the `hwcost` binary compares them.)

use hp_bench::microbench::{BenchmarkId, Criterion};
use hp_bench::{criterion_group, criterion_main};
use hp_core::monitoring::MonitoringSet;
use hp_core::ready_set::{ReadySet, ServicePolicy};
use hp_mem::types::LineAddr;
use hp_queues::sim::QueueId;
use std::hint::black_box;

fn bench_monitoring_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("monitoring_set");
    // Snoop (the per-GetM hot path) on a loaded 1024-entry table.
    let mut ms = MonitoringSet::new(1100);
    for q in 0..1000u32 {
        ms.insert(QueueId(q), LineAddr(0x1_0000 + q as u64))
            .unwrap();
    }
    g.bench_function("snoop_hit", |b| {
        let mut q = 0u32;
        b.iter(|| {
            let line = LineAddr(0x1_0000 + (q % 1000) as u64);
            let hit = ms.snoop(black_box(line));
            if let Some(qid) = hit {
                ms.arm(qid);
            }
            q = q.wrapping_add(1);
        })
    });
    g.bench_function("snoop_miss", |b| {
        b.iter(|| black_box(ms.snoop(black_box(LineAddr(0x9_0000)))))
    });
    g.bench_function("arm_disarm", |b| {
        b.iter(|| {
            ms.disarm(black_box(QueueId(500)));
            ms.arm(black_box(QueueId(500)));
        })
    });
    g.finish();

    // Ablation: insertion cost / achievable occupancy vs way count.
    let mut g = c.benchmark_group("ablate_monitoring_ways");
    for ways in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(ways), &ways, |b, &ways| {
            b.iter(|| {
                let mut ms = MonitoringSet::with_shape(1100, 1, ways);
                let mut placed = 0u32;
                for q in 0..1000u32 {
                    if ms
                        .insert(QueueId(q), LineAddr(0x1_0000 + q as u64 * 3))
                        .is_ok()
                    {
                        placed += 1;
                    }
                }
                black_box(placed)
            })
        });
    }
    g.finish();
}

fn bench_ready_set(c: &mut Criterion) {
    // Select cost vs width. One series: the ready set computes the one
    // function both PPA designs implement, so the design is not an input.
    let mut g = c.benchmark_group("ready_set_select");
    for n in [64usize, 256, 1024] {
        let mut rs = ReadySet::new(n, ServicePolicy::RoundRobin);
        // Half the queues ready.
        for q in (0..n).step_by(2) {
            rs.activate(QueueId(q as u32));
        }
        g.bench_with_input(BenchmarkId::new("round_robin_half_ready", n), &n, |b, _| {
            b.iter(|| {
                if let Some(q) = rs.select() {
                    rs.activate(q); // keep the set populated
                    black_box(q);
                }
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("ready_set_policies");
    for (name, policy) in [
        ("round_robin", ServicePolicy::RoundRobin),
        ("strict", ServicePolicy::StrictPriority),
        (
            "wrr",
            ServicePolicy::WeightedRoundRobin {
                weights: vec![2; 1024],
            },
        ),
    ] {
        let mut rs = ReadySet::new(1024, policy);
        for q in (0..1024).step_by(3) {
            rs.activate(QueueId(q as u32));
        }
        g.bench_function(name, |b| {
            b.iter(|| {
                if let Some(q) = rs.select() {
                    rs.activate(q);
                    black_box(q);
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_monitoring_set, bench_ready_set);
criterion_main!(benches);
