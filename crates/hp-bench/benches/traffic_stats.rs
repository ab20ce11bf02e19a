//! Benchmarks of the traffic generators and statistics
//! machinery — the per-event hot paths of every simulation.

use hp_bench::microbench::{BenchmarkId, Criterion};
use hp_bench::{criterion_group, criterion_main};
use hp_core::monitoring::MonitoringSet;
use hp_mem::types::LineAddr;
use hp_queues::sim::QueueId;
use hp_rand::rngs::CounterRng;
use hp_rand::Rng;
use hp_sim::rng::RngFactory;
use hp_sim::stats::Histogram;
use hp_sim::time::Clock;
use hp_traffic::alias::AliasTable;
use hp_traffic::flows::FlowTrafficGenerator;
use hp_traffic::generator::KeyedArrivals;
use hp_traffic::shape::TrafficShape;
use std::hint::black_box;

fn bench_traffic(c: &mut Criterion) {
    let mut g = c.benchmark_group("traffic");
    let factory = RngFactory::new(1);

    // The engine's per-arrival call: arrival `k` of one partition's stream.
    let shape_arrivals = KeyedArrivals::for_partition(
        TrafficShape::ProportionallyConcentrated,
        1000,
        1e6,
        Clock::default(),
        &[0; 1000],
        0,
        CounterRng::keyed(1, 0, 0),
    )
    .expect("valid")
    .expect("the only partition carries traffic");
    let mut k = 0u64;
    g.bench_function("shape_next_arrival", |b| {
        b.iter(|| {
            k += 1;
            black_box(shape_arrivals.arrival(black_box(k)))
        })
    });

    let mut flow_gen =
        FlowTrafficGenerator::new(10_000, 1.1, 64, 1e6, Clock::default(), factory.stream(1));
    g.bench_function("flow_next_arrival", |b| {
        b.iter(|| black_box(flow_gen.next_arrival()))
    });

    let weights: Vec<f64> = (1..=1000).map(|i| 1.0 / i as f64).collect();
    let table = AliasTable::new(&weights).expect("valid");
    let mut rng = factory.stream(2);
    g.bench_function("alias_sample_1000", |b| {
        b.iter(|| black_box(table.sample(&mut rng)))
    });
    g.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats");
    let mut h = Histogram::new();
    let mut rng = RngFactory::new(2).stream(0);
    g.bench_function("histogram_record", |b| {
        b.iter(|| h.record(black_box(rng.random_range(1..1_000_000u64))))
    });
    for v in 1..100_000u64 {
        h.record(v * 7);
    }
    g.bench_function("histogram_p99", |b| {
        b.iter(|| black_box(h.percentile(99.0)))
    });
    g.finish();
}

fn bench_banked_monitoring(c: &mut Criterion) {
    let mut g = c.benchmark_group("banked_monitoring_snoop");
    // 768 of 1024 entries: hash routing loads banks unevenly, and at 8
    // banks of 128 entries a 900-QID load overflows the fullest one.
    const QIDS: u32 = 768;
    for banks in [1usize, 4, 8] {
        let mut ms = MonitoringSet::with_shape(1024, banks, MonitoringSet::DEFAULT_WAYS);
        for q in 0..QIDS {
            ms.insert(QueueId(q), LineAddr(0x1_0000 + q as u64))
                .expect("fits");
        }
        g.bench_with_input(BenchmarkId::from_parameter(banks), &banks, |b, _| {
            let mut q = 0u32;
            b.iter(|| {
                let line = LineAddr(0x1_0000 + (q % QIDS) as u64);
                if let Some(qid) = ms.snoop(black_box(line)) {
                    ms.arm(qid);
                }
                q = q.wrapping_add(1);
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_traffic, bench_stats, bench_banked_monitoring);
criterion_main!(benches);
