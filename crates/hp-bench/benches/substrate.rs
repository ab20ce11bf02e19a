//! Benchmarks of the substrate layers: the memory-system model and a
//! small end-to-end simulation.

use hp_bench::microbench::{BenchmarkId, Criterion};
use hp_bench::{criterion_group, criterion_main};
use hp_mem::system::{MemSystem, MemSystemConfig};
use hp_mem::types::{AccessKind, Addr, CoreId};
use hp_sdp::config::{ExperimentConfig, Notifier};
use hp_sdp::runner;
use hp_traffic::shape::TrafficShape;
use hp_workloads::service::WorkloadKind;
use std::hint::black_box;

fn bench_memsys(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem_system");
    g.bench_function("l1_hit_load", |b| {
        let mut m = MemSystem::new(MemSystemConfig::cmp(4));
        m.access(CoreId(0), Addr(0x1000), AccessKind::Load);
        b.iter(|| black_box(m.access(CoreId(0), Addr(0x1000), AccessKind::Load)))
    });
    g.bench_function("doorbell_ping_pong", |b| {
        let mut m = MemSystem::new(MemSystemConfig::cmp(4));
        b.iter(|| {
            // Producer store / consumer load on the same line: the SDP's
            // hottest coherence pattern.
            m.access(CoreId(1), Addr(0x2000), AccessKind::Store);
            black_box(m.access(CoreId(0), Addr(0x2000), AccessKind::Load));
        })
    });
    g.bench_function("streaming_loads", |b| {
        let mut m = MemSystem::new(MemSystemConfig::cmp(4));
        let mut a = 0u64;
        b.iter(|| {
            a = a.wrapping_add(64);
            black_box(m.access(
                CoreId(0),
                Addr(0x10_0000 + (a % (1 << 22))),
                AccessKind::Load,
            ))
        })
    });
    g.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end_sim");
    g.sample_size(10);
    for (name, notifier) in [
        ("spinning", Notifier::Spinning),
        ("hyperplane", Notifier::hyperplane()),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &notifier, |b, &n| {
            b.iter(|| {
                let mut cfg = ExperimentConfig::new(
                    WorkloadKind::RequestDispatch,
                    TrafficShape::ProportionallyConcentrated,
                    64,
                )
                .with_notifier(n);
                cfg.target_completions = 1_000;
                black_box(runner::peak_throughput(&cfg).throughput_tps)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_memsys, bench_end_to_end);
criterion_main!(benches);
