//! Layer probes: timed loops over each layer's public API, built with a
//! workload's own parameters, measured from outside the engine.
//!
//! Each probe reports host nanoseconds per operation of the fastest of
//! [`REPS`] timed repetitions after one untimed repetition (host noise
//! only adds time, as for the end-to-end metrics). Multiplied by
//! the traced round's operation counts they give the per-layer ledger:
//! an estimate, since an operation inside the engine meets a different
//! cache state and mix than the same operation in a tight loop.

use hp_core::qwait::HyperPlaneDevice;
use hp_mem::system::{MemSystem, MemSystemConfig};
use hp_mem::types::{AccessKind, Addr, CoreId, HitLevel, LineAddr, LINE_BYTES};
use hp_par::Rendezvous;
use hp_queues::sim::{QueueId, QueueLayout};
use hp_rand::rngs::CounterRng;
use hp_sdp::config::{ExperimentConfig, Load};
use hp_sim::event::EventQueue;
use hp_sim::time::Cycles;
use hp_traffic::generator::KeyedArrivals;
use hp_traffic::partition_queues;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per probe.
pub const REPS: usize = 5;

/// Runs `body` (which performs `ops` operations) once untimed, then
/// [`REPS`] times timed; returns the fastest repetition's nanoseconds per
/// operation.
fn fastest_ns(ops: usize, mut body: impl FnMut()) -> f64 {
    body();
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64() * 1e9 / ops as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A deterministic xorshift64 stream for probe inputs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Event delay mix of the engine: mostly poll-loop self-reschedules a
    /// few tens of cycles out, one in eight a service-length delay, some
    /// of those past the calendar wheel into the far heap.
    fn delay(&mut self) -> Cycles {
        let x = self.next();
        if x & 7 == 0 {
            Cycles(64 + (x >> 3) % 8_192)
        } else {
            Cycles(1 + (x >> 3) % 64)
        }
    }
}

/// `EventQueue::pop` plus `schedule_after`, ns per pair, at a standing
/// population of `population` events.
pub fn event_ns(population: usize) -> f64 {
    const OPS: usize = 200_000;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    for i in 0..population.max(1) {
        q.schedule_after(rng.delay(), i as u64);
    }
    fastest_ns(OPS, || {
        for _ in 0..OPS {
            let (_, p) = q.pop().expect("the population is standing");
            q.schedule_after(rng.delay(), black_box(p));
        }
    })
}

/// `MemSystem::access` ns per access satisfied at each level, in the
/// order L1 hit, LLC hit, remote-L1 transfer, DRAM fetch.
pub fn mem_ns(cfg: MemSystemConfig) -> [f64; 4] {
    let a = |line: u64| Addr(line * LINE_BYTES);
    let c0 = CoreId(0);
    let c1 = CoreId(1);
    let expect = |mem: &mut MemSystem, core, addr, kind, level: HitLevel| {
        let r = mem.access(core, addr, kind);
        assert_eq!(r.level, level, "probe access at {addr} missed its level");
    };

    // Two lines alternating on one core: every access an L1 hit, none
    // short-circuited by the last-touched-line filter.
    let mut mem = MemSystem::new(cfg);
    expect(&mut mem, c0, a(1), AccessKind::Load, HitLevel::Memory);
    expect(&mut mem, c0, a(2), AccessKind::Load, HitLevel::Memory);
    expect(&mut mem, c0, a(1), AccessKind::Load, HitLevel::L1);
    const L1_OPS: usize = 200_000;
    let l1 = fastest_ns(2 * L1_OPS, || {
        for _ in 0..L1_OPS {
            black_box(mem.access(c0, a(1), AccessKind::Load));
            black_box(mem.access(c0, a(2), AccessKind::Load));
        }
    });

    // A cyclic sweep over four L1 capacities: every access misses the L1
    // (LRU) and hits the LLC.
    let sweep = 4 * cfg.l1.size_bytes / LINE_BYTES;
    let base = 1 << 20;
    let mut mem = MemSystem::new(cfg);
    for l in 0..sweep {
        mem.access(c0, a(base + l), AccessKind::Load);
    }
    expect(&mut mem, c0, a(base), AccessKind::Load, HitLevel::Llc);
    let llc = fastest_ns(sweep as usize * 50, || {
        for _ in 0..50 {
            for l in 0..sweep {
                black_box(mem.access(c0, a(base + l), AccessKind::Load));
            }
        }
    });

    // Two cores storing to one line in turn: every store is a
    // cache-to-cache transfer of a Modified line.
    let mut mem = MemSystem::new(cfg);
    mem.access(c0, a(7), AccessKind::Store);
    expect(&mut mem, c1, a(7), AccessKind::Store, HitLevel::RemoteL1);
    const REMOTE_OPS: usize = 100_000;
    let remote = fastest_ns(2 * REMOTE_OPS, || {
        for _ in 0..REMOTE_OPS {
            black_box(mem.access(c0, a(7), AccessKind::Store));
            black_box(mem.access(c1, a(7), AccessKind::Store));
        }
    });

    // Loads of never-touched lines: every access a cold DRAM fill. The
    // total stays below the LLC's capacity, so no repetition meets LLC
    // evictions the others do not.
    let mut mem = MemSystem::new(cfg);
    const DRAM_OPS: usize = 30_000;
    let mut next = 1u64 << 30;
    expect(&mut mem, c0, a(next), AccessKind::Load, HitLevel::Memory);
    let dram = fastest_ns(DRAM_OPS, || {
        for _ in 0..DRAM_OPS {
            next += 1;
            black_box(mem.access(c0, a(next), AccessKind::Load));
        }
    });
    [l1, llc, remote, dram]
}

/// Queue ownership by sharing group, as the engine partitions it.
fn owners(cfg: &ExperimentConfig) -> Vec<usize> {
    if cfg.groups() == 1 {
        vec![0; cfg.queues as usize]
    } else {
        partition_queues(cfg.shape, cfg.queues, cfg.groups(), cfg.imbalance)
    }
}

/// `HyperPlaneDevice` ns per operation, for the device of the workload's
/// first sharing group at the workload's `HyperPlaneConfig`: a
/// `snoop_getm` that wakes an armed queue, and a `qwait_select` plus the
/// `qwait_verify` that re-arms it.
pub fn device_ns(cfg: &ExperimentConfig) -> (f64, f64) {
    let layout = QueueLayout::new(cfg.queues, cfg.workload.buffer_lines(), 4);
    let mut dev = HyperPlaneDevice::new(cfg.hp.clone(), layout.doorbell_range());
    let mut lines: Vec<LineAddr> = Vec::new();
    for (q, &g) in owners(cfg).iter().enumerate() {
        let line = layout.doorbell(QueueId(q as u32)).line();
        // A conflicting doorbell would need the engine's spare-doorbell
        // reallocation; the probe just leaves that queue out.
        if g == 0 && dev.qwait_add(QueueId(q as u32), line).is_ok() {
            lines.push(line);
        }
    }
    // A fixed pseudo-random subset of distinct queues, woken in turn.
    let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
    for i in (1..lines.len()).rev() {
        lines.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    lines.truncate(4_096);
    let k = lines.len();
    let mut snoop = Vec::with_capacity(REPS);
    let mut select = Vec::with_capacity(REPS);
    for rep in 0..=REPS {
        let t = Instant::now();
        for &l in &lines {
            black_box(dev.snoop_getm(l));
        }
        let t_snoop = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..k {
            let q = dev.qwait_select().expect("every probed queue was woken");
            black_box(dev.qwait_verify(q, 0));
        }
        let t_select = t.elapsed().as_secs_f64();
        if rep > 0 {
            snoop.push(t_snoop * 1e9 / k as f64);
            select.push(t_select * 1e9 / k as f64);
        }
    }
    let fastest = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    (fastest(snoop), fastest(select))
}

/// The offered arrival rate the engine drives `cfg` at.
fn offered_rate(cfg: &ExperimentConfig) -> f64 {
    match cfg.load {
        Load::RatePerSec(r) => r,
        Load::Saturation => cfg.capacity_estimate_per_core() * cfg.dp_cores as f64 * 3.0,
    }
}

/// `KeyedArrivals::arrival` ns per arrival, for the first sharing
/// group's stream at the workload's shape, queue count and rate.
pub fn traffic_ns(cfg: &ExperimentConfig) -> f64 {
    const OPS: u64 = 200_000;
    let arrivals = KeyedArrivals::for_partition(
        cfg.shape,
        cfg.queues,
        offered_rate(cfg),
        cfg.machine.clock,
        &owners(cfg),
        0,
        CounterRng::keyed(cfg.seed, 1, 0),
    )
    .expect("workload rates are positive")
    .expect("the first group carries traffic");
    let mut k = 0u64;
    fastest_ns(OPS as usize, || {
        for _ in 0..OPS {
            black_box(arrivals.arrival(k));
            k += 1;
        }
    })
}

/// `Rendezvous::wait` twice (one fabric synchronization round), ns per
/// round, at `parties` threads.
pub fn rendezvous_ns(parties: usize) -> f64 {
    const ROUNDS: usize = 20_000;
    let parties = parties.max(1);
    let rv = Rendezvous::new(parties);
    let cycle = |rv: &Rendezvous| {
        for _ in 0..ROUNDS {
            rv.wait();
            rv.wait();
        }
    };
    (0..=REPS)
        .map(|_| {
            std::thread::scope(|s| {
                for _ in 1..parties {
                    s.spawn(|| cycle(&rv));
                }
                let t = Instant::now();
                cycle(&rv);
                t.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64
            })
        })
        .skip(1)
        .fold(f64::INFINITY, f64::min)
}
