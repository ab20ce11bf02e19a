//! Service-policy playground: round-robin, weighted round-robin, and
//! strict priority on the ready set, plus QWAIT-DISABLE rate limiting —
//! §IV-B of the paper, observable grant by grant.
//!
//! ```sh
//! cargo run --release --example policy_playground
//! ```

use hyperplane::device::ready_set::{PpaKind, ReadySet, ServicePolicy};
use hyperplane::prelude::*;

fn grants(rs: &mut ReadySet, rounds: usize, backlogged: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    for _ in 0..rounds {
        for &q in backlogged {
            rs.activate(QueueId(q));
        }
        if let Some(q) = rs.select() {
            out.push(q.0);
        }
    }
    out
}

fn main() {
    // Round-robin: fair rotation over backlogged queues.
    let mut rr = ReadySet::new(4, ServicePolicy::RoundRobin);
    println!(
        "round-robin over {{0,1,2,3}}: {:?}",
        grants(&mut rr, 8, &[0, 1, 2, 3])
    );

    // Weighted round-robin: a premium tenant (queue 0, weight 4) gets 4 of
    // every 6 grants.
    let mut wrr = ReadySet::new(
        3,
        ServicePolicy::WeightedRoundRobin {
            weights: vec![4, 1, 1],
        },
    );
    println!(
        "WRR weights [4,1,1]:        {:?}",
        grants(&mut wrr, 12, &[0, 1, 2])
    );

    // Strict priority: queue 0 starves the rest while backlogged — the
    // paper notes this policy is rarely usable for exactly this reason.
    let mut strict = ReadySet::new(3, ServicePolicy::StrictPriority);
    println!(
        "strict priority:            {:?}",
        grants(&mut strict, 8, &[0, 1, 2])
    );

    // QWAIT-DISABLE as a rate limiter (the paper's congestion-control use
    // case): disable queue 0 for a "timer period", then re-enable.
    let mut limited = ReadySet::new(2, ServicePolicy::RoundRobin);
    let mut seq = Vec::new();
    for step in 0..12 {
        limited.activate(QueueId(0));
        limited.activate(QueueId(1));
        if step == 2 {
            limited.disable(QueueId(0)); // rate limit kicks in
        }
        if step == 8 {
            limited.enable(QueueId(0)); // timer expired
        }
        if let Some(q) = limited.select() {
            seq.push(q.0);
        }
    }
    println!("rate-limited queue 0:       {seq:?} (gap = disabled window)");

    // Both PPA designs select the same QID on every input (checked
    // against their gate-level models in `ready_set.rs`:
    // `ripple_and_brent_kung_agree_exhaustively_small` and
    // `packed_scan_matches_gate_level_oracle`); they differ in depth.
    println!(
        "gate depth at 1024 queues: ripple {} levels vs Brent-Kung {} levels",
        PpaKind::Ripple.gate_levels(1024),
        PpaKind::BrentKung.gate_levels(1024),
    );
}
