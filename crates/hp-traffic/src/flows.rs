//! Flow-based traffic generation: Zipf-popular flows steered to queues
//! through an RSS indirection table, as a real NIC does.
//!
//! The shape-based generator ([`crate::generator::KeyedArrivals`])
//! assigns each packet to a queue directly from a weight vector. Real
//! traffic is *flow*-structured: packets belong to flows, flow popularity
//! is heavy-tailed (Zipf), and the NIC maps a flow's Toeplitz hash through
//! a small indirection table (RETA) to pick the queue. This module models
//! that pipeline end-to-end, producing the organically unbalanced queue
//! loads the paper's PC/NC shapes approximate.

use crate::alias::AliasTable;
use hp_queues::sim::QueueId;
use hp_rand::rngs::SmallRng;
use hp_sim::rng::sample_exp;
use hp_sim::time::{Clock, Cycles};
use hp_workloads::steering::{FlowKey, DEFAULT_RSS_KEY};

/// An RSS indirection table (RETA): hash LSBs index a small table of
/// queue ids, as in real NICs (128 entries typical).
#[derive(Debug, Clone)]
pub struct RssIndirection {
    table: Vec<u32>,
}

impl RssIndirection {
    /// Standard RETA size.
    pub const DEFAULT_ENTRIES: usize = 128;

    /// Builds a RETA spreading `queues` queues round-robin over
    /// `entries` slots (the default NIC configuration).
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `queues` is zero, or `entries` is not a
    /// power of two.
    pub fn balanced(entries: usize, queues: u32) -> Self {
        assert!(
            entries > 0 && entries.is_power_of_two(),
            "RETA entries must be a power of two"
        );
        assert!(queues > 0, "need at least one queue");
        RssIndirection {
            table: (0..entries).map(|i| i as u32 % queues).collect(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Redirects one RETA slot (the rebalancing primitive NIC drivers use).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn redirect(&mut self, slot: usize, queue: QueueId) {
        self.table[slot] = queue.0;
    }

    /// Maps an RSS hash to its queue.
    pub fn queue_for(&self, hash: u32) -> QueueId {
        QueueId(self.table[hash as usize & (self.table.len() - 1)])
    }
}

/// One generated flow-structured arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowArrival {
    /// Delay after the previous arrival.
    pub gap: Cycles,
    /// Destination queue (via RSS).
    pub queue: QueueId,
    /// Index of the flow the packet belongs to.
    pub flow: u32,
}

/// Zipf-popular flows hashed through RSS to queues.
///
/// # Examples
///
/// ```
/// use hp_traffic::flows::FlowTrafficGenerator;
/// use hp_sim::rng::RngFactory;
/// use hp_sim::time::Clock;
///
/// let mut gen = FlowTrafficGenerator::new(
///     1000,      // flows
///     1.1,       // zipf exponent
///     16,        // queues
///     100_000.0, // packets/second
///     Clock::default(),
///     RngFactory::new(3).stream(0),
/// );
/// let a = gen.next_arrival();
/// assert!(a.queue.0 < 16);
/// ```
#[derive(Debug)]
pub struct FlowTrafficGenerator {
    flows: Vec<FlowKey>,
    queue_of_flow: Vec<QueueId>,
    popularity: AliasTable,
    zipf_s: f64,
    mean_gap_cycles: f64,
    rng: SmallRng,
}

impl FlowTrafficGenerator {
    /// Creates `flows` flows with Zipf(`s`) popularity over `queues`
    /// queues at `rate_per_sec` total packets/second.
    ///
    /// # Panics
    ///
    /// Panics if `flows` or `queues` is zero, `s` is not positive, or the
    /// rate is not positive.
    pub fn new(
        flows: u32,
        s: f64,
        queues: u32,
        rate_per_sec: f64,
        clock: Clock,
        rng: SmallRng,
    ) -> Self {
        assert!(flows > 0, "need at least one flow");
        assert!(s > 0.0, "zipf exponent must be positive");
        assert!(rate_per_sec > 0.0, "rate must be positive");
        let reta = RssIndirection::balanced(RssIndirection::DEFAULT_ENTRIES, queues);
        let keys: Vec<FlowKey> = (0..flows)
            .map(|i| FlowKey {
                src_ip: [10, (i >> 8) as u8, i as u8, 1],
                dst_ip: [192, 168, 0, 1],
                src_port: 1024 + (i % 50_000) as u16,
                dst_port: 443,
                protocol: 6,
            })
            .collect();
        let queue_of_flow: Vec<QueueId> = keys
            .iter()
            .map(|k| reta.queue_for(k.hash(&DEFAULT_RSS_KEY)))
            .collect();
        // Zipf weights: 1 / rank^s.
        let weights: Vec<f64> = (1..=flows as usize)
            .map(|r| 1.0 / (r as f64).powf(s))
            .collect();
        let popularity = AliasTable::new(&weights).expect("positive weights");
        FlowTrafficGenerator {
            flows: keys,
            queue_of_flow,
            popularity,
            zipf_s: s,
            mean_gap_cycles: clock.ghz() * 1e9 / rate_per_sec,
            rng,
        }
    }

    /// Draws the next packet arrival.
    pub fn next_arrival(&mut self) -> FlowArrival {
        let gap = sample_exp(&mut self.rng, self.mean_gap_cycles)
            .round()
            .max(1.0) as u64;
        let flow = self.popularity.sample(&mut self.rng) as u32;
        FlowArrival {
            gap: Cycles(gap),
            queue: self.queue_of_flow[flow as usize],
            flow,
        }
    }

    /// Draws `n` consecutive arrivals, appending `(gap, queue)` pairs to
    /// `out` — the exact sequence `n` [`Self::next_arrival`] calls would
    /// produce (same RNG draws, same order). Lets the simulation engine
    /// prebuffer arrivals in blocks without perturbing a single timestamp;
    /// the flow id is deliberately dropped (the engine routes on queue).
    pub fn fill_arrivals(
        &mut self,
        out: &mut std::collections::VecDeque<(Cycles, QueueId)>,
        n: usize,
    ) {
        for _ in 0..n {
            let a = self.next_arrival();
            out.push_back((a.gap, a.queue));
        }
    }

    /// The 5-tuple of flow `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn flow_key(&self, i: u32) -> FlowKey {
        self.flows[i as usize]
    }

    /// The per-queue arrival probability implied by the flow→queue mapping
    /// and the popularity distribution (for analysis/tests).
    pub fn queue_load_shares(&self, queues: u32) -> Vec<f64> {
        let s_total: f64 = (1..=self.flows.len())
            .map(|r| 1.0 / (r as f64).powf(self.zipf_s))
            .sum();
        let mut shares = vec![0.0; queues as usize];
        for (i, q) in self.queue_of_flow.iter().enumerate() {
            let w = 1.0 / ((i + 1) as f64).powf(self.zipf_s);
            shares[q.0 as usize] += w / s_total;
        }
        shares
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_sim::rng::RngFactory;

    fn generator(flows: u32, queues: u32) -> FlowTrafficGenerator {
        FlowTrafficGenerator::new(
            flows,
            1.1,
            queues,
            1_000_000.0,
            Clock::default(),
            RngFactory::new(5).stream(0),
        )
    }

    #[test]
    fn reta_spreads_round_robin() {
        let reta = RssIndirection::balanced(128, 8);
        let mut counts = [0u32; 8];
        for h in 0..128u32 {
            counts[reta.queue_for(h).0 as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 16), "{counts:?}");
    }

    #[test]
    fn reta_redirect_moves_traffic() {
        let mut reta = RssIndirection::balanced(128, 4);
        let victim_hash = 5u32;
        let before = reta.queue_for(victim_hash);
        reta.redirect(5, QueueId(3));
        assert_eq!(reta.queue_for(victim_hash), QueueId(3));
        assert_ne!(before, QueueId(3), "slot 5 originally maps to queue 1");
    }

    #[test]
    fn flow_packets_always_hit_the_same_queue() {
        let mut g = generator(500, 16);
        let mut seen: Vec<Option<QueueId>> = vec![None; 500];
        for _ in 0..20_000 {
            let a = g.next_arrival();
            match seen[a.flow as usize] {
                None => seen[a.flow as usize] = Some(a.queue),
                Some(q) => assert_eq!(q, a.queue, "flow {} migrated queues", a.flow),
            }
        }
    }

    #[test]
    fn zipf_popularity_is_heavy_tailed() {
        let mut g = generator(1000, 16);
        let mut counts = vec![0u64; 1000];
        let n = 100_000;
        for _ in 0..n {
            counts[g.next_arrival().flow as usize] += 1;
        }
        // Flow 0 (rank 1) should dominate: > 10x the median flow.
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let median = sorted[500];
        assert!(
            counts[0] > 10 * median.max(1),
            "rank-1 flow {} vs median {median}",
            counts[0]
        );
        // Top 10% of flows carry most of the traffic.
        let mut by_count = counts.clone();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = by_count[..100].iter().sum();
        assert!(
            top as f64 > 0.5 * n as f64,
            "top-decile share {}",
            top as f64 / n as f64
        );
    }

    #[test]
    fn queue_loads_are_organically_unbalanced() {
        // The emergent queue skew is what the paper's PC/NC shapes model.
        let mut g = generator(2000, 32);
        let mut counts = vec![0u64; 32];
        for _ in 0..100_000 {
            counts[g.next_arrival().queue.0 as usize] += 1;
        }
        let max = *counts.iter().max().expect("nonempty");
        let min = *counts.iter().min().expect("nonempty");
        assert!(
            max > 3 * min.max(1),
            "expected heavy queue imbalance, got min {min} max {max}"
        );
    }

    #[test]
    fn load_share_analysis_sums_to_one() {
        let g = generator(300, 8);
        let shares = g.queue_load_shares(8);
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = generator(100, 4);
        let mut b = generator(100, 4);
        for _ in 0..100 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }
}
