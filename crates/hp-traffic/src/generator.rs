//! Open-loop Poisson traffic generation.
//!
//! The paper's emulated I/O sources "generate traffic with different shapes
//! and loads" and arrivals "follow a Poisson process (memoryless
//! inter-arrival times)" (§V-A/§V-B). [`KeyedArrivals`] produces a
//! deterministic, seeded stream of `(inter-arrival, queue)` draws per
//! queue partition: the data-plane engines schedule each arrival as a
//! producer-core doorbell store.

use crate::alias::AliasTable;
use crate::shape::TrafficShape;
use hp_queues::sim::QueueId;
use hp_rand::rngs::CounterRng;
use hp_sim::rng::sample_exp;
use hp_sim::time::{Clock, Cycles};

/// One generated arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Delay after the previous arrival.
    pub gap: Cycles,
    /// Destination queue.
    pub queue: QueueId,
}

/// Keyed per-partition Poisson arrival stream over a traffic shape.
///
/// A Poisson process split by independent queue picks is a superposition of
/// independent per-partition Poisson processes, so instead of one shared
/// stream that every simulation lane must replay (burning foreign draws),
/// each partition runs its *own* exponential-gap stream at the partition's
/// share of the offered rate, with the destination queue drawn from the
/// partition's renormalized weight table. Arrival `k` of a partition is a
/// **pure function of `(seed, stream, partition, k)`** — every draw comes
/// from a [`CounterRng`] sub-stream split per arrival index — so any
/// observer (a serial engine running all partitions, or a lane running one)
/// reconstructs the identical arrival bit-for-bit without sharing RNG
/// state.
#[derive(Debug)]
pub struct KeyedArrivals {
    table: AliasTable,
    queue_ids: Vec<QueueId>,
    mean_gap_cycles: f64,
    rng: CounterRng,
}

impl KeyedArrivals {
    /// Builds the arrival stream for `partition` under `owner` (the
    /// queue→partition map from [`partition_queues`]). `rate_per_sec` is
    /// the *total* offered rate; the partition's stream runs at its weight
    /// share of it. Returns `Ok(None)` for a partition with zero traffic
    /// mass (e.g. every partition but one under a single-queue shape) —
    /// such a partition has no arrival process at all.
    ///
    /// `rng` scopes the randomness; derive it per partition, e.g.
    /// `CounterRng::keyed(seed, stream_id, partition as u64)`.
    ///
    /// # Errors
    ///
    /// Returns an error string if the total rate is not positive.
    pub fn for_partition(
        shape: TrafficShape,
        queues: u32,
        rate_per_sec: f64,
        clock: Clock,
        owner: &[usize],
        partition: usize,
        rng: CounterRng,
    ) -> Result<Option<Self>, String> {
        if !(rate_per_sec.is_finite() && rate_per_sec > 0.0) {
            return Err(format!("offered rate must be positive, got {rate_per_sec}"));
        }
        assert_eq!(owner.len(), queues as usize, "owner map length mismatch");
        // The partition's weights are compacted in place, and its queue
        // ids go to a column sized to fit.
        let mut local = shape.weights(queues);
        let total_mass: f64 = local.iter().sum();
        let is_local = |q: usize, w: f64| owner[q] == partition && w > 0.0;
        let n = (0..local.len()).filter(|&q| is_local(q, local[q])).count();
        let mut queue_ids = Vec::with_capacity(n);
        let mut q = 0;
        local.retain(|&w| {
            let keep = is_local(q, w);
            if keep {
                queue_ids.push(QueueId(q as u32));
            }
            q += 1;
            keep
        });
        let local_mass: f64 = local.iter().sum();
        if local_mass <= 0.0 {
            return Ok(None);
        }
        // `retain` kept the capacity of all `queues`; the table takes the
        // vector as its probability column, so trim it to the partition.
        local.shrink_to_fit();
        let table = AliasTable::new(local).map_err(|e| e.to_string())?;
        let cycles_per_sec = clock.ghz() * 1e9;
        // Thinning a rate-λ Poisson process with probability p yields a
        // rate-λp process: the partition's mean gap is the total mean gap
        // scaled up by the inverse of its weight share.
        let mean_gap_cycles = cycles_per_sec / (rate_per_sec * local_mass / total_mass);
        Ok(Some(KeyedArrivals {
            table,
            queue_ids,
            mean_gap_cycles,
            rng,
        }))
    }

    /// The `k`-th arrival of this partition's stream (0-based): the gap to
    /// the *next* arrival and the destination queue of *this* one. Pure in
    /// `k`: each index gets its own split sub-stream, so the (variable)
    /// number of underlying draws per arrival never shifts later indices.
    pub fn arrival(&self, k: u64) -> Arrival {
        let mut rng = self.rng.split(k);
        let gap = sample_exp(&mut rng, self.mean_gap_cycles).round().max(1.0) as u64;
        let queue = self.queue_ids[self.table.sample(&mut rng)];
        Arrival {
            gap: Cycles(gap),
            queue,
        }
    }

    /// Mean inter-arrival gap of this partition's stream, in cycles.
    pub fn mean_gap_cycles(&self) -> f64 {
        self.mean_gap_cycles
    }

    /// Host bytes reserved for the alias table and the queue-id column
    /// (capacity × element size).
    pub fn reserved_bytes(&self) -> usize {
        self.table.reserved_bytes() + self.queue_ids.capacity() * std::mem::size_of::<QueueId>()
    }
}

/// Splits `queues` queues into `cores` contiguous scale-out partitions,
/// optionally skewing hot-queue placement to create static load imbalance
/// (Fig. 10b's "10 % imbalance" variant).
///
/// With `imbalance = 0.0` hot queues are dealt round-robin across
/// partitions (balanced); with `imbalance = 0.1`, partition 0 receives
/// ~10 % more of the hot queues than a balanced deal, at the expense of the
/// last partition.
///
/// Returns, for each queue, the index of the core partition that owns it.
///
/// # Panics
///
/// Panics if `cores` is zero, `queues < cores`, or `imbalance` is not in
/// `[0, 1)`.
pub fn partition_queues(
    shape: TrafficShape,
    queues: u32,
    cores: usize,
    imbalance: f64,
) -> Vec<usize> {
    assert!(cores > 0, "need at least one core");
    assert!(queues as usize >= cores, "fewer queues than cores");
    assert!(
        (0.0..1.0).contains(&imbalance),
        "imbalance must be in [0,1)"
    );
    let weights = shape.weights(queues);
    // Order queues hot-first so we can deal them like cards.
    let mut order: Vec<usize> = (0..queues as usize).collect();
    order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).expect("finite weights"));

    let mut owner = vec![0usize; queues as usize];
    if imbalance == 0.0 {
        for (i, &q) in order.iter().enumerate() {
            owner[q] = i % cores;
        }
        return owner;
    }
    // Weighted deal: core 0 gets a (1 + imbalance·cores/(cores-1))-ish
    // share, the last core gets correspondingly less; middles unchanged.
    let mut shares = vec![1.0; cores];
    shares[0] += imbalance * cores as f64 / 2.0;
    shares[cores - 1] -= imbalance * cores as f64 / 2.0;
    let total: f64 = shares.iter().sum();
    let targets: Vec<f64> = shares
        .iter()
        .map(|s| s / total * order.len() as f64)
        .collect();
    let mut filled = vec![0usize; cores];
    for &q in &order {
        // Assign to the most-underfilled core relative to its target.
        let core = (0..cores)
            .max_by(|&a, &b| {
                let da = targets[a] - filled[a] as f64;
                let db = targets[b] - filled[b] as f64;
                da.partial_cmp(&db).expect("finite")
            })
            .expect("cores > 0");
        owner[q] = core;
        filled[core] += 1;
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_partition_deals_hot_queues_evenly() {
        let owner = partition_queues(TrafficShape::ProportionallyConcentrated, 400, 4, 0.0);
        // 80 hot queues (20%) should land 20 per core.
        let weights = TrafficShape::ProportionallyConcentrated.weights(400);
        let mut hot_per_core = [0u32; 4];
        for (q, &c) in owner.iter().enumerate() {
            if weights[q] == 1.0 {
                hot_per_core[c] += 1;
            }
        }
        assert_eq!(hot_per_core, [20, 20, 20, 20]);
    }

    #[test]
    fn imbalanced_partition_skews_hot_queues() {
        let owner = partition_queues(TrafficShape::ProportionallyConcentrated, 400, 4, 0.10);
        let weights = TrafficShape::ProportionallyConcentrated.weights(400);
        let mut hot_per_core = [0u32; 4];
        for (q, &c) in owner.iter().enumerate() {
            if weights[q] == 1.0 {
                hot_per_core[c] += 1;
            }
        }
        assert!(
            hot_per_core[0] > hot_per_core[3],
            "expected skew, got {hot_per_core:?}"
        );
        let total: u32 = hot_per_core.iter().sum();
        assert_eq!(total, 80);
    }

    #[test]
    fn every_queue_gets_an_owner() {
        let owner = partition_queues(TrafficShape::FullyBalanced, 17, 4, 0.0);
        assert_eq!(owner.len(), 17);
        for c in 0..4 {
            assert!(owner.contains(&c), "core {c} owns nothing");
        }
    }

    #[test]
    #[should_panic(expected = "fewer queues than cores")]
    fn partition_rejects_too_few_queues() {
        let _ = partition_queues(TrafficShape::FullyBalanced, 2, 4, 0.0);
    }

    fn keyed(shape: TrafficShape, queues: u32, parts: usize, p: usize) -> Option<KeyedArrivals> {
        let owner = partition_queues(shape, queues, parts, 0.0);
        KeyedArrivals::for_partition(
            shape,
            queues,
            1_000_000.0,
            Clock::default(),
            &owner,
            p,
            CounterRng::keyed(11, 1, p as u64),
        )
        .unwrap()
    }

    #[test]
    fn keyed_arrivals_are_pure_in_index() {
        let ka = keyed(TrafficShape::FullyBalanced, 16, 4, 2).unwrap();
        for k in [0u64, 1, 7, 1000, 123_456] {
            assert_eq!(ka.arrival(k), ka.arrival(k));
        }
        assert_ne!(ka.arrival(0), ka.arrival(1));
    }

    #[test]
    fn keyed_arrivals_only_target_owned_queues() {
        let owner = partition_queues(TrafficShape::ProportionallyConcentrated, 100, 4, 0.0);
        for p in 0..4 {
            let ka = keyed(TrafficShape::ProportionallyConcentrated, 100, 4, p).unwrap();
            for k in 0..2000 {
                assert_eq!(owner[ka.arrival(k).queue.0 as usize], p);
            }
        }
        // SQ on a single partition sends everything to queue 0.
        let sq = keyed(TrafficShape::SingleQueue, 64, 1, 0).unwrap();
        for k in 0..1000 {
            assert_eq!(sq.arrival(k).queue, QueueId(0));
        }
    }

    #[test]
    fn keyed_superposition_matches_total_rate_and_weights() {
        // Sum of per-partition rates must equal the offered rate, and the
        // superposed per-queue frequencies must match the shape weights —
        // the statistical-equivalence contract with the sequential stream.
        let shape = TrafficShape::ProportionallyConcentrated;
        let queues = 100u32;
        let weights = shape.weights(queues);
        let total_mass: f64 = weights.iter().sum();
        let mut rate_sum = 0.0;
        let mut counts = vec![0u64; queues as usize];
        let n_per = 50_000u64;
        for p in 0..4 {
            let ka = keyed(shape, queues, 4, p).unwrap();
            // Partition rate = clock / mean gap.
            rate_sum += Clock::default().ghz() * 1e9 / ka.mean_gap_cycles();
            for k in 0..n_per {
                counts[ka.arrival(k).queue.0 as usize] += 1;
            }
        }
        assert!((rate_sum - 1_000_000.0).abs() < 1.0, "rate sum {rate_sum}");
        // Each partition contributed samples proportional to its share in
        // the long run; weight check within partitions: hot queues of a
        // partition should see ~20x a cold queue of the same partition.
        let owner = partition_queues(shape, queues, 4, 0.0);
        for p in 0..4 {
            let hot: Vec<u64> = (0..queues as usize)
                .filter(|&q| owner[q] == p && weights[q] == 1.0)
                .map(|q| counts[q])
                .collect();
            let cold: Vec<u64> = (0..queues as usize)
                .filter(|&q| owner[q] == p && weights[q] < 1.0)
                .map(|q| counts[q])
                .collect();
            let hot_mean = hot.iter().sum::<u64>() as f64 / hot.len() as f64;
            let cold_mean = cold.iter().sum::<u64>() as f64 / cold.len() as f64;
            let ratio = hot_mean / cold_mean;
            assert!((ratio - 20.0).abs() < 2.0, "partition {p} ratio {ratio}");
        }
        let _ = total_mass;
        // On a single partition the hot queues carry the shape's hot mass
        // fraction, 20 / (20 + 80 * 0.05) = 0.8333.
        let one = keyed(shape, queues, 1, 0).unwrap();
        let n = 100_000u64;
        let hot = (0..n)
            .filter(|&k| weights[one.arrival(k).queue.0 as usize] == 1.0)
            .count();
        let frac = hot as f64 / n as f64;
        assert!((frac - 0.8333).abs() < 0.01, "hot fraction {frac}");
    }

    #[test]
    fn keyed_reserved_bytes_fit_the_partition() {
        // A quarter of the queues: the table and queue-id column hold 256
        // entries each, not the 1024 of the unpartitioned weight vector.
        use std::mem::size_of;
        let per_entry = size_of::<f64>() + size_of::<u32>() + size_of::<QueueId>();
        for p in 0..4 {
            let ka = keyed(TrafficShape::FullyBalanced, 1024, 4, p).unwrap();
            assert_eq!(ka.reserved_bytes(), 256 * per_entry, "partition {p}");
        }
    }

    #[test]
    fn keyed_gap_mean_converges() {
        let ka = keyed(TrafficShape::FullyBalanced, 8, 2, 0).unwrap();
        let n = 100_000u64;
        let total: u64 = (0..n).map(|k| ka.arrival(k).gap.count()).sum();
        let mean = total as f64 / n as f64;
        // Half the queues => half the rate => 4000-cycle mean gap.
        assert!((mean - 4000.0).abs() < 60.0, "mean gap {mean}");
    }

    #[test]
    fn keyed_zero_mass_partition_has_no_stream() {
        // SQ sends everything to queue 0; partitions not owning it get no
        // arrival process.
        let owner = partition_queues(TrafficShape::SingleQueue, 8, 4, 0.0);
        let q0_owner = owner[0];
        for p in 0..4 {
            let ka = keyed(TrafficShape::SingleQueue, 8, 4, p);
            assert_eq!(ka.is_some(), p == q0_owner, "partition {p}");
        }
        // A non-positive rate is an error, not an empty stream.
        for rate in [0.0, -1.0] {
            assert!(KeyedArrivals::for_partition(
                TrafficShape::FullyBalanced,
                4,
                rate,
                Clock::default(),
                &[0; 4],
                0,
                CounterRng::keyed(11, 1, 0),
            )
            .is_err());
        }
    }
}
