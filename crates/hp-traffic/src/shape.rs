//! The four traffic shapes of the paper's evaluation (§II-C, §V-A).
//!
//! * **FB** — Fully Balanced: traffic spread across all queues.
//! * **PC** — Proportionally Concentrated: 20 % of queues are hot all the
//!   time; the rest receive traffic with probability 5 %.
//! * **NC** — Non-proportionally Concentrated: a fixed 100 queues are hot;
//!   the rest receive traffic with probability 5 %.
//! * **SQ** — Single Queue: all traffic through one queue.

/// Cold-queue activity probability for the concentrated shapes.
pub const COLD_PROB: f64 = 0.05;
/// Fraction of hot queues under PC.
pub const PC_HOT_FRACTION: f64 = 0.20;
/// Fixed hot-queue count under NC.
pub const NC_HOT_QUEUES: u32 = 100;

/// A traffic shape: how arrival probability distributes over queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficShape {
    /// Fully balanced over all queues.
    FullyBalanced,
    /// 20 % hot queues, 5 % cold probability.
    ProportionallyConcentrated,
    /// 100 hot queues, 5 % cold probability.
    NonproportionallyConcentrated,
    /// All traffic to queue 0.
    SingleQueue,
}

impl TrafficShape {
    /// All shapes in the paper's presentation order.
    pub const ALL: [TrafficShape; 4] = [
        TrafficShape::FullyBalanced,
        TrafficShape::ProportionallyConcentrated,
        TrafficShape::NonproportionallyConcentrated,
        TrafficShape::SingleQueue,
    ];

    /// Short label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            TrafficShape::FullyBalanced => "FB",
            TrafficShape::ProportionallyConcentrated => "PC",
            TrafficShape::NonproportionallyConcentrated => "NC",
            TrafficShape::SingleQueue => "SQ",
        }
    }

    /// Per-queue arrival weights for `total_queues` queues.
    ///
    /// The weights are relative probabilities of an arrival targeting each
    /// queue; they need not sum to one.
    ///
    /// # Panics
    ///
    /// Panics if `total_queues` is zero.
    pub fn weights(self, total_queues: u32) -> Vec<f64> {
        assert!(total_queues > 0, "need at least one queue");
        let n = total_queues as usize;
        match self {
            TrafficShape::FullyBalanced => vec![1.0; n],
            TrafficShape::SingleQueue => {
                let mut w = vec![0.0; n];
                w[0] = 1.0;
                w
            }
            TrafficShape::ProportionallyConcentrated => {
                let hot = ((total_queues as f64 * PC_HOT_FRACTION).round() as usize).max(1);
                (0..n)
                    .map(|i| if i < hot { 1.0 } else { COLD_PROB })
                    .collect()
            }
            TrafficShape::NonproportionallyConcentrated => {
                let hot = (NC_HOT_QUEUES as usize).min(n);
                (0..n)
                    .map(|i| if i < hot { 1.0 } else { COLD_PROB })
                    .collect()
            }
        }
    }
}

impl std::fmt::Display for TrafficShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fb_is_uniform() {
        let w = TrafficShape::FullyBalanced.weights(10);
        assert!(w.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn sq_concentrates_on_queue_zero() {
        let w = TrafficShape::SingleQueue.weights(100);
        assert_eq!(w[0], 1.0);
        assert!(w[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pc_hot_fraction_scales_with_queue_count() {
        for q in [10u32, 100, 1000] {
            let w = TrafficShape::ProportionallyConcentrated.weights(q);
            let hot = w.iter().filter(|&&x| x == 1.0).count() as u32;
            assert_eq!(hot, (q as f64 * 0.2).round() as u32);
        }
    }

    #[test]
    fn nc_hot_count_is_fixed() {
        let w = TrafficShape::NonproportionallyConcentrated.weights(50);
        assert!(w.iter().all(|&x| x == 1.0), "fewer queues than hot slots");
        let w = TrafficShape::NonproportionallyConcentrated.weights(500);
        assert_eq!(w.iter().filter(|&&x| x == 1.0).count(), 100);
        assert_eq!(w.iter().filter(|&&x| x == COLD_PROB).count(), 400);
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = TrafficShape::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["FB", "PC", "NC", "SQ"]);
    }
}
