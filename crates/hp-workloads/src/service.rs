//! Per-workload service-time models for the simulator.
//!
//! The simulator charges each work item a service demand drawn from a
//! [`ServiceModel`]. The default mean service times are calibrated so the
//! *relative* single-core peak throughputs match the paper's Fig. 8 axes
//! (DESIGN.md §6).

use hp_rand::Rng;
use hp_sim::rng::Distribution;
use hp_sim::time::{Clock, Cycles};

/// The six data-plane tasks of the paper's evaluation (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// GRE encapsulation of IPv4 in IPv6.
    PacketEncap,
    /// AES-CBC-256 packet encryption.
    CryptoForward,
    /// Session-affinity packet steering.
    PacketSteering,
    /// Reed–Solomon (Cauchy) erasure coding.
    ErasureCoding,
    /// RAID P+Q parity computation.
    RaidProtection,
    /// Microservice request dispatching.
    RequestDispatch,
}

impl WorkloadKind {
    /// All workloads, in the paper's presentation order.
    pub const ALL: [WorkloadKind; 6] = [
        WorkloadKind::PacketEncap,
        WorkloadKind::CryptoForward,
        WorkloadKind::PacketSteering,
        WorkloadKind::ErasureCoding,
        WorkloadKind::RaidProtection,
        WorkloadKind::RequestDispatch,
    ];

    /// Human-readable name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PacketEncap => "Packet encapsulation",
            WorkloadKind::CryptoForward => "Crypto forwarding",
            WorkloadKind::PacketSteering => "Packet steering",
            WorkloadKind::ErasureCoding => "Erasure coding",
            WorkloadKind::RaidProtection => "RAID protection",
            WorkloadKind::RequestDispatch => "Request dispatching",
        }
    }

    /// Calibrated mean service time in microseconds (DESIGN.md §6): sets
    /// single-core peak throughput to the same relative magnitudes as the
    /// paper's Fig. 8.
    pub fn mean_service_us(self) -> f64 {
        match self {
            WorkloadKind::PacketEncap => 1.4,
            WorkloadKind::CryptoForward => 7.0,
            WorkloadKind::PacketSteering => 2.7,
            WorkloadKind::ErasureCoding => 9.5,
            WorkloadKind::RaidProtection => 4.3,
            WorkloadKind::RequestDispatch => 1.6,
        }
    }

    /// Cache lines of packet/task data each item touches during transport
    /// processing (drives LLC pressure at high queue counts).
    pub fn buffer_lines(self) -> u64 {
        match self {
            WorkloadKind::PacketEncap => 24,    // ~1.5 KB packet
            WorkloadKind::CryptoForward => 24,  // same packets, heavier compute
            WorkloadKind::PacketSteering => 4,  // headers only
            WorkloadKind::ErasureCoding => 64,  // 4 KB block
            WorkloadKind::RaidProtection => 64, // 4 KB block
            WorkloadKind::RequestDispatch => 8, // small RPC frames
        }
    }

    /// Instructions a task of this workload retires per cycle while doing
    /// useful work (a coarse IPC for the telemetry model; compute-dense
    /// kernels run higher).
    pub fn useful_ipc(self) -> f64 {
        match self {
            WorkloadKind::PacketEncap => 1.2,
            WorkloadKind::CryptoForward => 2.2,
            WorkloadKind::PacketSteering => 1.0,
            WorkloadKind::ErasureCoding => 2.4,
            WorkloadKind::RaidProtection => 2.0,
            WorkloadKind::RequestDispatch => 1.1,
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Draws per-item service demands for a workload.
///
/// # Examples
///
/// ```
/// use hp_rand::rngs::SmallRng;
/// use hp_rand::SeedableRng;
/// use hp_workloads::service::{ServiceModel, WorkloadKind};
/// use hp_sim::rng::{Distribution, RngFactory};
/// use hp_sim::time::Clock;
///
/// let model = ServiceModel::new(WorkloadKind::PacketEncap, Distribution::Exponential, Clock::default());
/// let mut rng = SmallRng::seed_from_u64(RngFactory::new(7).stream_seed(0));
/// let demand = model.sample(&mut rng);
/// assert!(demand.count() > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ServiceModel {
    kind: WorkloadKind,
    distribution: Distribution,
    mean_cycles: f64,
}

impl ServiceModel {
    /// Creates a model for `kind` with the given service-time shape.
    pub fn new(kind: WorkloadKind, distribution: Distribution, clock: Clock) -> Self {
        let mean_cycles = clock.micros_to_cycles(kind.mean_service_us()).count() as f64;
        ServiceModel {
            kind,
            distribution,
            mean_cycles,
        }
    }

    /// The workload this model describes.
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Mean service demand in cycles.
    pub fn mean_cycles(&self) -> f64 {
        self.mean_cycles
    }

    /// Draws one service demand.
    pub fn sample(&self, rng: &mut impl Rng) -> Cycles {
        Cycles(
            self.distribution
                .sample(rng, self.mean_cycles)
                .round()
                .max(1.0) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_rand::rngs::SmallRng;
    use hp_rand::SeedableRng;
    use hp_sim::rng::RngFactory;

    #[test]
    fn service_model_means_are_calibrated() {
        let clock = Clock::default();
        for kind in WorkloadKind::ALL {
            let m = ServiceModel::new(kind, Distribution::Constant, clock);
            let mut rng = SmallRng::seed_from_u64(RngFactory::new(1).stream_seed(0));
            let s = m.sample(&mut rng);
            let expect = clock.micros_to_cycles(kind.mean_service_us());
            assert_eq!(s, expect, "{kind}");
        }
    }

    #[test]
    fn exponential_samples_have_right_mean() {
        let clock = Clock::default();
        let m = ServiceModel::new(WorkloadKind::PacketEncap, Distribution::Exponential, clock);
        let mut rng = SmallRng::seed_from_u64(RngFactory::new(2).stream_seed(0));
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| m.sample(&mut rng).count()).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - m.mean_cycles()).abs() / m.mean_cycles() < 0.02,
            "mean {mean}"
        );
    }

    #[test]
    fn crypto_is_slowest_network_task_and_erasure_slowest_overall() {
        // Relative calibration matches Fig. 8's ordering.
        assert!(
            WorkloadKind::ErasureCoding.mean_service_us()
                > WorkloadKind::CryptoForward.mean_service_us()
        );
        assert!(
            WorkloadKind::CryptoForward.mean_service_us()
                > WorkloadKind::PacketEncap.mean_service_us()
        );
        assert!(
            WorkloadKind::PacketEncap.mean_service_us()
                < WorkloadKind::PacketSteering.mean_service_us()
        );
    }
}
