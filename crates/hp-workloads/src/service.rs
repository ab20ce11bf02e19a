//! Per-workload service-time models for the simulator, plus host-side
//! calibration that actually runs the kernels.
//!
//! The simulator charges each work item a service demand drawn from a
//! [`ServiceModel`]. The default mean service times are calibrated so the
//! *relative* single-core peak throughputs match the paper's Fig. 8 axes
//! (DESIGN.md §6); [`calibrate_host_ns`] additionally measures the real
//! kernels from this crate on the host, for reporting side-by-side.

use crate::aes::Aes256;
use crate::dispatch::{Dispatcher, Request, RequestType};
use crate::gf256::Gf256;
use crate::packet::{build_ipv4_packet, GreEncapsulator};
use crate::raid::PqRaid;
use crate::reed_solomon::ReedSolomon;
use crate::steering::{FlowKey, PacketSteerer};
use hp_bytes::Bytes;
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

/// Executes one representative task of `kind` on the host, end to end, and
/// returns a checksum byte (so the work cannot be optimized away).
///
/// Used by the calibration example to measure real per-task latency of the
/// kernels in this crate.
pub fn run_task_once(kind: WorkloadKind, iteration: u64) -> u8 {
    match kind {
        WorkloadKind::PacketEncap => {
            let tun = GreEncapsulator::new([0xfd; 16], [0xfe; 16]);
            let payload = vec![(iteration % 251) as u8; 1200];
            let pkt = build_ipv4_packet([10, 0, 0, 1], [10, 0, 0, 2], iteration as u16, &payload);
            let out = tun.encapsulate(&pkt).expect("valid packet");
            out[out.len() - 1]
        }
        WorkloadKind::CryptoForward => {
            let aes = Aes256::new(&[(iteration % 256) as u8; 32]);
            let mut data = vec![(iteration % 13) as u8; 1200 / 16 * 16];
            aes.encrypt_cbc(&[0u8; 16], &mut data).expect("aligned");
            data[data.len() - 1]
        }
        WorkloadKind::PacketSteering => {
            let mut steerer = PacketSteerer::new(4096, 8);
            let mut acc = 0u8;
            for i in 0..16u16 {
                let f = FlowKey {
                    src_ip: [10, (iteration % 256) as u8, 0, 1],
                    dst_ip: [10, 0, 0, 2],
                    src_port: 1000 + i,
                    dst_port: 80,
                    protocol: 6,
                };
                acc ^= steerer.steer(&f).expect("table has room") as u8;
            }
            acc
        }
        WorkloadKind::ErasureCoding => {
            let rs = ReedSolomon::new(6, 3).expect("valid geometry");
            let data: Vec<Vec<u8>> = (0..6)
                .map(|i| vec![(i as u64 + iteration) as u8; 4096])
                .collect();
            let parity = rs.encode(&data).expect("well-formed shards");
            parity[2][4095]
        }
        WorkloadKind::RaidProtection => {
            let raid = PqRaid::new(8).expect("valid geometry");
            let data: Vec<Vec<u8>> = (0..8)
                .map(|i| vec![(i as u64 * 7 + iteration) as u8; 4096])
                .collect();
            let (p, q) = raid.compute_pq(&data).expect("well-formed blocks");
            p[0] ^ q[4095]
        }
        WorkloadKind::RequestDispatch => {
            let mut d = Dispatcher::new();
            for t in RequestType::ALL {
                d.register(t, 8, 500);
            }
            let req = Request {
                rtype: RequestType::ALL[(iteration % 5) as usize],
                tenant: iteration as u32,
                correlation: iteration,
                body: Bytes::from(vec![1u8; 128]),
            };
            let rpc = d.dispatch(&req.encode()).expect("registered");
            rpc.frame[rpc.frame.len() - 1]
        }
    }
}

/// Measures mean wall-clock nanoseconds per task for `kind` on the host by
/// running the real kernel `iters` times.
pub fn calibrate_host_ns(kind: WorkloadKind, iters: u64) -> f64 {
    assert!(iters > 0, "calibration needs at least one iteration");
    let mut sink = 0u8;
    let start = std::time::Instant::now();
    for i in 0..iters {
        sink ^= run_task_once(kind, i);
    }
    let elapsed = start.elapsed().as_nanos() as f64 / iters as f64;
    // Keep the sink live.
    std::hint::black_box(sink);
    elapsed
}

/// Touches GF tables once so calibration excludes one-time setup.
pub fn warmup() {
    std::hint::black_box(Gf256::new().mul(7, 9));
    for kind in WorkloadKind::ALL {
        std::hint::black_box(run_task_once(kind, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_rand::rngs::SmallRng;
    use hp_rand::SeedableRng;
    use hp_sim::rng::RngFactory;

    #[test]
    fn all_tasks_run_and_produce_output() {
        for kind in WorkloadKind::ALL {
            // Determinism: same iteration, same checksum.
            assert_eq!(run_task_once(kind, 3), run_task_once(kind, 3), "{kind}");
        }
    }

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

    #[test]
    fn calibration_runs() {
        warmup();
        let ns = calibrate_host_ns(WorkloadKind::PacketSteering, 10);
        assert!(ns > 0.0);
    }
}
