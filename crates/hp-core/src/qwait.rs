//! The HyperPlane device: monitoring set + ready set behind the QWAIT
//! programming model of Algorithm 1.
//!
//! This type is the hardware's architectural state machine. The *timing*
//! of each primitive (QWAIT's 50-cycle conservative latency, the 5-cycle
//! monitoring-set lookup, §IV-C) is exposed via [`DeviceTiming`]; the
//! data-plane engines in `hp-sdp` charge these costs and perform the
//! coherence actions (GetS probes on re-arm) against the memory system.
//!
//! Because the simulation is single-threaded and event-driven, the atomic
//! instruction semantics of `QWAIT-VERIFY`/`QWAIT-RECONSIDER` (paper
//! §III-A) hold by construction: no arrival can interleave between the
//! emptiness check and the re-arm within one call.

use crate::monitoring::{InsertConflict, MonitoringSet};
use crate::ready_set::{ReadySet, ServicePolicy};
use hp_mem::types::{AddrRange, LineAddr};
use hp_queues::sim::QueueId;
use hp_sim::time::Cycles;

/// Latency parameters of the device (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceTiming {
    /// End-to-end QWAIT instruction latency seen by a core. The paper
    /// conservatively charges 50 cycles, above the sum of all component
    /// latencies including non-uniform access to the shared ready set.
    pub qwait: Cycles,
    /// Monitoring-set lookup (arm/disarm/snoop): within 5 CPU cycles.
    pub monitor_lookup: Cycles,
    /// QWAIT-VERIFY / QWAIT-RECONSIDER instruction cost at the core
    /// (atomic with memory-barrier semantics).
    pub verify: Cycles,
}

impl Default for DeviceTiming {
    fn default() -> Self {
        DeviceTiming {
            qwait: Cycles(50),
            monitor_lookup: Cycles(5),
            verify: Cycles(20),
        }
    }
}

/// Configuration of a HyperPlane device instance.
#[derive(Debug, Clone)]
pub struct HyperPlaneConfig {
    /// Monitoring-set entry capacity (Table I: 1024; over-provision by
    /// 5–10 % relative to the supported doorbell count).
    pub monitoring_entries: usize,
    /// Monitoring-set banks (§IV-A: banked alongside distributed
    /// directory banks; 1 = the unified set of Table I). Doorbell lines
    /// home to banks by line hash ([`MonitoringSet::bank_of_line`]).
    pub monitoring_banks: usize,
    /// Ready-set size in QIDs (Table I: 1024).
    pub ready_qids: usize,
    /// Service policy.
    pub policy: ServicePolicy,
    /// Latency parameters.
    pub timing: DeviceTiming,
}

impl HyperPlaneConfig {
    /// QIDs homed per monitoring shard in [`Self::scaled`]. 32k QIDs per
    /// bank keeps each bank's row array L2-resident while capping the
    /// bank count at 32 for 1M queues.
    pub const QIDS_PER_SHARD: usize = 32_768;

    /// The Table I configuration: 1024-entry monitoring and ready sets,
    /// round-robin service.
    pub fn table1() -> Self {
        HyperPlaneConfig {
            monitoring_entries: 1024,
            monitoring_banks: 1,
            ready_qids: 1024,
            policy: ServicePolicy::RoundRobin,
            timing: DeviceTiming::default(),
        }
    }

    /// A configuration sized for `queues` QIDs. At or below the paper's
    /// 1024-QID design point this is exactly [`Self::table1`] (so every
    /// committed artifact is untouched); above it, the ready set grows to
    /// `queues`, the monitoring set is over-provisioned by 12.5 % and
    /// sharded into hashed banks of [`Self::QIDS_PER_SHARD`] QIDs each.
    pub fn scaled(queues: usize) -> Self {
        if queues <= 1024 {
            return Self::table1();
        }
        let banks = queues
            .div_ceil(Self::QIDS_PER_SHARD)
            .next_power_of_two()
            .min(MonitoringSet::MAX_BANKS);
        HyperPlaneConfig {
            monitoring_entries: queues + queues / 8,
            monitoring_banks: banks,
            ready_qids: queues,
            ..Self::table1()
        }
    }
}

/// Errors surfaced by the device's control-plane primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QwaitError {
    /// The doorbell address is outside the reserved snoop range.
    OutOfRange(LineAddr),
    /// The QID exceeds the ready set's capacity.
    QidTooLarge(QueueId),
    /// The monitoring-set insertion walk conflicted; the driver should
    /// allocate a different doorbell address and retry (Algorithm 1).
    Conflict(InsertConflict),
}

impl std::fmt::Display for QwaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QwaitError::OutOfRange(l) => write!(f, "doorbell {l} outside the reserved range"),
            QwaitError::QidTooLarge(q) => write!(f, "{q} exceeds ready-set capacity"),
            QwaitError::Conflict(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for QwaitError {}

impl From<InsertConflict> for QwaitError {
    fn from(c: InsertConflict) -> Self {
        QwaitError::Conflict(c)
    }
}

/// Action the core must take after `QWAIT-VERIFY`/`QWAIT-RECONSIDER`: the
/// device re-armed the QID in the monitoring set, so the core must issue a
/// GetS probe on the doorbell line (so future producer writes are visible
/// GetM transactions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RearmAction {
    /// No coherence action needed.
    None,
    /// Issue a GetS probe on this line (`MemSystem::probe_shared`).
    ProbeShared(LineAddr),
}

/// The HyperPlane hardware device (shared across all data-plane cores).
///
/// # Examples
///
/// ```
/// use hp_core::qwait::{HyperPlaneConfig, HyperPlaneDevice};
/// use hp_mem::types::{Addr, AddrRange};
/// use hp_queues::sim::QueueId;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let range = AddrRange::new(Addr(0x1000), Addr(0x2000));
/// let mut dev = HyperPlaneDevice::new(HyperPlaneConfig::table1(), range);
/// dev.qwait_add(QueueId(0), Addr(0x1000).line())?;
///
/// // Producer write observed on the interconnect:
/// dev.snoop_getm(Addr(0x1000).line());
/// assert_eq!(dev.qwait_select(), Some(QueueId(0)));
/// assert_eq!(dev.qwait_select(), None); // would halt
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HyperPlaneDevice {
    monitoring: MonitoringSet,
    ready: ReadySet,
    snoop_range: AddrRange,
    timing: DeviceTiming,
    spurious_wakeups: u64,
}

impl HyperPlaneDevice {
    /// Creates a device snooping `doorbell_range`, with `QWAIT_init`
    /// semantics (address range + service policy).
    pub fn new(config: HyperPlaneConfig, doorbell_range: AddrRange) -> Self {
        let mut monitoring = MonitoringSet::with_shape(
            config.monitoring_entries,
            config.monitoring_banks,
            MonitoringSet::DEFAULT_WAYS,
        );
        // Pre-size the QID→doorbell map for the configured QID space so
        // the steady state never pays a spill-resize.
        monitoring.reserve_qids(config.ready_qids);
        HyperPlaneDevice {
            monitoring,
            ready: ReadySet::new(config.ready_qids, config.policy),
            snoop_range: doorbell_range,
            timing: config.timing,
            spurious_wakeups: 0,
        }
    }

    /// The device's latency parameters.
    pub fn timing(&self) -> DeviceTiming {
        self.timing
    }

    /// `QWAIT-ADD` (privileged): registers and arms a doorbell for `qid`.
    ///
    /// # Errors
    ///
    /// [`QwaitError::OutOfRange`] if the line is outside the reserved
    /// range, [`QwaitError::QidTooLarge`] for QIDs beyond the ready set,
    /// or [`QwaitError::Conflict`] on a Cuckoo insertion conflict (the
    /// driver reallocates the doorbell and retries).
    pub fn qwait_add(&mut self, qid: QueueId, line: LineAddr) -> Result<(), QwaitError> {
        if !self.snoop_range.contains_line(line) {
            return Err(QwaitError::OutOfRange(line));
        }
        if qid.0 as usize >= self.ready.len() {
            return Err(QwaitError::QidTooLarge(qid));
        }
        self.monitoring.insert(qid, line)?;
        Ok(())
    }

    /// `QWAIT-REMOVE` (privileged): disconnects a tenant's QID.
    pub fn qwait_remove(&mut self, qid: QueueId) -> Option<LineAddr> {
        self.monitoring.remove(qid)
    }

    /// Coherence snoop: called for every GetM observed on the interconnect.
    /// Lines outside the reserved range are filtered for free (the paper's
    /// argument for tractable snoop bandwidth); matching armed entries are
    /// disarmed and their QID activated in the ready set.
    ///
    /// Returns the woken QID, if any.
    pub fn snoop_getm(&mut self, line: LineAddr) -> Option<QueueId> {
        if !self.snoop_range.contains_line(line) {
            return None;
        }
        let qid = self.monitoring.snoop(line)?;
        self.ready.activate(qid);
        Some(qid)
    }

    /// The QWAIT data-plane instruction, non-blocking form: returns the
    /// next QID per the service policy, or `None` (core would halt and
    /// retry on wake-up). Latency: [`DeviceTiming::qwait`].
    pub fn qwait_select(&mut self) -> Option<QueueId> {
        self.ready.select()
    }

    /// `QWAIT-VERIFY`: atomically checks the doorbell count the core just
    /// read; on an empty queue the QID is re-armed and the caller must
    /// perform the returned coherence action. Returns `(is_ready, action)`.
    pub fn qwait_verify(&mut self, qid: QueueId, doorbell_count: u64) -> (bool, RearmAction) {
        if doorbell_count == 0 {
            self.spurious_wakeups += 1;
            (false, self.rearm(qid))
        } else {
            (true, RearmAction::None)
        }
    }

    /// `QWAIT-RECONSIDER`: after dequeuing, either re-arm (queue drained)
    /// or re-activate in the ready set (more items waiting). Returns the
    /// coherence action for the caller.
    pub fn qwait_reconsider(&mut self, qid: QueueId, doorbell_count: u64) -> RearmAction {
        if doorbell_count == 0 {
            self.rearm(qid)
        } else {
            self.ready.activate(qid);
            RearmAction::None
        }
    }

    fn rearm(&mut self, qid: QueueId) -> RearmAction {
        if self.monitoring.arm(qid) {
            match self.monitoring.line_of(qid) {
                Some(line) => RearmAction::ProbeShared(line),
                None => RearmAction::None,
            }
        } else {
            RearmAction::None
        }
    }

    /// `QWAIT-ENABLE`: re-admit a disabled queue.
    pub fn qwait_enable(&mut self, qid: QueueId) {
        self.ready.enable(qid);
    }

    /// `QWAIT-DISABLE`: inhibit a queue (rate limiting / congestion
    /// control) without losing its ready state.
    pub fn qwait_disable(&mut self, qid: QueueId) {
        self.ready.disable(qid);
    }

    /// Number of ready, unmasked QIDs (what a non-blocking QWAIT polls).
    pub fn ready_count(&self) -> usize {
        self.ready.ready_count()
    }

    /// The registered doorbell line of `qid`, if it is in the monitoring
    /// set (armed or not). Used by the resilience recovery sweep.
    pub fn line_of(&self, qid: QueueId) -> Option<LineAddr> {
        self.monitoring.line_of(qid)
    }

    /// Recovery path: forces `qid` into the ready set as if a GetM had
    /// been observed, disarming its monitoring entry if armed. Returns
    /// `true` if this produced a *new* activation (the queue was not
    /// already ready). Used when the software recovery sweep discovers a
    /// backlogged queue whose wake-up notification was lost.
    pub fn force_activate(&mut self, qid: QueueId) -> bool {
        if qid.0 as usize >= self.ready.len() {
            return false;
        }
        self.monitoring.disarm(qid);
        let before = self.ready.ready_count();
        self.ready.activate(qid);
        self.ready.ready_count() > before
    }

    /// Spurious wake-ups filtered by `QWAIT-VERIFY`.
    pub fn spurious_wakeups(&self) -> u64 {
        self.spurious_wakeups
    }

    /// Monitoring-set statistics.
    pub fn monitoring_stats(&self) -> crate::monitoring::MonitoringStats {
        self.monitoring.stats()
    }

    /// The monitoring bank a doorbell line homes to. Drivers that prefer
    /// same-bank reallocation on churn (DESIGN.md §17) use this to pick
    /// spare doorbells without cross-bank traffic.
    pub fn monitoring_bank_of(&self, line: LineAddr) -> usize {
        self.monitoring.bank_of_line(line)
    }

    /// Number of monitoring banks.
    pub fn monitoring_banks(&self) -> usize {
        self.monitoring.banks()
    }

    /// Host bytes the device reserves per QID: monitoring slots, the
    /// QID→doorbell map, and the ready set.
    pub fn reserved_bytes(&self) -> usize {
        self.monitoring.reserved_bytes() + self.ready.reserved_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_mem::types::Addr;

    fn device(qids: u32) -> HyperPlaneDevice {
        let range = AddrRange::new(Addr(0x1_0000), Addr(0x1_0000 + 1024 * 64));
        let mut dev = HyperPlaneDevice::new(HyperPlaneConfig::table1(), range);
        for q in 0..qids {
            dev.qwait_add(QueueId(q), Addr(0x1_0000 + q as u64 * 64).line())
                .unwrap();
        }
        dev
    }

    #[test]
    fn add_rejects_out_of_range_doorbell() {
        let mut dev = device(0);
        assert!(matches!(
            dev.qwait_add(QueueId(0), Addr(0x9_0000).line()),
            Err(QwaitError::OutOfRange(_))
        ));
    }

    #[test]
    fn add_rejects_oversized_qid() {
        let mut dev = device(0);
        assert!(matches!(
            dev.qwait_add(QueueId(5000), Addr(0x1_0000).line()),
            Err(QwaitError::QidTooLarge(_))
        ));
    }

    #[test]
    fn snoop_outside_range_is_filtered() {
        let mut dev = device(4);
        assert_eq!(dev.snoop_getm(Addr(0x9_0000).line()), None);
        assert_eq!(dev.ready_count(), 0);
    }

    #[test]
    fn arrival_wakes_and_selects_in_policy_order() {
        let mut dev = device(8);
        dev.snoop_getm(Addr(0x1_0000 + 5 * 64).line());
        dev.snoop_getm(Addr(0x1_0000 + 2 * 64).line());
        assert_eq!(dev.ready_count(), 2);
        assert_eq!(dev.qwait_select(), Some(QueueId(2)));
        assert_eq!(dev.qwait_select(), Some(QueueId(5)));
        assert_eq!(dev.qwait_select(), None);
    }

    #[test]
    fn further_arrivals_to_disarmed_queue_have_no_effect() {
        let mut dev = device(2);
        let line = Addr(0x1_0000).line();
        assert_eq!(dev.snoop_getm(line), Some(QueueId(0)));
        // Batch of additional arrivals before service: no duplicate wakeups.
        assert_eq!(dev.snoop_getm(line), None);
        assert_eq!(dev.snoop_getm(line), None);
        assert_eq!(dev.qwait_select(), Some(QueueId(0)));
        assert_eq!(dev.qwait_select(), None, "one activation per arm cycle");
    }

    #[test]
    fn verify_filters_spurious_wakeup_and_rearms() {
        let mut dev = device(2);
        let line = Addr(0x1_0000).line();
        dev.snoop_getm(line);
        let qid = dev.qwait_select().unwrap();
        // Spurious: doorbell reads zero (e.g. false sharing).
        let (ready, action) = dev.qwait_verify(qid, 0);
        assert!(!ready);
        assert_eq!(action, RearmAction::ProbeShared(line));
        assert_eq!(dev.spurious_wakeups(), 1);
        // Re-armed: the next GetM wakes it again.
        assert_eq!(dev.snoop_getm(line), Some(qid));
    }

    #[test]
    fn verify_passes_nonempty_queue() {
        let mut dev = device(2);
        dev.snoop_getm(Addr(0x1_0000).line());
        let qid = dev.qwait_select().unwrap();
        assert_eq!(dev.qwait_verify(qid, 3), (true, RearmAction::None));
    }

    #[test]
    fn reconsider_reactivates_backlogged_queue() {
        let mut dev = device(2);
        let line = Addr(0x1_0000).line();
        dev.snoop_getm(line);
        let qid = dev.qwait_select().unwrap();
        // Two more items remain after the dequeue:
        assert_eq!(dev.qwait_reconsider(qid, 2), RearmAction::None);
        assert_eq!(
            dev.qwait_select(),
            Some(qid),
            "backlogged queue stays in ready set"
        );
        // Drained now:
        assert_eq!(dev.qwait_reconsider(qid, 0), RearmAction::ProbeShared(line));
        assert_eq!(dev.qwait_select(), None);
    }

    #[test]
    fn disable_enable_gate_selection() {
        let mut dev = device(4);
        let line = Addr(0x1_0000 + 3 * 64).line();
        dev.snoop_getm(line);
        dev.qwait_disable(QueueId(3));
        assert_eq!(dev.qwait_select(), None);
        dev.qwait_enable(QueueId(3));
        assert_eq!(dev.qwait_select(), Some(QueueId(3)));
    }

    #[test]
    fn remove_then_snoop_is_inert() {
        let mut dev = device(2);
        let line = dev.qwait_remove(QueueId(0)).unwrap();
        assert_eq!(dev.snoop_getm(line), None);
    }

    #[test]
    fn force_activate_recovers_missed_wakeup() {
        let mut dev = device(2);
        let line = Addr(0x1_0000).line();
        // Suppose the GetM for queue 0 was lost: the entry is still armed
        // and the ready set is empty. The recovery sweep forces it in.
        assert_eq!(dev.qwait_select(), None);
        assert!(dev.force_activate(QueueId(0)));
        assert_eq!(dev.qwait_select(), Some(QueueId(0)));
        // The entry was disarmed by the forced activation, exactly as a
        // real snoop would have: further GetMs are absorbed until re-arm.
        assert_eq!(dev.snoop_getm(line), None);
        // Already-ready queues are not double-activated.
        assert!(dev.force_activate(QueueId(1)));
        assert!(!dev.force_activate(QueueId(1)));
        // Out-of-range QIDs are a no-op.
        assert!(!dev.force_activate(QueueId(50_000)));
    }

    #[test]
    fn line_of_reports_registered_doorbell() {
        let dev = device(2);
        assert_eq!(dev.line_of(QueueId(1)), Some(Addr(0x1_0000 + 64).line()));
        assert_eq!(dev.line_of(QueueId(7)), None);
    }

    #[test]
    fn scaled_config_degenerates_to_table1_at_paper_sizes() {
        for q in [1, 64, 1000, 1024] {
            let c = HyperPlaneConfig::scaled(q);
            assert_eq!(c.monitoring_entries, 1024);
            assert_eq!(c.monitoring_banks, 1);
            assert_eq!(c.ready_qids, 1024);
        }
    }

    #[test]
    fn scaled_config_derives_shards_above_the_ceiling() {
        let c = HyperPlaneConfig::scaled(65_536);
        assert_eq!(c.ready_qids, 65_536);
        assert_eq!(c.monitoring_entries, 65_536 + 65_536 / 8);
        assert_eq!(c.monitoring_banks, 2);

        let c = HyperPlaneConfig::scaled(1_048_576);
        assert_eq!(c.monitoring_banks, 32);
        assert_eq!(c.ready_qids, 1_048_576);

        // Just above the ceiling still gets one bank.
        let c = HyperPlaneConfig::scaled(2000);
        assert_eq!(c.monitoring_banks, 1);
    }

    #[test]
    fn scaled_device_registers_a_million_doorbells() {
        let n = 1 << 20;
        let range = AddrRange::new(Addr(0x100_0000), Addr(0x100_0000 + n as u64 * 64));
        let mut dev = HyperPlaneDevice::new(HyperPlaneConfig::scaled(n), range);
        assert_eq!(dev.monitoring_banks(), 32);
        for q in (0..n as u32).step_by(4096) {
            dev.qwait_add(QueueId(q), Addr(0x100_0000 + q as u64 * 64).line())
                .unwrap();
        }
        dev.snoop_getm(Addr(0x100_0000 + (n as u64 - 4096) * 64).line());
        assert_eq!(dev.ready_count(), 1);
        assert_eq!(dev.qwait_select(), Some(QueueId(n as u32 - 4096)));
        assert_eq!(dev.monitoring_stats().spill_resizes, 0);
    }

    #[test]
    fn default_timing_matches_paper() {
        let t = DeviceTiming::default();
        assert_eq!(t.qwait, Cycles(50));
        assert_eq!(t.monitor_lookup, Cycles(5));
    }
}
