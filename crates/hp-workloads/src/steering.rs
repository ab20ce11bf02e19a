//! Packet steering with session affinity.
//!
//! The paper's "Packet steering" task "redirects the traffic by obtaining a
//! session affinity from a hash table" (§V-A). This module implements the
//! two pieces a real steerer needs:
//!
//! * a **Toeplitz hash** over the flow 5-tuple — the same construction NIC
//!   receive-side scaling (RSS) uses, and
//! * a **session table** that pins a flow to the destination chosen on its
//!   first packet (so rebalancing never reorders an existing session),
//!   with open-addressing and bounded capacity like a fixed-size NIC/SDP
//!   flow table.

/// A flow 5-tuple key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number.
    pub protocol: u8,
}

/// The standard Microsoft RSS Toeplitz key (40 bytes).
pub const DEFAULT_RSS_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Computes the Toeplitz hash of `input` under `key`.
///
/// For every set bit in the input, XOR in the 32-bit window of the key
/// starting at that bit position.
pub fn toeplitz_hash(key: &[u8; 40], input: &[u8]) -> u32 {
    assert!(
        input.len() * 8 + 32 <= key.len() * 8,
        "input too long for 40-byte key"
    );
    let mut result: u32 = 0;
    // Current 32-bit window of the key, starting at bit 0.
    let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
    let mut next_byte = 4usize;
    let mut bits_used = 0u32;
    for &byte in input {
        for bit in (0..8).rev() {
            if (byte >> bit) & 1 == 1 {
                result ^= window;
            }
            // Slide the window one bit left, pulling in the next key bit.
            let next_bit = (key[next_byte] >> (7 - bits_used)) & 1;
            window = (window << 1) | u32::from(next_bit);
            bits_used += 1;
            if bits_used == 8 {
                bits_used = 0;
                next_byte += 1;
                if next_byte == key.len() {
                    next_byte = 0; // never reached for <= 8-byte inputs + 12-byte tuples
                }
            }
        }
    }
    result
}

impl FlowKey {
    /// Serializes the tuple in RSS input order
    /// (src ip, dst ip, src port, dst port).
    fn rss_bytes(&self) -> [u8; 12] {
        let mut b = [0u8; 12];
        b[0..4].copy_from_slice(&self.src_ip);
        b[4..8].copy_from_slice(&self.dst_ip);
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b
    }

    /// Toeplitz hash of this flow under `key`.
    pub fn hash(&self, key: &[u8; 40]) -> u32 {
        toeplitz_hash(key, &self.rss_bytes())
    }
}

/// Errors from the session table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteeringError {
    /// The table is full; the flow could not be inserted.
    TableFull,
}

impl std::fmt::Display for SteeringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteeringError::TableFull => write!(f, "session table is full"),
        }
    }
}

impl std::error::Error for SteeringError {}

#[derive(Debug, Clone, Copy)]
struct Session {
    key: FlowKey,
    dest: u16,
}

/// A fixed-capacity open-addressing session-affinity table.
///
/// New flows are assigned `hash % destinations`; a flow then keeps that
/// destination for as long as its session lives — the affinity property
/// load balancers need.
///
/// # Examples
///
/// ```
/// use hp_workloads::steering::{FlowKey, PacketSteerer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut s = PacketSteerer::new(1024, 4);
/// let flow = FlowKey {
///     src_ip: [10, 0, 0, 1], dst_ip: [10, 0, 0, 2],
///     src_port: 1234, dst_port: 80, protocol: 6,
/// };
/// let first = s.steer(&flow)?;
/// assert_eq!(s.steer(&flow)?, first, "existing session keeps its destination");
/// assert_eq!(s.sessions(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PacketSteerer {
    slots: Vec<Option<Session>>,
    destinations: u16,
    key: [u8; 40],
    occupied: usize,
    lookups: u64,
    inserts: u64,
}

impl PacketSteerer {
    /// Creates a steerer with a table of `capacity` sessions steering to
    /// `destinations` targets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `destinations` is zero.
    pub fn new(capacity: usize, destinations: u16) -> Self {
        assert!(capacity > 0, "session table needs capacity");
        assert!(destinations > 0, "need at least one destination");
        PacketSteerer {
            slots: vec![None; capacity.next_power_of_two()],
            destinations,
            key: DEFAULT_RSS_KEY,
            occupied: 0,
            lookups: 0,
            inserts: 0,
        }
    }

    /// Steers one packet: returns the destination for its flow, creating a
    /// session on first sight.
    ///
    /// # Errors
    ///
    /// Returns [`SteeringError::TableFull`] when a new flow arrives and no
    /// slot is free.
    pub fn steer(&mut self, flow: &FlowKey) -> Result<u16, SteeringError> {
        self.lookups += 1;
        let h = flow.hash(&self.key);
        let mask = self.slots.len() - 1;
        let mut idx = h as usize & mask;
        for _ in 0..self.slots.len() {
            match &self.slots[idx] {
                Some(s) if s.key == *flow => return Ok(s.dest),
                Some(_) => idx = (idx + 1) & mask,
                None => {
                    let dest = (h % u32::from(self.destinations)) as u16;
                    self.slots[idx] = Some(Session { key: *flow, dest });
                    self.occupied += 1;
                    self.inserts += 1;
                    return Ok(dest);
                }
            }
        }
        Err(SteeringError::TableFull)
    }

    /// Removes a session (e.g. on TCP FIN); returns its destination if it
    /// existed.
    ///
    /// Uses backward-shift deletion so later probes still find their slots.
    pub fn remove(&mut self, flow: &FlowKey) -> Option<u16> {
        let mask = self.slots.len() - 1;
        let mut idx = flow.hash(&self.key) as usize & mask;
        for _ in 0..self.slots.len() {
            match &self.slots[idx] {
                Some(s) if s.key == *flow => {
                    let dest = s.dest;
                    // Backward-shift: close the probe chain.
                    let mut hole = idx;
                    let mut probe = (idx + 1) & mask;
                    while let Some(s) = &self.slots[probe] {
                        let home = s.key.hash(&self.key) as usize & mask;
                        let in_chain = if hole <= probe {
                            home <= hole || home > probe
                        } else {
                            home <= hole && home > probe
                        };
                        if in_chain {
                            self.slots[hole] = self.slots[probe].take();
                            hole = probe;
                        }
                        probe = (probe + 1) & mask;
                    }
                    self.slots[hole] = None;
                    self.occupied -= 1;
                    return Some(dest);
                }
                Some(_) => idx = (idx + 1) & mask,
                None => return None,
            }
        }
        None
    }

    /// Number of live sessions.
    pub fn sessions(&self) -> usize {
        self.occupied
    }

    /// `(lookups, inserts)` lifetime counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.lookups, self.inserts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(sp: u16) -> FlowKey {
        FlowKey {
            src_ip: [66, 9, 149, 187],
            dst_ip: [161, 142, 100, 80],
            src_port: sp,
            dst_port: 1766,
            protocol: 6,
        }
    }

    #[test]
    fn toeplitz_matches_msft_verification_suite() {
        // Microsoft RSS verification vectors (IPv4 with ports).
        // 66.9.149.187:2794 -> 161.142.100.80:1766 => 0x51ccc178
        let k = FlowKey {
            src_ip: [66, 9, 149, 187],
            dst_ip: [161, 142, 100, 80],
            src_port: 2794,
            dst_port: 1766,
            protocol: 6,
        };
        assert_eq!(k.hash(&DEFAULT_RSS_KEY), 0x51cc_c178);
        // 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea
        let k = FlowKey {
            src_ip: [199, 92, 111, 2],
            dst_ip: [65, 69, 140, 83],
            src_port: 14230,
            dst_port: 4739,
            protocol: 6,
        };
        assert_eq!(k.hash(&DEFAULT_RSS_KEY), 0xc626_b0ea);
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut s = PacketSteerer::new(16384, 8);
        let mut counts = [0u32; 8];
        for sp in 0..8000u16 {
            counts[s.steer(&flow(sp)).unwrap() as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed bucket: {counts:?}");
        }
    }

    #[test]
    fn table_full_is_reported() {
        let mut s = PacketSteerer::new(4, 2); // 4 slots
        for sp in 0..4 {
            s.steer(&flow(sp)).unwrap();
        }
        assert_eq!(s.steer(&flow(99)), Err(SteeringError::TableFull));
        assert_eq!(s.sessions(), 4);
    }

    #[test]
    fn remove_frees_slot_and_preserves_chains() {
        let mut s = PacketSteerer::new(8, 4);
        let flows: Vec<FlowKey> = (0..6).map(flow).collect();
        let dests: Vec<u16> = flows.iter().map(|f| s.steer(f).unwrap()).collect();
        // Remove every other flow, then verify the rest still resolve.
        for f in flows.iter().step_by(2) {
            assert!(s.remove(f).is_some());
        }
        for (i, f) in flows.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(
                    s.steer(f).unwrap(),
                    dests[i],
                    "flow {i} lost after deletion"
                );
            }
        }
        assert_eq!(s.remove(&flow(77)), None);
    }

    #[test]
    fn counters_track_activity() {
        let mut s = PacketSteerer::new(64, 2);
        s.steer(&flow(1)).unwrap();
        s.steer(&flow(1)).unwrap();
        s.steer(&flow(2)).unwrap();
        assert_eq!(s.counters(), (3, 2));
        assert_eq!(s.sessions(), 2);
    }
}
