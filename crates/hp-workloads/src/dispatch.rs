//! Microservice request dispatching.
//!
//! The paper's "Request dispatching" task "identifies request types and
//! prepares the remote procedure calls to be dispatched" (§V-A) — the
//! front-end tier of an online data-intensive application. This module
//! implements a compact binary request format, a type classifier, and an
//! RPC descriptor builder with per-type routing tables.

use hp_bytes::{BufMut, Bytes, BytesMut};

/// Magic bytes opening every request frame.
pub const REQUEST_MAGIC: u16 = 0x4D53; // "MS"

/// The microservice classes the dispatcher routes between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestType {
    /// Key-value point read.
    Get,
    /// Key-value write.
    Set,
    /// Full-text search fan-out.
    Search,
    /// ML inference call.
    Predict,
    /// Ads/recommendation auction.
    Rank,
}

impl RequestType {
    /// All request types, in wire-code order.
    pub const ALL: [RequestType; 5] = [
        RequestType::Get,
        RequestType::Set,
        RequestType::Search,
        RequestType::Predict,
        RequestType::Rank,
    ];

    fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    fn code(self) -> u8 {
        Self::ALL.iter().position(|&t| t == self).expect("in ALL") as u8
    }
}

/// Errors from request parsing/dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchError {
    /// Frame shorter than the fixed header.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes available.
        have: usize,
    },
    /// Frame did not start with [`REQUEST_MAGIC`].
    BadMagic(u16),
    /// Unknown request-type code.
    UnknownType(u8),
    /// Declared body length exceeds the frame.
    BadLength {
        /// Declared body bytes.
        declared: usize,
        /// Actual remaining bytes.
        actual: usize,
    },
    /// No backend registered for the request type.
    NoBackend(RequestType),
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Truncated { needed, have } => {
                write!(f, "request truncated: need {needed}, have {have}")
            }
            DispatchError::BadMagic(m) => write!(f, "bad request magic {m:#06x}"),
            DispatchError::UnknownType(c) => write!(f, "unknown request type code {c}"),
            DispatchError::BadLength { declared, actual } => {
                write!(f, "declared body {declared} bytes but {actual} present")
            }
            DispatchError::NoBackend(t) => write!(f, "no backend registered for {t:?}"),
        }
    }
}

impl std::error::Error for DispatchError {}

/// A parsed inbound request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Classified type.
    pub rtype: RequestType,
    /// Tenant issuing the request.
    pub tenant: u32,
    /// Caller-chosen correlation id.
    pub correlation: u64,
    /// Opaque body.
    pub body: Bytes,
}

impl Request {
    /// Fixed header size: magic(2) + type(1) + pad(1) + tenant(4) +
    /// correlation(8) + body_len(4).
    pub const HEADER_LEN: usize = 20;

    /// Serializes the request frame.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(Self::HEADER_LEN + self.body.len());
        out.put_u16(REQUEST_MAGIC);
        out.put_u8(self.rtype.code());
        out.put_u8(0);
        out.put_u32(self.tenant);
        out.put_u64(self.correlation);
        out.put_u32(self.body.len() as u32);
        out.put_slice(&self.body);
        out.freeze()
    }

    /// Parses and validates a request frame.
    ///
    /// # Errors
    ///
    /// Any [`DispatchError`] parse variant.
    pub fn parse(buf: &[u8]) -> Result<Self, DispatchError> {
        if buf.len() < Self::HEADER_LEN {
            return Err(DispatchError::Truncated {
                needed: Self::HEADER_LEN,
                have: buf.len(),
            });
        }
        let magic = u16::from_be_bytes([buf[0], buf[1]]);
        if magic != REQUEST_MAGIC {
            return Err(DispatchError::BadMagic(magic));
        }
        let rtype = RequestType::from_code(buf[2]).ok_or(DispatchError::UnknownType(buf[2]))?;
        let tenant = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
        let correlation = u64::from_be_bytes(buf[8..16].try_into().expect("8 bytes"));
        let body_len = u32::from_be_bytes([buf[16], buf[17], buf[18], buf[19]]) as usize;
        let actual = buf.len() - Self::HEADER_LEN;
        if body_len > actual {
            return Err(DispatchError::BadLength {
                declared: body_len,
                actual,
            });
        }
        Ok(Request {
            rtype,
            tenant,
            correlation,
            body: Bytes::copy_from_slice(&buf[Self::HEADER_LEN..Self::HEADER_LEN + body_len]),
        })
    }
}

/// An outbound RPC, ready to be written to a backend connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcCall {
    /// Backend server index chosen for this call.
    pub backend: u16,
    /// The request type being forwarded.
    pub rtype: RequestType,
    /// Deadline in microseconds granted to the backend tier.
    pub deadline_us: u32,
    /// Serialized RPC frame.
    pub frame: Bytes,
}

/// The dispatcher: classifies requests and prepares backend RPCs.
///
/// # Examples
///
/// ```
/// use hp_workloads::dispatch::{Dispatcher, Request, RequestType};
/// use hp_bytes::Bytes;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut d = Dispatcher::new();
/// d.register(RequestType::Get, 4, 500);
/// let req = Request {
///     rtype: RequestType::Get,
///     tenant: 7,
///     correlation: 42,
///     body: Bytes::from_static(b"user:1234"),
/// };
/// let rpc = d.dispatch(&req.encode())?;
/// assert_eq!(rpc.rtype, RequestType::Get);
/// assert!(rpc.backend < 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Dispatcher {
    /// Per-type (backend_count, deadline_us); index by type code.
    routes: [(u16, u32); 5],
    /// Per-type memoized frame prefix: the leading bytes of every RPC
    /// frame for the type (magic, type code, hop count) are invariant
    /// once registered, so dispatch copies them instead of re-serializing
    /// field by field.
    prefix: [[u8; 4]; 5],
    /// Round-robin cursors per type.
    cursors: [u16; 5],
    dispatched: u64,
}

impl Dispatcher {
    /// Creates a dispatcher with no backends registered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `backends` servers for `rtype` with a per-call deadline.
    pub fn register(&mut self, rtype: RequestType, backends: u16, deadline_us: u32) {
        let idx = rtype.code() as usize;
        self.routes[idx] = (backends, deadline_us);
        let magic = REQUEST_MAGIC.to_be_bytes();
        self.prefix[idx] = [magic[0], magic[1], rtype.code(), 1];
    }

    /// Parses an inbound frame, classifies it, and builds the RPC to the
    /// chosen backend (round-robin within the type's backend pool).
    ///
    /// # Errors
    ///
    /// Parse errors, or [`DispatchError::NoBackend`] for unregistered
    /// types.
    pub fn dispatch(&mut self, frame: &[u8]) -> Result<RpcCall, DispatchError> {
        let req = Request::parse(frame)?;
        let idx = req.rtype.code() as usize;
        let (backends, deadline_us) = self.routes[idx];
        if backends == 0 {
            return Err(DispatchError::NoBackend(req.rtype));
        }
        let backend = self.cursors[idx] % backends;
        self.cursors[idx] = self.cursors[idx].wrapping_add(1);
        // RPC frame: original header fields re-serialized with the hop
        // metadata the backend tier needs. The type-invariant prefix is
        // copied from the template prepared at registration.
        let mut out = BytesMut::with_capacity(Request::HEADER_LEN + req.body.len() + 8);
        out.put_slice(&self.prefix[idx]);
        out.put_u32(req.tenant);
        out.put_u64(req.correlation);
        out.put_u32(deadline_us);
        out.put_u32(req.body.len() as u32);
        out.put_slice(&req.body);
        self.dispatched += 1;
        Ok(RpcCall {
            backend,
            rtype: req.rtype,
            deadline_us,
            frame: out.freeze(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(rtype: RequestType, corr: u64) -> Request {
        Request {
            rtype,
            tenant: 3,
            correlation: corr,
            body: Bytes::from_static(b"abcdef"),
        }
    }

    #[test]
    fn encode_parse_roundtrip() {
        for rtype in RequestType::ALL {
            let r = req(rtype, 77);
            let parsed = Request::parse(&r.encode()).unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn parse_rejects_bad_magic() {
        let mut buf = req(RequestType::Get, 1).encode().to_vec();
        buf[0] = 0xFF;
        assert_eq!(Request::parse(&buf), Err(DispatchError::BadMagic(0xFF53)));
    }

    #[test]
    fn parse_rejects_unknown_type() {
        let mut buf = req(RequestType::Get, 1).encode().to_vec();
        buf[2] = 200;
        assert_eq!(Request::parse(&buf), Err(DispatchError::UnknownType(200)));
    }

    #[test]
    fn parse_rejects_bad_length() {
        let mut buf = req(RequestType::Set, 1).encode().to_vec();
        buf[19] = 200; // declare a 200-byte body
        assert!(matches!(
            Request::parse(&buf),
            Err(DispatchError::BadLength { .. })
        ));
    }

    #[test]
    fn dispatch_round_robins_within_type() {
        let mut d = Dispatcher::new();
        d.register(RequestType::Search, 3, 1000);
        let backends: Vec<u16> = (0..6)
            .map(|i| {
                d.dispatch(&req(RequestType::Search, i).encode())
                    .unwrap()
                    .backend
            })
            .collect();
        assert_eq!(backends, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn unregistered_type_is_error() {
        let mut d = Dispatcher::new();
        d.register(RequestType::Get, 1, 100);
        assert_eq!(
            d.dispatch(&req(RequestType::Rank, 1).encode()),
            Err(DispatchError::NoBackend(RequestType::Rank))
        );
    }

    #[test]
    fn rpc_frame_carries_deadline_and_hop() {
        let mut d = Dispatcher::new();
        d.register(RequestType::Predict, 2, 2500);
        let rpc = d.dispatch(&req(RequestType::Predict, 5).encode()).unwrap();
        assert_eq!(rpc.deadline_us, 2500);
        assert_eq!(rpc.frame[3], 1, "hop count");
        let deadline = u32::from_be_bytes(rpc.frame[16..20].try_into().unwrap());
        assert_eq!(deadline, 2500);
    }

    /// The memoized per-type prefix produces byte-identical frames to
    /// field-by-field serialization, for every type.
    #[test]
    fn prefix_template_matches_field_serialization() {
        let mut d = Dispatcher::new();
        for t in RequestType::ALL {
            d.register(t, 2, 750);
        }
        for (i, t) in RequestType::ALL.into_iter().enumerate() {
            let r = req(t, i as u64);
            let rpc = d.dispatch(&r.encode()).unwrap();
            let mut expect = BytesMut::new();
            expect.put_u16(REQUEST_MAGIC);
            expect.put_u8(t.code());
            expect.put_u8(1);
            expect.put_u32(r.tenant);
            expect.put_u64(r.correlation);
            expect.put_u32(750);
            expect.put_u32(r.body.len() as u32);
            expect.put_slice(&r.body);
            assert_eq!(&rpc.frame[..], &expect[..], "{t:?} frame diverged");
        }
    }
}
