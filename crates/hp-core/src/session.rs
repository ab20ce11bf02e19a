//! `QwaitSession` — a pure-software reference implementation of the QWAIT
//! programming model over real [`Doorbell`]s.
//!
//! On machines without the HyperPlane hardware, Algorithm 1 can still be
//! *written* the same way: this session emulates the monitoring set by
//! scanning only the **armed** doorbells (not every queue — the armed set
//! shrinks to the queues that were empty at their last service), and runs
//! the real [`ReadySet`] arbitration in software. It is the bridge between
//! the simulated device and the runnable pipelines in the examples: the
//! consumer code is line-for-line Algorithm 1.
//!
//! Relative to the hardware this loses the two big wins the paper
//! measures — arming still costs a scan (no coherence snooping) and the
//! arbitration is the Fig. 13 "software ready set" — but it preserves the
//! *semantics*: policy-ordered grants, VERIFY/RECONSIDER re-arm rules, and
//! enable/disable masking.

use crate::ready_set::{ReadySet, ServicePolicy};
use hp_queues::doorbell::Doorbell;
use hp_queues::sim::QueueId;
use std::sync::Arc;

/// Errors from session control-plane calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The QID exceeds the session's capacity.
    QidTooLarge(QueueId),
    /// The QID already has a doorbell registered.
    AlreadyRegistered(QueueId),
    /// The QID has no doorbell registered.
    NotRegistered(QueueId),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::QidTooLarge(q) => write!(f, "{q} exceeds session capacity"),
            SessionError::AlreadyRegistered(q) => write!(f, "{q} already registered"),
            SessionError::NotRegistered(q) => write!(f, "{q} not registered"),
        }
    }
}

impl std::error::Error for SessionError {}

/// A software QWAIT session (single consumer thread).
///
/// # Examples
///
/// ```
/// use hp_core::ready_set::ServicePolicy;
/// use hp_core::session::QwaitSession;
/// use hp_queues::doorbell::Doorbell;
/// use hp_queues::sim::QueueId;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut session = QwaitSession::new(4, ServicePolicy::RoundRobin);
/// let db = Arc::new(Doorbell::new());
/// session.add(QueueId(2), Arc::clone(&db))?;
///
/// assert_eq!(session.try_wait(), None); // nothing ready: would halt
/// db.ring(1);                           // producer
/// assert_eq!(session.try_wait(), Some(QueueId(2)));
/// // ... dequeue one item, then:
/// db.try_take(1);
/// session.reconsider(QueueId(2))?;      // empty again -> re-armed
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QwaitSession {
    ready: ReadySet,
    doorbells: Vec<Option<Arc<Doorbell>>>,
    /// Armed = watched for arrivals (the software monitoring set).
    armed: Vec<bool>,
    spurious: u64,
}

impl QwaitSession {
    /// Creates a session arbitrating up to `n` QIDs under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or a WRR weight vector does not cover `n`.
    pub fn new(n: usize, policy: ServicePolicy) -> Self {
        QwaitSession {
            ready: ReadySet::new(n, policy),
            doorbells: vec![None; n],
            armed: vec![false; n],
            spurious: 0,
        }
    }

    /// `QWAIT-ADD`: registers and arms a doorbell for `qid`.
    ///
    /// # Errors
    ///
    /// [`SessionError::QidTooLarge`] or [`SessionError::AlreadyRegistered`].
    pub fn add(&mut self, qid: QueueId, doorbell: Arc<Doorbell>) -> Result<(), SessionError> {
        let i = qid.0 as usize;
        if i >= self.doorbells.len() {
            return Err(SessionError::QidTooLarge(qid));
        }
        if self.doorbells[i].is_some() {
            return Err(SessionError::AlreadyRegistered(qid));
        }
        self.doorbells[i] = Some(doorbell);
        self.armed[i] = true;
        Ok(())
    }

    /// `QWAIT-REMOVE`: disconnects `qid`.
    ///
    /// # Errors
    ///
    /// [`SessionError::NotRegistered`] if absent.
    pub fn remove(&mut self, qid: QueueId) -> Result<Arc<Doorbell>, SessionError> {
        let i = qid.0 as usize;
        let db = self.doorbells.get_mut(i).and_then(Option::take);
        match db {
            Some(db) => {
                self.armed[i] = false;
                Ok(db)
            }
            None => Err(SessionError::NotRegistered(qid)),
        }
    }

    /// Scans armed doorbells; non-empty ones are disarmed and activated in
    /// the ready set (the software stand-in for coherence snooping).
    fn scan_armed(&mut self) {
        for i in 0..self.doorbells.len() {
            if self.armed[i] {
                if let Some(db) = &self.doorbells[i] {
                    if !db.is_empty() {
                        self.armed[i] = false;
                        self.ready.activate(QueueId(i as u32));
                    }
                }
            }
        }
    }

    /// Non-blocking QWAIT: returns the next ready QID per the policy, or
    /// `None` (the §III-A variant a background-task loop polls).
    ///
    /// A returned QID has already passed `QWAIT-VERIFY` (empty grants are
    /// filtered and re-armed internally, matching Algorithm 1's yellow
    /// block).
    pub fn try_wait(&mut self) -> Option<QueueId> {
        loop {
            self.scan_armed();
            let qid = self.ready.select()?;
            let i = qid.0 as usize;
            let db = self.doorbells[i].as_ref();
            match db {
                Some(db) if !db.is_empty() => return Some(qid),
                _ => {
                    // Spurious (e.g. another consumer raced the counter, or
                    // the queue was removed): re-arm and pick again.
                    self.spurious += 1;
                    if self.doorbells[i].is_some() {
                        self.armed[i] = true;
                    }
                }
            }
        }
    }

    /// Blocking QWAIT: spins (with `yield_now`) until a queue is ready.
    /// A real implementation would halt; a software one can only yield.
    pub fn wait(&mut self) -> QueueId {
        loop {
            if let Some(q) = self.try_wait() {
                return q;
            }
            std::thread::yield_now();
        }
    }

    /// `QWAIT-RECONSIDER`: after dequeuing from `qid`, either re-arm it
    /// (drained) or re-activate it (still backlogged).
    ///
    /// # Errors
    ///
    /// [`SessionError::NotRegistered`] if the QID has no doorbell.
    pub fn reconsider(&mut self, qid: QueueId) -> Result<(), SessionError> {
        let i = qid.0 as usize;
        let db = self
            .doorbells
            .get(i)
            .and_then(Option::as_ref)
            .ok_or(SessionError::NotRegistered(qid))?;
        if db.is_empty() {
            self.armed[i] = true;
        } else {
            self.ready.activate(qid);
        }
        Ok(())
    }

    /// `QWAIT-ENABLE`.
    pub fn enable(&mut self, qid: QueueId) {
        self.ready.enable(qid);
    }

    /// `QWAIT-DISABLE` (rate limiting / congestion control).
    pub fn disable(&mut self, qid: QueueId) {
        self.ready.disable(qid);
    }

    /// Spurious grants filtered so far.
    pub fn spurious(&self) -> u64 {
        self.spurious
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_queues::ring::MpmcRing;
    use std::thread;

    #[test]
    fn policy_ordered_grants() {
        let mut s = QwaitSession::new(8, ServicePolicy::RoundRobin);
        let dbs: Vec<Arc<Doorbell>> = (0..8).map(|_| Arc::new(Doorbell::new())).collect();
        for (i, db) in dbs.iter().enumerate() {
            s.add(QueueId(i as u32), Arc::clone(db)).unwrap();
        }
        dbs[5].ring(1);
        dbs[2].ring(1);
        assert_eq!(s.try_wait(), Some(QueueId(2)));
        assert_eq!(s.try_wait(), Some(QueueId(5)));
        assert_eq!(s.try_wait(), None);
    }

    #[test]
    fn reconsider_rearms_or_reactivates() {
        let mut s = QwaitSession::new(2, ServicePolicy::RoundRobin);
        let db = Arc::new(Doorbell::new());
        s.add(QueueId(0), Arc::clone(&db)).unwrap();
        db.ring(2);
        assert_eq!(s.try_wait(), Some(QueueId(0)));
        assert!(db.try_take(1));
        s.reconsider(QueueId(0)).unwrap(); // one left: re-activated
        assert_eq!(s.try_wait(), Some(QueueId(0)));
        assert!(db.try_take(1));
        s.reconsider(QueueId(0)).unwrap(); // drained: re-armed
        assert_eq!(s.try_wait(), None);
        db.ring(1); // arrival wakes it again
        assert_eq!(s.try_wait(), Some(QueueId(0)));
    }

    #[test]
    fn disable_enable_mask() {
        let mut s = QwaitSession::new(2, ServicePolicy::RoundRobin);
        let db = Arc::new(Doorbell::new());
        s.add(QueueId(1), Arc::clone(&db)).unwrap();
        db.ring(1);
        s.disable(QueueId(1));
        assert_eq!(s.try_wait(), None);
        s.enable(QueueId(1));
        assert_eq!(s.try_wait(), Some(QueueId(1)));
    }

    #[test]
    fn control_plane_errors() {
        let mut s = QwaitSession::new(2, ServicePolicy::RoundRobin);
        let db = Arc::new(Doorbell::new());
        assert_eq!(
            s.add(QueueId(9), Arc::clone(&db)),
            Err(SessionError::QidTooLarge(QueueId(9)))
        );
        s.add(QueueId(0), Arc::clone(&db)).unwrap();
        assert_eq!(
            s.add(QueueId(0), Arc::clone(&db)),
            Err(SessionError::AlreadyRegistered(QueueId(0)))
        );
        assert!(s.remove(QueueId(0)).is_ok());
        assert!(matches!(
            s.remove(QueueId(0)),
            Err(SessionError::NotRegistered(_))
        ));
        assert!(matches!(
            s.reconsider(QueueId(0)),
            Err(SessionError::NotRegistered(_))
        ));
    }

    #[test]
    fn end_to_end_with_real_rings_and_producers() {
        // Three producers, each with its own ring + doorbell; one consumer
        // running Algorithm 1 through the session. Every item must be
        // consumed exactly once.
        const PER_PRODUCER: u64 = 3_000;
        let rings: Vec<_> = (0..3)
            .map(|_| MpmcRing::<u64>::with_capacity(256))
            .collect();
        let dbs: Vec<Arc<Doorbell>> = (0..3).map(|_| Arc::new(Doorbell::new())).collect();

        let mut session = QwaitSession::new(3, ServicePolicy::RoundRobin);
        let consumers: Vec<_> = rings.iter().map(|(_, rx)| rx.clone()).collect();
        for (i, db) in dbs.iter().enumerate() {
            session.add(QueueId(i as u32), Arc::clone(db)).unwrap();
        }

        let producers: Vec<_> = rings
            .iter()
            .enumerate()
            .map(|(p, (tx, _))| {
                let tx = tx.clone();
                let db = Arc::clone(&dbs[p]);
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = p as u64 * PER_PRODUCER + i;
                        loop {
                            match tx.push(v) {
                                Ok(()) => break,
                                Err(hp_queues::ring::Full(back)) => {
                                    v = back;
                                    thread::yield_now();
                                }
                            }
                        }
                        db.ring(1);
                    }
                })
            })
            .collect();

        let consumer = thread::spawn(move || {
            let mut got = vec![0u64; 3];
            let mut total = 0u64;
            while total < 3 * PER_PRODUCER {
                let qid = session.wait();
                let i = qid.0 as usize;
                if dbs[i].try_take(1) {
                    let v = loop {
                        match consumers[i].pop() {
                            Some(v) => break v,
                            None => thread::yield_now(),
                        }
                    };
                    assert_eq!(v / PER_PRODUCER, i as u64, "item from wrong queue");
                    got[i] += 1;
                    total += 1;
                }
                session.reconsider(qid).unwrap();
            }
            got
        });

        for p in producers {
            p.join().unwrap();
        }
        let got = consumer.join().unwrap();
        assert_eq!(got, vec![PER_PRODUCER; 3]);
    }
}
