//! RAID-6 style P+Q parity protection.
//!
//! The paper's "RAID protection" task computes "RAID with P+Q redundancy
//! ... to calculate parity bytes of input data blocks" (§V-A). This module
//! implements the standard RAID-6 syndromes over GF(2^8):
//!
//! * `P = Σ D_i` (XOR parity), and
//! * `Q = Σ g^i · D_i` with generator `g = 2`,
//!
//! plus recovery of any one or two lost data blocks (the textbook RAID-6
//! reconstruction cases).

use crate::gf256::Gf256;

/// Errors from the P+Q engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaidError {
    /// Block counts out of the supported range (`2..=255` data blocks).
    BadGeometry(usize),
    /// Blocks have inconsistent lengths.
    BlockLengthMismatch,
    /// More than two data blocks lost.
    TooManyFailures(usize),
    /// The same block index was given twice.
    DuplicateFailure(usize),
    /// A failed index is out of range.
    BadIndex(usize),
}

impl std::fmt::Display for RaidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaidError::BadGeometry(n) => write!(f, "unsupported data block count {n}"),
            RaidError::BlockLengthMismatch => write!(f, "blocks have inconsistent lengths"),
            RaidError::TooManyFailures(n) => write!(f, "cannot recover {n} failures with P+Q"),
            RaidError::DuplicateFailure(i) => write!(f, "block {i} listed as failed twice"),
            RaidError::BadIndex(i) => write!(f, "failed block index {i} out of range"),
        }
    }
}

impl std::error::Error for RaidError {}

/// P+Q parity engine over `n` data blocks.
///
/// # Examples
///
/// ```
/// use hp_workloads::raid::PqRaid;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let raid = PqRaid::new(4)?;
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![(i * 3) as u8; 32]).collect();
/// let (p, q) = raid.compute_pq(&data)?;
///
/// // Lose blocks 1 and 3; rebuild both from P and Q.
/// let (b1, b3) = raid.recover_two(&data, 1, 3, &p, &q)?;
/// assert_eq!(b1, data[1]);
/// assert_eq!(b3, data[3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PqRaid {
    n: usize,
    gf: Gf256,
}

impl PqRaid {
    /// Creates an engine for `n` data blocks.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::BadGeometry`] unless `2 <= n <= 255`.
    pub fn new(n: usize) -> Result<Self, RaidError> {
        if !(2..=255).contains(&n) {
            return Err(RaidError::BadGeometry(n));
        }
        Ok(PqRaid {
            n,
            gf: Gf256::new(),
        })
    }

    fn check<S: AsRef<[u8]>>(&self, data: &[S]) -> Result<usize, RaidError> {
        if data.len() != self.n {
            return Err(RaidError::BadGeometry(data.len()));
        }
        let len = data[0].as_ref().len();
        if data.iter().any(|d| d.as_ref().len() != len) {
            return Err(RaidError::BlockLengthMismatch);
        }
        Ok(len)
    }

    /// Computes the P (XOR) and Q (weighted) parity blocks.
    ///
    /// # Errors
    ///
    /// Returns geometry/length errors for malformed input.
    pub fn compute_pq<S: AsRef<[u8]>>(&self, data: &[S]) -> Result<(Vec<u8>, Vec<u8>), RaidError> {
        let len = self.check(data)?;
        let mut p = vec![0u8; len];
        let mut q = vec![0u8; len];
        for (i, block) in data.iter().enumerate() {
            let block = block.as_ref();
            for (pb, &d) in p.iter_mut().zip(block) {
                *pb ^= d;
            }
            self.gf.mul_acc(&mut q, block, self.gf.gen_pow(i as u32));
        }
        Ok((p, q))
    }

    /// Recovers a single lost data block `lost` using P parity only.
    ///
    /// `data` carries the surviving blocks; the entry at `lost` is ignored.
    ///
    /// # Errors
    ///
    /// Returns index/geometry errors for malformed input.
    pub fn recover_one<S: AsRef<[u8]>>(
        &self,
        data: &[S],
        lost: usize,
        p: &[u8],
    ) -> Result<Vec<u8>, RaidError> {
        let len = self.check(data)?;
        if lost >= self.n {
            return Err(RaidError::BadIndex(lost));
        }
        if p.len() != len {
            return Err(RaidError::BlockLengthMismatch);
        }
        let mut out = p.to_vec();
        for (i, block) in data.iter().enumerate() {
            if i != lost {
                for (o, &d) in out.iter_mut().zip(block.as_ref()) {
                    *o ^= d;
                }
            }
        }
        Ok(out)
    }

    /// Recovers two lost data blocks `a < b` using both P and Q.
    ///
    /// Standard RAID-6 double-rebuild: with partial syndromes P' and Q'
    /// over the survivors,
    /// `D_a = (g^{-a}(Q+Q') + g^{b-a}(P+P')) / (g^{b-a} + 1)` and
    /// `D_b = (P + P') + D_a`.
    ///
    /// # Errors
    ///
    /// Returns index/geometry errors for malformed input.
    pub fn recover_two<S: AsRef<[u8]>>(
        &self,
        data: &[S],
        a: usize,
        b: usize,
        p: &[u8],
        q: &[u8],
    ) -> Result<(Vec<u8>, Vec<u8>), RaidError> {
        let len = self.check(data)?;
        if a >= self.n {
            return Err(RaidError::BadIndex(a));
        }
        if b >= self.n {
            return Err(RaidError::BadIndex(b));
        }
        if a == b {
            return Err(RaidError::DuplicateFailure(a));
        }
        if p.len() != len || q.len() != len {
            return Err(RaidError::BlockLengthMismatch);
        }
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        let gf = &self.gf;

        // Partial syndromes over survivors.
        let mut pp = p.to_vec();
        let mut qq = q.to_vec();
        for (i, block) in data.iter().enumerate() {
            if i != a && i != b {
                let block = block.as_ref();
                for (o, &d) in pp.iter_mut().zip(block) {
                    *o ^= d;
                }
                gf.mul_acc(&mut qq, block, gf.gen_pow(i as u32));
            }
        }
        // Now: pp = D_a + D_b, qq = g^a D_a + g^b D_b.
        let g_ba = gf.gen_pow((b - a) as u32);
        let denom = gf.add(g_ba, 1);
        let coef_q = gf.div(gf.inv(gf.gen_pow(a as u32)), denom);
        let coef_p = gf.div(g_ba, denom);
        let mut da = vec![0u8; len];
        gf.mul_acc(&mut da, &qq, coef_q);
        gf.mul_acc(&mut da, &pp, coef_p);
        let mut db = pp;
        for (o, &d) in db.iter_mut().zip(&da) {
            *o ^= d;
        }
        Ok((da, db))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                (0..len)
                    .map(|j| ((i * 251 + j * 13 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn p_is_xor_of_blocks() {
        let raid = PqRaid::new(3).unwrap();
        let data = blocks(3, 16);
        let (p, _) = raid.compute_pq(&data).unwrap();
        for j in 0..16 {
            assert_eq!(p[j], data[0][j] ^ data[1][j] ^ data[2][j]);
        }
    }

    #[test]
    fn recover_one_any_position() {
        let raid = PqRaid::new(6).unwrap();
        let data = blocks(6, 64);
        let (p, _) = raid.compute_pq(&data).unwrap();
        for lost in 0..6 {
            let rec = raid.recover_one(&data, lost, &p).unwrap();
            assert_eq!(rec, data[lost], "lost block {lost}");
        }
    }

    #[test]
    fn recover_two_all_pairs() {
        let raid = PqRaid::new(5).unwrap();
        let data = blocks(5, 48);
        let (p, q) = raid.compute_pq(&data).unwrap();
        for a in 0..5 {
            for b in (a + 1)..5 {
                let (da, db) = raid.recover_two(&data, a, b, &p, &q).unwrap();
                assert_eq!(da, data[a], "pair ({a},{b})");
                assert_eq!(db, data[b], "pair ({a},{b})");
            }
        }
    }

    #[test]
    fn recover_two_accepts_swapped_indices() {
        let raid = PqRaid::new(4).unwrap();
        let data = blocks(4, 8);
        let (p, q) = raid.compute_pq(&data).unwrap();
        let (da, db) = raid.recover_two(&data, 3, 1, &p, &q).unwrap();
        assert_eq!(da, data[1]);
        assert_eq!(db, data[3]);
    }

    #[test]
    fn errors_on_bad_input() {
        let raid = PqRaid::new(4).unwrap();
        let data = blocks(4, 8);
        let (p, q) = raid.compute_pq(&data).unwrap();
        assert_eq!(
            raid.recover_two(&data, 2, 2, &p, &q),
            Err(RaidError::DuplicateFailure(2))
        );
        assert_eq!(
            raid.recover_two(&data, 0, 9, &p, &q),
            Err(RaidError::BadIndex(9))
        );
        assert!(matches!(PqRaid::new(1), Err(RaidError::BadGeometry(1))));
        let ragged = vec![vec![0u8; 4], vec![0u8; 5], vec![0u8; 4], vec![0u8; 4]];
        assert_eq!(
            raid.compute_pq(&ragged),
            Err(RaidError::BlockLengthMismatch)
        );
    }

    #[test]
    fn q_differs_from_p() {
        // Q must weight blocks differently or double failures are ambiguous.
        let raid = PqRaid::new(2).unwrap();
        let data = vec![vec![0xFFu8; 4], vec![0x00u8; 4]];
        let (p, q) = raid.compute_pq(&data).unwrap();
        let data2 = vec![vec![0x00u8; 4], vec![0xFFu8; 4]];
        let (p2, q2) = raid.compute_pq(&data2).unwrap();
        assert_eq!(p, p2, "XOR parity is order-insensitive");
        assert_ne!(q, q2, "Q syndrome must distinguish block positions");
    }
}
