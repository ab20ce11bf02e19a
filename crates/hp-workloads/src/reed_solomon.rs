//! Reed–Solomon erasure coding with a Cauchy generator matrix.
//!
//! The paper's "Erasure coding" task "encode\[s\] data blocks/fragments using
//! a Cauchy matrix" (§V-A). This module implements systematic Reed–Solomon
//! over GF(2^8): `k` data shards are multiplied by a `(k+m) × k` encoding
//! matrix whose parity rows come from a Cauchy matrix, yielding `m` parity
//! shards; any `k` of the `k+m` shards reconstruct the originals.

use crate::gf256::Gf256;

/// Errors from the erasure coder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Shard counts out of the supported range (`k >= 1`, `m >= 1`,
    /// `k + m <= 255`).
    BadGeometry {
        /// Requested data shards.
        k: usize,
        /// Requested parity shards.
        m: usize,
    },
    /// Shards passed to encode/decode have inconsistent lengths.
    ShardLengthMismatch,
    /// More shards were lost than parity can recover.
    TooManyErasures {
        /// Number of surviving shards supplied.
        available: usize,
        /// Shards needed (`k`).
        needed: usize,
    },
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::BadGeometry { k, m } => {
                write!(
                    f,
                    "unsupported geometry k={k} m={m} (need k,m >= 1 and k+m <= 255)"
                )
            }
            RsError::ShardLengthMismatch => write!(f, "shards have inconsistent lengths"),
            RsError::TooManyErasures { available, needed } => {
                write!(f, "only {available} shards available but {needed} needed")
            }
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic Reed–Solomon coder for `k` data and `m` parity shards.
///
/// # Examples
///
/// ```
/// use hp_workloads::reed_solomon::ReedSolomon;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rs = ReedSolomon::new(4, 2)?;
/// let data: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 64]).collect();
/// let parity = rs.encode(&data)?;
///
/// // Lose two data shards; recover from the rest.
/// let mut shards: Vec<Option<Vec<u8>>> =
///     data.iter().cloned().map(Some).chain(parity.into_iter().map(Some)).collect();
/// shards[0] = None;
/// shards[3] = None;
/// let recovered = rs.reconstruct(&shards)?;
/// assert_eq!(recovered[0], vec![0u8; 64]);
/// assert_eq!(recovered[3], vec![3u8; 64]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    gf: Gf256,
    /// Parity rows of the encoding matrix: `m × k`, Cauchy-derived.
    parity_rows: Vec<Vec<u8>>,
}

impl ReedSolomon {
    /// Creates a coder for `k` data and `m` parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::BadGeometry`] unless `k >= 1`, `m >= 1`, and
    /// `k + m <= 255`.
    pub fn new(k: usize, m: usize) -> Result<Self, RsError> {
        if k == 0 || m == 0 || k + m > 255 {
            return Err(RsError::BadGeometry { k, m });
        }
        let gf = Gf256::new();
        // Cauchy matrix C[i][j] = 1 / (x_i + y_j) with x_i = i + k, y_j = j.
        // All x_i and y_j distinct, so every square submatrix is invertible —
        // the property that makes any k surviving shards sufficient.
        let parity_rows = (0..m)
            .map(|i| {
                (0..k)
                    .map(|j| gf.inv(((i + k) as u8) ^ (j as u8)))
                    .collect()
            })
            .collect();
        Ok(ReedSolomon {
            k,
            m,
            gf,
            parity_rows,
        })
    }

    fn check_lengths<'a>(&self, shards: impl Iterator<Item = &'a [u8]>) -> Result<usize, RsError> {
        let mut len = None;
        for s in shards {
            match len {
                None => len = Some(s.len()),
                Some(l) if l != s.len() => return Err(RsError::ShardLengthMismatch),
                _ => {}
            }
        }
        Ok(len.unwrap_or(0))
    }

    /// Encodes `k` data shards into `m` parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::BadGeometry`] if `data.len() != k`, or
    /// [`RsError::ShardLengthMismatch`] if shard lengths differ.
    pub fn encode<S: AsRef<[u8]>>(&self, data: &[S]) -> Result<Vec<Vec<u8>>, RsError> {
        if data.len() != self.k {
            return Err(RsError::BadGeometry {
                k: data.len(),
                m: self.m,
            });
        }
        let len = self.check_lengths(data.iter().map(|s| s.as_ref()))?;
        let mut parity = vec![vec![0u8; len]; self.m];
        for (row, out) in self.parity_rows.iter().zip(parity.iter_mut()) {
            for (j, shard) in data.iter().enumerate() {
                self.gf.mul_acc(out, shard.as_ref(), row[j]);
            }
        }
        Ok(parity)
    }

    /// Reconstructs all `k` data shards from any `k` surviving shards.
    ///
    /// `shards` must have length `k + m`, with `None` marking erasures
    /// (data shards first, then parity shards).
    ///
    /// # Errors
    ///
    /// Returns [`RsError::TooManyErasures`] if fewer than `k` shards
    /// survive, [`RsError::BadGeometry`]/[`RsError::ShardLengthMismatch`]
    /// on malformed input.
    pub fn reconstruct(&self, shards: &[Option<Vec<u8>>]) -> Result<Vec<Vec<u8>>, RsError> {
        if shards.len() != self.k + self.m {
            return Err(RsError::BadGeometry {
                k: self.k,
                m: self.m,
            });
        }
        let available: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_some().then_some(i))
            .collect();
        if available.len() < self.k {
            return Err(RsError::TooManyErasures {
                available: available.len(),
                needed: self.k,
            });
        }
        self.check_lengths(shards.iter().flatten().map(|s| s.as_slice()))?;
        let len = shards.iter().flatten().next().map_or(0, |s| s.len());

        // Build the k x k matrix of encoding rows for the first k available
        // shards, invert it, and multiply by the surviving shard data.
        let chosen = &available[..self.k];
        let mut mat: Vec<Vec<u8>> = chosen
            .iter()
            .map(|&idx| {
                if idx < self.k {
                    // Identity row for a surviving data shard.
                    (0..self.k).map(|j| u8::from(j == idx)).collect()
                } else {
                    self.parity_rows[idx - self.k].clone()
                }
            })
            .collect();
        let inv = invert(&self.gf, &mut mat).expect("Cauchy submatrix must be invertible");

        let mut out = vec![vec![0u8; len]; self.k];
        for (i, row) in inv.iter().enumerate() {
            for (j, &idx) in chosen.iter().enumerate() {
                let shard = shards[idx].as_ref().expect("chosen shards survive");
                self.gf.mul_acc(&mut out[i], shard, row[j]);
            }
        }
        Ok(out)
    }

    /// Verifies that `parity` matches `data` (re-encodes and compares).
    ///
    /// # Errors
    ///
    /// Propagates encoding errors for malformed input.
    pub fn verify<S: AsRef<[u8]>>(&self, data: &[S], parity: &[S]) -> Result<bool, RsError> {
        let expect = self.encode(data)?;
        if parity.len() != expect.len() {
            return Ok(false);
        }
        Ok(parity
            .iter()
            .zip(&expect)
            .all(|(a, b)| a.as_ref() == b.as_slice()))
    }
}

/// Gauss–Jordan inversion over GF(2^8). Consumes `mat` (k x k) and returns
/// its inverse, or `None` if singular.
fn invert(gf: &Gf256, mat: &mut [Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let n = mat.len();
    let mut inv: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..n).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..n {
        // Find pivot.
        let pivot = (col..n).find(|&r| mat[r][col] != 0)?;
        mat.swap(col, pivot);
        inv.swap(col, pivot);
        // Normalize pivot row.
        let p = mat[col][col];
        let pinv = gf.inv(p);
        for j in 0..n {
            mat[col][j] = gf.mul(mat[col][j], pinv);
            inv[col][j] = gf.mul(inv[col][j], pinv);
        }
        // Eliminate other rows.
        for r in 0..n {
            if r != col && mat[r][col] != 0 {
                let factor = mat[r][col];
                for j in 0..n {
                    let m = gf.mul(factor, mat[col][j]);
                    mat[r][j] ^= m;
                    let i = gf.mul(factor, inv[col][j]);
                    inv[r][j] ^= i;
                }
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(k: usize, len: usize, seed: u8) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| ((i * 131 + j * 7) as u8) ^ seed).collect())
            .collect()
    }

    #[test]
    fn encode_decode_roundtrip_all_single_erasures() {
        let rs = ReedSolomon::new(6, 3).unwrap();
        let data = shards(6, 128, 0x5A);
        let parity = rs.encode(&data).unwrap();
        for lost in 0..9 {
            let mut s: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(parity.iter().cloned().map(Some))
                .collect();
            s[lost] = None;
            let rec = rs.reconstruct(&s).unwrap();
            assert_eq!(rec, data, "erasure at {lost}");
        }
    }

    #[test]
    fn recovers_m_simultaneous_erasures() {
        let rs = ReedSolomon::new(4, 3).unwrap();
        let data = shards(4, 64, 0x11);
        let parity = rs.encode(&data).unwrap();
        let mut s: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        s[0] = None;
        s[2] = None;
        s[5] = None; // one data + one data + one parity... indexes 0,2 data; 5 parity
        let rec = rs.reconstruct(&s).unwrap();
        assert_eq!(rec, data);
    }

    #[test]
    fn too_many_erasures_detected() {
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = shards(4, 32, 0);
        let parity = rs.encode(&data).unwrap();
        let mut s: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        s[0] = None;
        s[1] = None;
        s[2] = None;
        match rs.reconstruct(&s) {
            Err(RsError::TooManyErasures { available, needed }) => {
                assert_eq!((available, needed), (3, 4));
            }
            other => panic!("expected TooManyErasures, got {other:?}"),
        }
    }

    #[test]
    fn verify_detects_corruption() {
        let rs = ReedSolomon::new(3, 2).unwrap();
        let data = shards(3, 64, 0x33);
        let mut parity = rs.encode(&data).unwrap();
        assert!(rs.verify(&data, &parity).unwrap());
        parity[1][10] ^= 0xFF;
        assert!(!rs.verify(&data, &parity).unwrap());
    }

    #[test]
    fn geometry_validation() {
        assert!(matches!(
            ReedSolomon::new(0, 2),
            Err(RsError::BadGeometry { .. })
        ));
        assert!(matches!(
            ReedSolomon::new(2, 0),
            Err(RsError::BadGeometry { .. })
        ));
        assert!(matches!(
            ReedSolomon::new(200, 56),
            Err(RsError::BadGeometry { .. })
        ));
        assert!(ReedSolomon::new(200, 55).is_ok());
    }

    #[test]
    fn mismatched_shard_lengths_rejected() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let data = vec![vec![0u8; 10], vec![0u8; 11]];
        assert_eq!(rs.encode(&data), Err(RsError::ShardLengthMismatch));
    }

    #[test]
    fn empty_shards_are_fine() {
        let rs = ReedSolomon::new(2, 1).unwrap();
        let data = vec![vec![], vec![]];
        let parity = rs.encode(&data).unwrap();
        assert_eq!(parity, vec![Vec::<u8>::new()]);
    }
}
