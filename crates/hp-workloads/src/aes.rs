//! AES-256 in CBC mode, implemented from scratch (FIPS 197 / SP 800-38A).
//!
//! The paper's "Crypto forwarding" task encrypts network packets with
//! AES-CBC-256 (§V-A). This is a straightforward, table-free software
//! implementation: S-box substitution, ShiftRows, MixColumns over GF(2^8)
//! with the AES polynomial 0x11B, and the 14-round AES-256 key schedule.
//! It is validated against the FIPS-197 and SP 800-38A known-answer
//! vectors.
//!
//! It is deliberately *not* constant-time or SIMD-accelerated: its role is
//! to be a real, representative compute kernel for the data-plane service
//! model, not a production cipher.

/// AES block size in bytes.
pub const BLOCK: usize = 16;
/// AES-256 key size in bytes.
pub const KEY_BYTES: usize = 32;
const ROUNDS: usize = 14;

/// Errors from CBC encryption/decryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AesError {
    /// Input length is not a whole number of 16-byte blocks.
    NotBlockAligned(usize),
}

impl std::fmt::Display for AesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AesError::NotBlockAligned(n) => {
                write!(f, "input length {n} is not a multiple of the 16-byte block")
            }
        }
    }
}

impl std::error::Error for AesError {}

const SBOX: [u8; 256] = build_sbox();
const INV_SBOX: [u8; 256] = build_inv_sbox();

/// GF(2^8) multiply with the AES polynomial 0x11B (const-evaluable).
const fn xtime_mul(mut a: u8, mut b: u8) -> u8 {
    let mut r = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            r ^= a;
        }
        let hi = a & 0x80 != 0;
        a <<= 1;
        if hi {
            a ^= 0x1B;
        }
        b >>= 1;
    }
    r
}

const fn gf_inv(a: u8) -> u8 {
    // a^254 in GF(2^8) by square-and-multiply (exponent 254 = 0b11111110).
    if a == 0 {
        return 0;
    }
    let mut result = 1u8;
    let mut base = a;
    let mut e = 254u8;
    while e != 0 {
        if e & 1 != 0 {
            result = xtime_mul(result, base);
        }
        base = xtime_mul(base, base);
        e >>= 1;
    }
    result
}

const fn build_sbox() -> [u8; 256] {
    let mut s = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let x = gf_inv(i as u8);
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let b =
            x ^ x.rotate_left(1) ^ x.rotate_left(2) ^ x.rotate_left(3) ^ x.rotate_left(4) ^ 0x63;
        s[i] = b;
        i += 1;
    }
    s
}

const fn build_inv_sbox() -> [u8; 256] {
    let s = build_sbox();
    let mut inv = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        inv[s[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

/// An expanded AES-256 key (15 round keys).
#[derive(Debug, Clone)]
pub struct Aes256 {
    round_keys: [[u8; 16]; ROUNDS + 1],
}

impl Aes256 {
    /// Expands a 32-byte key.
    pub fn new(key: &[u8; KEY_BYTES]) -> Self {
        // Key schedule over 60 words.
        let nk = 8;
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        let mut rcon: u8 = 1;
        for i in nk..4 * (ROUNDS + 1) {
            let mut t = w[i - 1];
            if i % nk == 0 {
                t.rotate_left(1);
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
                t[0] ^= rcon;
                rcon = xtime_mul(rcon, 2);
            } else if i % nk == 4 {
                for b in &mut t {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ t[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes256 { round_keys }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for (s, k) in state.iter_mut().zip(rk) {
            *s ^= k;
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    /// State layout: column-major — state[r + 4c] is row r, column c.
    fn shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
            for c in 0..4 {
                state[r + 4 * c] = row[(c + r) % 4];
            }
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [state[r], state[r + 4], state[r + 8], state[r + 12]];
            for c in 0..4 {
                state[r + 4 * c] = row[(c + 4 - r) % 4];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            for r in 0..4 {
                state[4 * c + r] = xtime_mul(col[r], 2)
                    ^ xtime_mul(col[(r + 1) % 4], 3)
                    ^ col[(r + 2) % 4]
                    ^ col[(r + 3) % 4];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            for r in 0..4 {
                state[4 * c + r] = xtime_mul(col[r], 14)
                    ^ xtime_mul(col[(r + 1) % 4], 11)
                    ^ xtime_mul(col[(r + 2) % 4], 13)
                    ^ xtime_mul(col[(r + 3) % 4], 9);
            }
        }
    }

    /// Encrypts one 16-byte block in place.
    fn encrypt_block(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[0]);
        for r in 1..ROUNDS {
            Self::sub_bytes(block);
            Self::shift_rows(block);
            Self::mix_columns(block);
            Self::add_round_key(block, &self.round_keys[r]);
        }
        Self::sub_bytes(block);
        Self::shift_rows(block);
        Self::add_round_key(block, &self.round_keys[ROUNDS]);
    }

    /// Decrypts one 16-byte block in place.
    fn decrypt_block(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[ROUNDS]);
        for r in (1..ROUNDS).rev() {
            Self::inv_shift_rows(block);
            Self::inv_sub_bytes(block);
            Self::add_round_key(block, &self.round_keys[r]);
            Self::inv_mix_columns(block);
        }
        Self::inv_shift_rows(block);
        Self::inv_sub_bytes(block);
        Self::add_round_key(block, &self.round_keys[0]);
    }

    /// Encrypts `data` in place in CBC mode with the given IV.
    ///
    /// # Errors
    ///
    /// Returns [`AesError::NotBlockAligned`] if `data.len() % 16 != 0`
    /// (the data-plane packets are padded upstream).
    pub fn encrypt_cbc(&self, iv: &[u8; 16], data: &mut [u8]) -> Result<(), AesError> {
        if !data.len().is_multiple_of(BLOCK) {
            return Err(AesError::NotBlockAligned(data.len()));
        }
        let mut prev = *iv;
        for chunk in data.chunks_exact_mut(BLOCK) {
            let mut block = [0u8; 16];
            block.copy_from_slice(chunk);
            for (b, p) in block.iter_mut().zip(&prev) {
                *b ^= p;
            }
            self.encrypt_block(&mut block);
            chunk.copy_from_slice(&block);
            prev = block;
        }
        Ok(())
    }

    /// Decrypts `data` in place in CBC mode with the given IV.
    ///
    /// # Errors
    ///
    /// Returns [`AesError::NotBlockAligned`] if `data.len() % 16 != 0`.
    pub fn decrypt_cbc(&self, iv: &[u8; 16], data: &mut [u8]) -> Result<(), AesError> {
        if !data.len().is_multiple_of(BLOCK) {
            return Err(AesError::NotBlockAligned(data.len()));
        }
        let mut prev = *iv;
        for chunk in data.chunks_exact_mut(BLOCK) {
            let mut block = [0u8; 16];
            block.copy_from_slice(chunk);
            let cipher = block;
            self.decrypt_block(&mut block);
            for (b, p) in block.iter_mut().zip(&prev) {
                *b ^= p;
            }
            chunk.copy_from_slice(&block);
            prev = cipher;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_spot_values() {
        // FIPS 197 Figure 7.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn fips197_aes256_known_answer() {
        // FIPS 197 Appendix C.3.
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        let aes = Aes256::new(&key);
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn sp800_38a_cbc_known_answer() {
        // NIST SP 800-38A F.2.5 (CBC-AES256.Encrypt).
        let key: [u8; 32] = hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4")
            .try_into()
            .unwrap();
        let iv: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut data = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        let aes = Aes256::new(&key);
        aes.encrypt_cbc(&iv, &mut data).unwrap();
        assert_eq!(
            data,
            hex(concat!(
                "f58c4c04d6e5f1ba779eabfb5f7bfbd6",
                "9cfc4e967edb808d679f777bc6702c7d",
                "39f23369a9d9bacfa530e26304231461",
                "b2eb05e2c39be9fcda6c19078c6a9d1b"
            ))
        );
        aes.decrypt_cbc(&iv, &mut data).unwrap();
        assert_eq!(&data[..16], &hex("6bc1bee22e409f96e93d7e117393172a")[..]);
    }

    #[test]
    fn cbc_roundtrip_random_lengths() {
        let key = [7u8; 32];
        let iv = [9u8; 16];
        let aes = Aes256::new(&key);
        for blocks in [1usize, 2, 5, 64] {
            let original: Vec<u8> = (0..blocks * 16).map(|i| (i * 31 % 256) as u8).collect();
            let mut data = original.clone();
            aes.encrypt_cbc(&iv, &mut data).unwrap();
            assert_ne!(data, original);
            aes.decrypt_cbc(&iv, &mut data).unwrap();
            assert_eq!(data, original);
        }
    }

    #[test]
    fn cbc_rejects_ragged_input() {
        let aes = Aes256::new(&[0u8; 32]);
        let mut data = vec![0u8; 17];
        assert_eq!(
            aes.encrypt_cbc(&[0u8; 16], &mut data),
            Err(AesError::NotBlockAligned(17))
        );
        assert_eq!(
            aes.decrypt_cbc(&[0u8; 16], &mut data),
            Err(AesError::NotBlockAligned(17))
        );
    }

    #[test]
    fn cbc_chaining_differs_from_ecb() {
        let aes = Aes256::new(&[1u8; 32]);
        // Two identical plaintext blocks must produce different ciphertext
        // blocks under CBC.
        let mut data = vec![0xABu8; 32];
        aes.encrypt_cbc(&[0u8; 16], &mut data).unwrap();
        assert_ne!(&data[..16], &data[16..]);
    }
}
