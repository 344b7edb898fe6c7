//! ChaCha20 stream cipher (RFC 8439).
//!
//! Backs Tiera's `encrypt`/`decrypt` responses (paper Table 1). A stream
//! cipher is the right shape for the middleware: encryption is an in-place
//! transform of the object payload, and decryption is the same operation,
//! so the response pair is symmetric. Keys are 32 bytes, nonces 12 bytes;
//! the Tiera control layer derives a per-object nonce from the object key
//! so repeated encrypt responses are deterministic per object.
//!
//! This implementation follows RFC 8439 §2.3–2.4 and is validated against
//! the RFC's test vectors. It is *not* authenticated encryption; the paper's
//! prototype likewise treats encryption as a storage transform, not a full
//! AEAD scheme.

/// ChaCha20 cipher instance bound to a key.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
}

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Creates a cipher from a 256-bit key.
    pub fn new(key: &[u8; 32]) -> Self {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Self { key: k }
    }

    /// Derives a key from an arbitrary passphrase by hashing it.
    pub fn from_passphrase(pass: &[u8]) -> Self {
        let digest = crate::sha256::digest(pass);
        Self::new(&digest)
    }

    fn block(&self, counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            state[13 + i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut work = state;
        for _ in 0..10 {
            // column rounds
            quarter_round(&mut work, 0, 4, 8, 12);
            quarter_round(&mut work, 1, 5, 9, 13);
            quarter_round(&mut work, 2, 6, 10, 14);
            quarter_round(&mut work, 3, 7, 11, 15);
            // diagonal rounds
            quarter_round(&mut work, 0, 5, 10, 15);
            quarter_round(&mut work, 1, 6, 11, 12);
            quarter_round(&mut work, 2, 7, 8, 13);
            quarter_round(&mut work, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let v = work[i].wrapping_add(state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// XORs the keystream into `data` in place. Applying twice with the same
    /// key/nonce restores the original (encrypt == decrypt).
    ///
    /// The block counter starts at 1, matching RFC 8439's encryption usage.
    pub fn apply(&self, nonce: &[u8; 12], data: &mut [u8]) {
        let mut counter = 1u32;
        for chunk in data.chunks_mut(64) {
            let ks = self.block(counter, nonce);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// Convenience: derives a 12-byte nonce from a label (object key).
    pub fn nonce_for(label: &[u8]) -> [u8; 12] {
        let d = crate::sha256::digest(label);
        let mut n = [0u8; 12];
        n.copy_from_slice(&d[..12]);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let c = ChaCha20::new(&key);
        let block = c.block(1, &nonce);
        assert_eq!(hex::encode(&block[..16]), "10f1e7e4d13b5915500fdd1fa32071c4");
        // Serialized keystream tail from RFC 8439 §2.3.2 (little-endian words).
        assert_eq!(hex::encode(&block[48..]), "b5129cd1de164eb9cbd083e8a2503c4e");
    }

    /// RFC 8439 §2.4.2 full encryption test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        ChaCha20::new(&key).apply(&nonce, &mut data);
        assert_eq!(
            hex::encode(&data[..32]),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        );
        assert_eq!(hex::encode(&data[data.len() - 7..]), "edf2785e42874d");
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let c = ChaCha20::from_passphrase(b"tiera-secret");
        let nonce = ChaCha20::nonce_for(b"object-42");
        let original: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let mut data = original.clone();
        c.apply(&nonce, &mut data);
        assert_ne!(data, original, "ciphertext must differ");
        c.apply(&nonce, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_nonces_give_different_ciphertexts() {
        let c = ChaCha20::from_passphrase(b"k");
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        c.apply(&ChaCha20::nonce_for(b"a"), &mut a);
        c.apply(&ChaCha20::nonce_for(b"b"), &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_payload_is_noop() {
        let c = ChaCha20::from_passphrase(b"k");
        let mut data: Vec<u8> = vec![];
        c.apply(&[0u8; 12], &mut data);
        assert!(data.is_empty());
    }
}
