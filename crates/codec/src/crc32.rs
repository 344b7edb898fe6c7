//! CRC-32 (IEEE 802.3 / zlib polynomial, reflected).
//!
//! The metadata store (`tiera-metastore`) frames every on-disk record with a
//! CRC so torn or corrupted tails are detected during crash recovery, the
//! same role BerkeleyDB's log checksums played in the paper's prototype.
//! `CompressedTier` runs it over the logical payload of every put and get.
//!
//! The kernel is slicing-by-8: eight bytes are folded per step through
//! eight 256-entry tables, where `TABLES[k][b]` is the CRC state after
//! byte `b` followed by `k` zero bytes. The tail, and any input shorter
//! than eight bytes, goes through `TABLES[0]` a byte at a time.

/// Reflected polynomial for IEEE CRC-32.
const POLY: u32 = 0xEDB8_8320;

fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let c = t[k - 1][i];
                t[k][i] = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            }
        }
        t
    })
}

/// One-shot CRC-32 of `data`.
pub fn checksum(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finalize()
}

/// Incremental CRC-32.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh CRC.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = tables();
        let mut c = self.state;
        let (words, tail) = data.as_chunks::<8>();
        for w in words {
            let v = u64::from_le_bytes(*w) ^ u64::from(c);
            let byte = |k: u32| (v >> (8 * k) & 0xFF) as usize;
            c = t[7][byte(0)]
                ^ t[6][byte(1)]
                ^ t[5][byte(2)]
                ^ t[4][byte(3)]
                ^ t[3][byte(4)]
                ^ t[2][byte(5)]
                ^ t[1][byte(6)]
                ^ t[0][byte(7)];
        }
        for &b in tail {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Returns the final checksum.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value.
        assert_eq!(checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"a"), 0xE8B7_BE43);
        assert_eq!(checksum(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        let whole = checksum(&data);
        let mut crc = Crc32::new();
        for c in data.chunks(7) {
            crc.update(c);
        }
        assert_eq!(crc.finalize(), whole);
    }

    /// The bit-at-a-time definition: no table, nothing shared with the
    /// kernel under test.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn prop_sliced_kernel_matches_bitwise_reference() {
        // Every tail length 0..16 at a few word counts, so the switch from
        // the eight-byte loop to the byte loop is hit at each offset.
        use tiera_support::prop::gen;
        let data = gen::bytes(&mut tiera_support::rng::SimRng::new(32), 4096 + 16);
        for words in [0usize, 1, 2, 511] {
            for tail in 0..16 {
                let d = &data[..words * 8 + tail];
                assert_eq!(checksum(d), reference(d), "{words} words + {tail}");
            }
        }
        tiera_support::prop_check!(cases = 64, |rng| {
            let data = gen::byte_vec(rng, 0..20_000);
            assert_eq!(checksum(&data), reference(&data));
            // Split anywhere: the incremental state carries across an
            // unaligned boundary.
            let cut = gen::usize_in(rng, 0..data.len() + 1);
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            assert_eq!(crc.finalize(), reference(&data));
        });
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0x5Au8; 256];
        let before = checksum(&data);
        data[100] ^= 0x01;
        assert_ne!(checksum(&data), before);
    }
}
