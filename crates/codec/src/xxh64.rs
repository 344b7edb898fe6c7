//! XXH64 (seed 0): the 64-bit content checksum.
//!
//! The cluster coordinator records this checksum with every acknowledged
//! write and compares each replica read against it, so a replica that
//! went stale or diverged is never served; the chaos harness's
//! `WriteLedger` checks acknowledged values the same way. Both ask one
//! question — *are these the bytes that were acknowledged?* — of data
//! the system wrote itself, not of input an adversary chose, so the
//! checksum needs to catch accidents (a stale copy, a torn or flipped
//! byte), not forgeries, and is not cryptographic. `storeOnce` identity
//! stays on [`sha256`](crate::sha256).
//!
//! The definition is Yann Collet's XXH64 with seed 0:
//!
//! * 32-byte stripes feed four independent lanes, one little-endian
//!   `u64` word each, through a multiply-rotate-multiply round;
//! * the lanes are folded into one word (inputs shorter than one stripe
//!   start from a constant instead), and the input length is added;
//! * the tail is absorbed as 8-byte words, then one 4-byte word, then
//!   single bytes;
//! * a final xor-shift-multiply mix spreads every input bit over the
//!   result.
//!
//! Every round is a bijection of its lane for a fixed input word and
//! injective in the word, so a change confined to one word always
//! reaches the folded state; the single-bit-flip property test in this
//! module checks that it survives the fold exhaustively up to 256 bytes.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane absorbing one word.
#[inline]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// Folds a finished lane into the accumulator.
#[inline]
fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// The final mix.
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// XXH64 of `data` with seed 0.
pub fn checksum(data: &[u8]) -> u64 {
    let (stripes, tail) = data.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        P5
    } else {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            let (words, _) = stripe.as_chunks::<8>();
            for (lane, word) in lanes.iter_mut().zip(words) {
                *lane = round(*lane, u64::from_le_bytes(*word));
            }
        }
        let [a, b, c, d] = lanes;
        let folded = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.into_iter().fold(folded, merge)
    };
    h = h.wrapping_add(data.len() as u64);
    let (words, mut tail) = tail.as_chunks::<8>();
    for word in words {
        h = (h ^ round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = rest;
    }
    for &byte in tail {
        h = (h ^ u64::from(byte).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
    }
    avalanche(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_support::prop::gen;
    use tiera_support::rng::SimRng;

    /// The definition consumed a byte at a time: bytes gather into a word,
    /// a full word goes to lane `index % 4` while whole stripes remain, and
    /// the tail is replayed through the 8-, 4- and 1-byte steps. Shares
    /// only the constants with the kernel under test.
    fn reference(data: &[u8]) -> u64 {
        let striped = data.len() / 32 * 32;
        let mut lanes = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        let mut word = 0u64;
        for (i, &b) in data[..striped].iter().enumerate() {
            word |= u64::from(b) << (8 * (i % 8));
            if i % 8 == 7 {
                let lane = &mut lanes[i / 8 % 4];
                *lane = lane.wrapping_add(word.wrapping_mul(P2));
                *lane = lane.rotate_left(31).wrapping_mul(P1);
                word = 0;
            }
        }
        let mut h = if striped == 0 {
            P5
        } else {
            let mut h = lanes[0].rotate_left(1);
            h = h.wrapping_add(lanes[1].rotate_left(7));
            h = h.wrapping_add(lanes[2].rotate_left(12));
            h = h.wrapping_add(lanes[3].rotate_left(18));
            for lane in lanes {
                let k = lane.wrapping_mul(P2).rotate_left(31).wrapping_mul(P1);
                h = (h ^ k).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        };
        h = h.wrapping_add(data.len() as u64);
        let mut at = striped;
        let gather = |from: usize, n: usize| {
            let mut w = 0u64;
            for k in 0..n {
                w |= u64::from(data[from + k]) << (8 * k);
            }
            w
        };
        while data.len() - at >= 8 {
            let k = gather(at, 8).wrapping_mul(P2).rotate_left(31).wrapping_mul(P1);
            h = (h ^ k).rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            at += 8;
        }
        if data.len() - at >= 4 {
            h = (h ^ gather(at, 4).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            at += 4;
        }
        while at < data.len() {
            h = (h ^ u64::from(data[at]).wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
            at += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }

    /// `n` bytes of a fixed pattern: 0, 1, 2, … mod 251.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn known_answers() {
        // XXH64 with seed 0, as other implementations compute it (these
        // agree with LLVM's `xxHash64`). The lengths take each path through
        // the kernel: no input, tail only, one stripe exactly, one stripe
        // and a byte, and 32 stripes.
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        for (n, want) in [
            (0, 0xEF46_DB37_51D8_E999u64),
            (1, 0xE934_A84A_DB05_2768),
            (31, 0xC346_D2B5_9B4D_8EE1),
            (32, 0xCBF5_9C51_16FF_32B4),
            (33, 0x0C53_5D1A_CAFB_8EAD),
            (1024, 0x138E_26C6_5048_CE29),
        ] {
            assert_eq!(checksum(&pattern(n)), want, "{n} bytes");
        }
    }

    #[test]
    fn prop_kernel_matches_the_byte_at_a_time_reference() {
        // Every length up to three stripes and a tail, then random ones.
        let data = gen::bytes(&mut SimRng::new(64), 4096);
        for n in 0..=100 {
            assert_eq!(checksum(&data[..n]), reference(&data[..n]), "{n} bytes");
        }
        tiera_support::prop_check!(cases = 128, |rng| {
            let data = gen::byte_vec(rng, 0..4096);
            assert_eq!(checksum(&data), reference(&data), "{} bytes", data.len());
        });
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let mut data = gen::bytes(&mut SimRng::new(65), 256);
        for n in 0..=256 {
            let before = checksum(&data[..n]);
            for bit in 0..n * 8 {
                data[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&data[..n]), before, "{n} bytes, bit {bit}");
                data[bit / 8] ^= 1 << (bit % 8);
            }
        }
        tiera_support::prop_check!(cases = 256, |rng| {
            let mut data = gen::byte_vec(rng, 257..4097);
            let before = checksum(&data);
            let bit = gen::usize_in(rng, 0..data.len() * 8);
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&data), before, "{} bytes, bit {bit}", data.len());
        });
    }

    #[test]
    fn prop_appending_a_zero_byte_changes_the_checksum() {
        for n in 0..=256 {
            let mut data = vec![0u8; n];
            let before = checksum(&data);
            data.push(0);
            assert_ne!(checksum(&data), before, "{n} zero bytes");
        }
        tiera_support::prop_check!(cases = 256, |rng| {
            let mut data = gen::byte_vec(rng, 0..4096);
            let before = checksum(&data);
            data.push(0);
            assert_ne!(checksum(&data), before, "{} bytes", data.len() - 1);
        });
    }

    #[test]
    fn prop_never_panics() {
        // Any length and any alignment of the slice start.
        tiera_support::prop_check!(cases = 128, |rng| {
            let data = gen::byte_vec(rng, 0..4200);
            let from = gen::usize_in(rng, 0..data.len() + 1);
            std::hint::black_box(checksum(&data[from..]));
        });
    }
}
