//! Property tests for tiera-codec via the `prop_check!` harness:
//! known-answer vectors for the digests, round-trips on random byte
//! strings for the reversible codecs. Every random input derives from
//! `SimRng`, so failures replay bit-identically from the printed seed.

use tiera_codec::packed::{self, UnpackError, Unpacked};
use tiera_codec::{crc32, hex, lzss, sha256};
use tiera_support::prop::gen;
use tiera_support::prop_check;

// ---- known-answer vectors ----

/// CRC-32 (IEEE 802.3) check values from the canonical test corpus.
#[test]
fn crc32_known_answer_vectors() {
    for (input, want) in [
        (&b""[..], 0x0000_0000u32),
        (b"a", 0xE8B7_BE43),
        (b"abc", 0x3524_41C2),
        // The classic CRC "check" input.
        (b"123456789", 0xCBF4_3926),
        (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
    ] {
        assert_eq!(crc32::checksum(input), want, "crc32({:?})", String::from_utf8_lossy(input));
    }
}

/// SHA-256 vectors from FIPS 180-2 appendix B and RFC 6234.
#[test]
fn sha256_known_answer_vectors() {
    for (input, want_hex) in [
        (&b""[..], "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
    ] {
        assert_eq!(hex::encode(&sha256::digest(input)), want_hex);
    }
}

/// The FIPS 180-2 appendix B.3 long-message vector: one million 'a's.
#[test]
fn sha256_million_a_vector() {
    let data = vec![b'a'; 1_000_000];
    assert_eq!(
        hex::encode(&sha256::digest(&data)),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    );
}

// ---- properties ----

/// Incremental hashing over arbitrary chunk boundaries matches the
/// one-shot digest.
#[test]
fn prop_sha256_incremental_matches_oneshot() {
    prop_check!(cases = 64, |rng| {
        let data = gen::byte_vec(rng, 0..4096);
        let mut hasher = sha256::Sha256::new();
        let mut pos = 0;
        while pos < data.len() {
            let take = gen::usize_in(rng, 1..257).min(data.len() - pos);
            hasher.update(&data[pos..pos + take]);
            pos += take;
        }
        assert_eq!(hasher.finalize(), sha256::digest(&data));
    });
}

/// Incremental CRC over arbitrary chunk boundaries matches the one-shot
/// checksum.
#[test]
fn prop_crc32_incremental_matches_oneshot() {
    prop_check!(cases = 64, |rng| {
        let data = gen::byte_vec(rng, 0..4096);
        let mut crc = crc32::Crc32::new();
        let mut pos = 0;
        while pos < data.len() {
            let take = gen::usize_in(rng, 1..129).min(data.len() - pos);
            crc.update(&data[pos..pos + take]);
            pos += take;
        }
        assert_eq!(crc.finalize(), crc32::checksum(&data));
    });
}

/// LZSS round-trips arbitrary (largely incompressible) byte strings.
#[test]
fn prop_lzss_roundtrip_random() {
    prop_check!(cases = 64, |rng| {
        let data = gen::byte_vec(rng, 0..8192);
        let compressed = lzss::compress(&data);
        assert_eq!(lzss::decompress(&compressed).unwrap(), data);
        // Incompressible input stays within the documented worst case.
        assert!(compressed.len() <= 4 + data.len() + data.len() / 8 + 1);
    });
}

/// LZSS round-trips highly redundant data and actually compresses it.
#[test]
fn prop_lzss_roundtrip_redundant_shrinks() {
    prop_check!(cases = 32, |rng| {
        let alphabet = gen::byte_vec(rng, 1..5);
        let n = gen::usize_in(rng, 1024..16384);
        let data: Vec<u8> = (0..n).map(|i| alphabet[i % alphabet.len()]).collect();
        let compressed = lzss::compress(&data);
        assert_eq!(lzss::decompress(&compressed).unwrap(), data);
        assert!(
            compressed.len() < data.len() / 2,
            "cyclic data must compress: {} -> {}",
            data.len(),
            compressed.len()
        );
    });
}

/// Hex encode/decode round-trips arbitrary bytes, and decode rejects
/// non-hex garbage.
#[test]
fn prop_hex_roundtrip() {
    prop_check!(cases = 128, |rng| {
        let data = gen::byte_vec(rng, 0..1024);
        let encoded = hex::encode(&data);
        assert_eq!(encoded.len(), data.len() * 2);
        assert_eq!(hex::decode(&encoded).as_deref(), Some(&data[..]));
        // Corrupting one nibble to a non-hex character must fail.
        if !encoded.is_empty() {
            let mut bad: Vec<char> = encoded.chars().collect();
            let at = gen::usize_in(rng, 0..bad.len());
            bad[at] = 'g';
            let bad: String = bad.into_iter().collect();
            assert_eq!(hex::decode(&bad), None);
        }
    });
}

/// Truncating a compressed stream never yields the original content.
#[test]
fn prop_lzss_truncation_detected() {
    prop_check!(cases = 32, |rng| {
        let data = gen::byte_vec(rng, 64..512);
        let compressed = lzss::compress(&data);
        let cut = gen::usize_in(rng, 0..compressed.len());
        if let Ok(v) = lzss::decompress(&compressed[..cut]) {
            assert_ne!(v, data, "truncated stream decoded to the full payload");
        }
    });
}

/// The decompressor never panics on a corrupted valid stream: flip a
/// handful of random bytes in a genuine compressed stream and it must
/// return `Ok` or `Err`, never abort. Stored-object headers carry a
/// crc32 precisely because corruption may decode "successfully" to the
/// wrong bytes — this property pins the panic-freedom half of that
/// contract. (`CompressedTier` relies on it: a bit-rotted backing tier
/// must surface as `TieraError::Codec`, not a crash.)
#[test]
fn prop_lzss_decompress_survives_byte_flips() {
    prop_check!(cases = 64, |rng| {
        // Mix of redundant and random content so both literal and
        // back-reference opcodes appear in the stream being corrupted.
        let alphabet = gen::byte_vec(rng, 1..17);
        let n = gen::usize_in(rng, 16..2048);
        let data: Vec<u8> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    gen::usize_in(rng, 0..256) as u8
                } else {
                    alphabet[i % alphabet.len()]
                }
            })
            .collect();
        let mut stream = lzss::compress(&data);
        let flips = gen::usize_in(rng, 1..9);
        for _ in 0..flips {
            let at = gen::usize_in(rng, 0..stream.len());
            stream[at] ^= gen::usize_in(rng, 1..256) as u8;
        }
        // Must not panic; a wrong-but-Ok result is the crc32 layer's
        // problem, not the decompressor's.
        let _ = lzss::decompress(&stream);
    });
}

/// The decompressor never panics on arbitrary garbage that was never a
/// compressed stream at all.
#[test]
fn prop_lzss_decompress_survives_random_input() {
    prop_check!(cases = 128, |rng| {
        let garbage = gen::byte_vec(rng, 0..4096);
        if let Ok(out) = lzss::decompress(&garbage) {
            // If garbage happens to parse, the round-trip law still
            // holds for whatever it decoded to.
            assert_eq!(lzss::decompress(&lzss::compress(&out)).as_deref(), Ok(&out[..]));
        }
    });
}

// ---- the packed frame ----

/// The payload a frame holds, whichever form its body takes.
fn unpacked_payload(stored: &[u8]) -> Result<Vec<u8>, UnpackError> {
    Ok(match packed::unpack(stored)? {
        Unpacked::Raw(range) => stored[range].to_vec(),
        Unpacked::Inflated(payload) => payload,
    })
}

fn text(len: usize) -> Vec<u8> {
    b"the quick brown fox jumps over the lazy dog. ".iter().cycle().take(len).copied().collect()
}

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// Frames `CompressedTier` stored before the frame moved into this crate,
/// captured from its backing tier: a payload that shrinks, one that does
/// not, one too short to shrink, and the empty one. `pack_into` must keep
/// writing these bytes, or objects already stored stop reading back.
#[test]
fn pack_into_writes_the_frames_compressed_tier_stored() {
    for (name, payload, frame) in [
        (
            "text",
            text(200),
            "c7013061b61bc8000000007468652071756963006b2062726f776e2000666f78206a756d70\
             8073206f766572201e10006c617a7920646f67062e0d202cf085",
        ),
        (
            "noise",
            noise(48, 9),
            "c700165ebfb7446c3a6fab81f9744c803f9a888ebc9f9e89d10a2e3c3da42518c866694e74\
             d60d87c5ae2a385c38b4bce546ceb21832",
        ),
        ("short", text(3), "c700e66d453c746865"),
        ("empty", Vec::new(), "c70000000000"),
    ] {
        let frame = hex::decode(frame).unwrap();
        let mut out = Vec::new();
        packed::pack_into(&mut out, &payload);
        assert_eq!(hex::encode(&out), hex::encode(&frame), "{name}");
        assert_eq!(unpacked_payload(&frame).as_deref(), Ok(&payload[..]), "{name}");
    }
}

/// A frame round-trips any payload, and its body never outgrows the
/// payload: lzss's expansion is traded for the raw form.
#[test]
fn prop_packed_roundtrips_and_grows_by_at_most_the_header() {
    prop_check!(cases = 64, |rng| {
        let data = if gen::usize_in(rng, 0..2) == 0 {
            gen::byte_vec(rng, 0..4096)
        } else {
            text(gen::usize_in(rng, 0..4096))
        };
        let mut frame = Vec::new();
        packed::pack_into(&mut frame, &data);
        assert!(frame.len() <= data.len() + packed::HEADER_LEN);
        assert_eq!(unpacked_payload(&frame), Ok(data));
    });
}

/// `unpack` never panics on a frame with flipped bytes, and never hands
/// back a payload other than the one packed: the header's crc32 catches
/// what the lzss decoder lets through.
#[test]
fn prop_unpack_survives_byte_flips() {
    prop_check!(cases = 128, |rng| {
        let data = if gen::usize_in(rng, 0..2) == 0 {
            gen::byte_vec(rng, 0..1024)
        } else {
            text(gen::usize_in(rng, 0..2048))
        };
        let mut frame = Vec::new();
        packed::pack_into(&mut frame, &data);
        for _ in 0..gen::usize_in(rng, 1..5) {
            let at = gen::usize_in(rng, 0..frame.len());
            frame[at] ^= gen::usize_in(rng, 1..256) as u8;
        }
        if let Ok(got) = unpacked_payload(&frame) {
            assert_eq!(got, data, "a corrupted frame decoded to other bytes");
        }
    });
}

/// `unpack` never panics on bytes that were never a frame, with or
/// without a plausible header in front.
#[test]
fn prop_unpack_survives_random_input() {
    prop_check!(cases = 128, |rng| {
        let mut garbage = gen::byte_vec(rng, 0..2048);
        if gen::usize_in(rng, 0..2) == 0 && garbage.len() >= 2 {
            garbage[0] = packed::MAGIC;
            garbage[1] &= packed::FLAG_COMPRESSED;
        }
        let _ = packed::unpack(&garbage);
    });
}
