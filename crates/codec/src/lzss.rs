//! LZSS compression.
//!
//! Stand-in for the ZLIB library the Tiera prototype used for its
//! `compress`/`uncompress` responses (paper Table 1). A classic LZSS with a
//! 4 KiB sliding window and 3..=66 byte matches, hash-chained for speed.
//!
//! ## Format
//!
//! The stream is a sequence of groups. Each group starts with a flag byte:
//! bit *i* (LSB first) describes token *i* of the group — `0` = literal
//! byte, `1` = match. A match token is a `u16` little-endian
//! `(len_code << 12) | (dist - 1)` with a 12-bit backward distance; when
//! `len_code == 15` an extension byte follows carrying additional length,
//! so matches span 3..=273 bytes. A 4-byte little-endian uncompressed
//! length header prefixes everything, which also bounds expansion:
//! incompressible input grows by only `4 + ceil(n/8)` bytes.

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const LEN_CODE_MAX: usize = 15;
const MAX_MATCH: usize = MIN_MATCH + LEN_CODE_MAX + 255; // 3..=273
const HASH_BITS: u32 = 13;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Chain positions are `u32` (the stream's length header is 32-bit, so
/// every position fits); this marks an empty slot.
const NIL: u32 = u32::MAX;

/// Errors returned by [`decompress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LzssError {
    /// Stream ended before the declared length was produced.
    Truncated,
    /// A match referenced data before the start of the output.
    BadDistance,
    /// Decompressed more data than the header declared.
    LengthMismatch,
}

impl std::fmt::Display for LzssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LzssError::Truncated => write!(f, "compressed stream truncated"),
            LzssError::BadDistance => write!(f, "match distance out of range"),
            LzssError::LengthMismatch => write!(f, "decoded length mismatch"),
        }
    }
}

impl std::error::Error for LzssError {}

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (u32::from(data[i]) << 16) ^ (u32::from(data[i + 1]) << 8) ^ u32::from(data[i + 2]);
    (h.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of two equally long slices, compared eight
/// bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let (a_words, a_tail) = a.as_chunks::<8>();
    let (b_words, b_tail) = b.as_chunks::<8>();
    for (k, (x, y)) in a_words.iter().zip(b_words).enumerate() {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return k * 8 + (diff.trailing_zeros() / 8) as usize;
        }
    }
    a_words.len() * 8 + a_tail.iter().zip(b_tail).take_while(|(x, y)| x == y).count()
}

/// Compresses `data`. Worst-case expansion is `4 + ceil(len/8) + len`
/// bytes total.
///
/// # Panics
///
/// If `data` is longer than `u32::MAX` bytes, which the stream's length
/// header cannot record.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(&mut out, data);
    out
}

/// Appends the stream [`compress`] returns for `data` to `out`, so a
/// caller that frames the stream writes frame and stream into one buffer.
pub fn compress_into(out: &mut Vec<u8>, data: &[u8]) {
    let declared = u32::try_from(data.len()).expect("lzss input longer than u32::MAX bytes");
    out.extend_from_slice(&declared.to_le_bytes());
    if data.is_empty() {
        return;
    }

    // head[h] = most recent position with hash h; prev[i % WINDOW] = chain.
    let mut head = vec![NIL; HASH_SIZE];
    let mut prev = vec![NIL; WINDOW];
    macro_rules! insert {
        ($i:expr) => {
            prev[$i % WINDOW] = std::mem::replace(&mut head[hash3(data, $i)], $i as u32)
        };
    }

    let mut i = 0usize;
    let mut flags_pos = out.len();
    out.push(0);
    let mut flag_bit = 0u8;

    while i < data.len() {
        if flag_bit == 8 {
            flags_pos = out.len();
            out.push(0);
            flag_bit = 0;
        }
        let hashable = i + MIN_MATCH <= data.len();
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if hashable {
            let max_len = MAX_MATCH.min(data.len() - i);
            let here = &data[i..i + max_len];
            let mut cand = head[hash3(data, i)];
            let mut tries = 16;
            while cand != NIL && i - cand as usize <= WINDOW && tries > 0 {
                let c = cand as usize;
                // Only a strictly longer match replaces the best one, so a
                // candidate that differs on the byte just past it is out
                // before any of it is compared.
                if data[c + best_len] == here[best_len] {
                    let l = common_prefix(&data[c..c + max_len], here);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l == max_len {
                            break;
                        }
                    }
                }
                let next = prev[c % WINDOW];
                if next == NIL || next >= cand {
                    break;
                }
                cand = next;
                tries -= 1;
            }
        }

        if best_len >= MIN_MATCH {
            out[flags_pos] |= 1 << flag_bit;
            let len_code = (best_len - MIN_MATCH).min(LEN_CODE_MAX);
            let token = ((len_code as u16) << 12) | ((best_dist - 1) as u16);
            out.extend_from_slice(&token.to_le_bytes());
            if len_code == LEN_CODE_MAX {
                out.push((best_len - MIN_MATCH - LEN_CODE_MAX) as u8);
            }
            // Every covered position that still has three bytes ahead of
            // it joins its chain.
            let end = i + best_len;
            for covered in i..end.min(data.len() + 1 - MIN_MATCH) {
                insert!(covered);
            }
            i = end;
        } else {
            out.push(data[i]);
            if hashable {
                insert!(i);
            }
            i += 1;
        }
        flag_bit += 1;
    }
}

/// Decompresses a stream produced by [`compress`].
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, LzssError> {
    if stream.len() < 4 {
        return Err(LzssError::Truncated);
    }
    let declared = u32::from_le_bytes([stream[0], stream[1], stream[2], stream[3]]) as usize;
    let mut out = Vec::with_capacity(declared);
    let mut pos = 4usize;
    'outer: while out.len() < declared {
        if pos >= stream.len() {
            return Err(LzssError::Truncated);
        }
        let flags = stream[pos];
        pos += 1;
        for bit in 0..8 {
            if out.len() == declared {
                break 'outer;
            }
            if flags & (1 << bit) != 0 {
                if pos + 2 > stream.len() {
                    return Err(LzssError::Truncated);
                }
                let token = u16::from_le_bytes([stream[pos], stream[pos + 1]]);
                pos += 2;
                let mut len = ((token >> 12) as usize) + MIN_MATCH;
                if (token >> 12) as usize == LEN_CODE_MAX {
                    if pos >= stream.len() {
                        return Err(LzssError::Truncated);
                    }
                    len += stream[pos] as usize;
                    pos += 1;
                }
                let dist = ((token & 0x0FFF) as usize) + 1;
                if dist > out.len() {
                    return Err(LzssError::BadDistance);
                }
                // One block copy when the source lies wholly behind the
                // output (`dist >= len`). Otherwise the match repeats the
                // last `dist` bytes, and each pass doubles how many of
                // them there are to copy.
                let start = out.len() - dist;
                while len > 0 {
                    let n = len.min(out.len() - start);
                    out.extend_from_within(start..start + n);
                    len -= n;
                }
            } else {
                if pos >= stream.len() {
                    return Err(LzssError::Truncated);
                }
                out.push(stream[pos]);
                pos += 1;
            }
        }
    }
    if out.len() != declared {
        return Err(LzssError::LengthMismatch);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_roundtrip() {
        let c = compress(b"");
        assert_eq!(c.len(), 4);
        assert_eq!(decompress(&c).unwrap(), b"");
    }

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog, the quick brown fox again and again and again";
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len(), "redundant text must shrink: {} vs {}", c.len(), data.len());
    }

    #[test]
    fn highly_redundant_compresses_well() {
        let data = vec![b'A'; 100_000];
        let c = compress(&data);
        assert!(c.len() < data.len() / 10, "got {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn incompressible_bounded_expansion() {
        // Pseudo-random bytes: no 3-byte matches to speak of.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= 4 + data.len() + data.len() / 8 + 1);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_match_is_handled() {
        // "abcabcabc..." forces matches whose source overlaps the output tail.
        let data: Vec<u8> = b"abc".iter().cycle().take(1000).copied().collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn truncated_stream_rejected() {
        let c = compress(b"hello world hello world hello world");
        for cut in 0..c.len() - 1 {
            // Some prefixes decode with a length mismatch, most are Truncated;
            // none may panic or return Ok with the full declared content.
            if let Ok(v) = decompress(&c[..cut]) {
                assert_ne!(v, b"hello world hello world hello world");
            }
        }
    }

    #[test]
    fn bad_distance_rejected() {
        // Header says 10 bytes, first token is a match with distance 1 but
        // output is empty → BadDistance.
        let mut s = vec![10, 0, 0, 0];
        s.push(0b0000_0001); // first token is a match
        s.extend_from_slice(&0u16.to_le_bytes()); // len=3, dist=1
        assert_eq!(decompress(&s), Err(LzssError::BadDistance));
    }

    #[test]
    fn prop_roundtrip() {
        tiera_support::prop_check!(cases = 64, |rng| {
            let data = tiera_support::prop::gen::byte_vec(rng, 0..2048);
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data);
        });
    }

    #[test]
    fn prop_roundtrip_redundant() {
        tiera_support::prop_check!(cases = 64, |rng| {
            // Structured data: repeated small alphabet with runs.
            let n = rng.next_below(20_000) as usize;
            let mut data = Vec::with_capacity(n);
            while data.len() < n {
                let run = rng.next_below(32) as usize + 1;
                let b = rng.next_u64() as u8 & 0x0F;
                for _ in 0..run.min(n - data.len()) {
                    data.push(b);
                }
            }
            let c = compress(&data);
            assert_eq!(decompress(&c).unwrap(), data);
        });
    }

    /// The compressor as first written — `usize` tables, byte-at-a-time
    /// match extension, every candidate compared in full — kept as the
    /// definition of the stream the kernel must emit byte for byte.
    fn reference_compress(data: &[u8]) -> Vec<u8> {
        let hash3 = |i: usize| {
            let (a, b, c) = (data[i] as usize, data[i + 1] as usize, data[i + 2] as usize);
            ((a << 16) ^ (b << 8) ^ c).wrapping_mul(2654435761) >> (32 - 13) & (HASH_SIZE - 1)
        };
        let mut out = Vec::new();
        out.extend_from_slice(&(data.len() as u32).to_le_bytes());
        if data.is_empty() {
            return out;
        }
        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; WINDOW];
        let mut i = 0usize;
        let mut flags_pos = out.len();
        out.push(0);
        let mut flag_bit = 0u8;
        while i < data.len() {
            if flag_bit == 8 {
                flags_pos = out.len();
                out.push(0);
                flag_bit = 0;
            }
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let mut cand = head[hash3(i)];
                let mut tries = 16;
                while cand != usize::MAX && i - cand <= WINDOW && tries > 0 {
                    if cand < i {
                        let max_len = MAX_MATCH.min(data.len() - i);
                        let mut l = 0usize;
                        while l < max_len && data[cand + l] == data[i + l] {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_dist = i - cand;
                            if l == MAX_MATCH {
                                break;
                            }
                        }
                    }
                    let next = prev[cand % WINDOW];
                    if next == usize::MAX || next >= cand {
                        break;
                    }
                    cand = next;
                    tries -= 1;
                }
            }
            if best_len >= MIN_MATCH {
                out[flags_pos] |= 1 << flag_bit;
                let len_code = (best_len - MIN_MATCH).min(LEN_CODE_MAX);
                let token = ((len_code as u16) << 12) | ((best_dist - 1) as u16);
                out.extend_from_slice(&token.to_le_bytes());
                if len_code == LEN_CODE_MAX {
                    out.push((best_len - MIN_MATCH - LEN_CODE_MAX) as u8);
                }
                let end = i + best_len;
                while i < end && i + MIN_MATCH <= data.len() {
                    let h = hash3(i);
                    prev[i % WINDOW] = head[h];
                    head[h] = i;
                    i += 1;
                }
                i = end;
            } else {
                out.push(data[i]);
                if i + MIN_MATCH <= data.len() {
                    let h = hash3(i);
                    prev[i % WINDOW] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
            flag_bit += 1;
        }
        out
    }

    /// The decompressor as first written: a match is copied a byte at a
    /// time. Defines both the output and which error fires where.
    fn reference_decompress(stream: &[u8]) -> Result<Vec<u8>, LzssError> {
        if stream.len() < 4 {
            return Err(LzssError::Truncated);
        }
        let declared = u32::from_le_bytes([stream[0], stream[1], stream[2], stream[3]]) as usize;
        let mut out = Vec::new();
        let mut pos = 4usize;
        'outer: while out.len() < declared {
            let flags = *stream.get(pos).ok_or(LzssError::Truncated)?;
            pos += 1;
            for bit in 0..8 {
                if out.len() == declared {
                    break 'outer;
                }
                if flags & (1 << bit) != 0 {
                    let token = stream.get(pos..pos + 2).ok_or(LzssError::Truncated)?;
                    let token = u16::from_le_bytes([token[0], token[1]]);
                    pos += 2;
                    let mut len = ((token >> 12) as usize) + MIN_MATCH;
                    if (token >> 12) as usize == LEN_CODE_MAX {
                        len += *stream.get(pos).ok_or(LzssError::Truncated)? as usize;
                        pos += 1;
                    }
                    let dist = ((token & 0x0FFF) as usize) + 1;
                    if dist > out.len() {
                        return Err(LzssError::BadDistance);
                    }
                    let start = out.len() - dist;
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                } else {
                    out.push(*stream.get(pos).ok_or(LzssError::Truncated)?);
                    pos += 1;
                }
            }
        }
        if out.len() != declared {
            return Err(LzssError::LengthMismatch);
        }
        Ok(out)
    }

    /// Up to 20 000 bytes in one of three shapes: random (literals only),
    /// runs over a small alphabet (long, overlapping matches), text-like
    /// (words from a small dictionary: short matches at every distance).
    fn shaped_input(rng: &mut tiera_support::rng::SimRng) -> Vec<u8> {
        use tiera_support::prop::gen;
        const WORDS: [&[u8]; 8] =
            [b"tier", b"object ", b"the ", b"policy", b" ", b"copy(", b"storage", b"\n"];
        let n = gen::usize_in(rng, 0..20_000);
        let mut data = Vec::with_capacity(n + 8);
        match rng.next_below(3) {
            0 => data = gen::bytes(rng, n),
            1 => {
                while data.len() < n {
                    let run = gen::usize_in(rng, 1..400);
                    let b = rng.next_u64() as u8 & 0x0F;
                    data.resize(data.len() + run, b);
                }
            }
            _ => {
                while data.len() < n {
                    data.extend_from_slice(gen::pick::<&[u8]>(rng, &WORDS));
                }
            }
        }
        data.truncate(n);
        data
    }

    #[test]
    fn prop_kernels_match_the_byte_at_a_time_references() {
        tiera_support::prop_check!(cases = 96, |rng| {
            let data = shaped_input(rng);
            let stream = compress(&data);
            assert_eq!(stream, reference_compress(&data), "compress, {} bytes in", data.len());
            assert_eq!(decompress(&stream).as_deref(), Ok(&data[..]));
            assert_eq!(reference_decompress(&stream).as_deref(), Ok(&data[..]));

            // `compress_into` appends exactly that stream behind whatever
            // the caller already wrote.
            let mut framed = b"frame:".to_vec();
            compress_into(&mut framed, &data);
            assert_eq!(framed[..6], *b"frame:");
            assert_eq!(framed[6..], stream[..]);
        });
    }

    #[test]
    fn prop_decompress_errors_fire_where_the_reference_fires_them() {
        tiera_support::prop_check!(cases = 192, |rng| {
            use tiera_support::prop::gen;
            let mut stream = compress(&shaped_input(rng));
            // Cut it, or flip bytes past the length header (a flipped
            // header mostly asks for gigabytes, which is not the point).
            if gen::boolean(rng) {
                stream.truncate(gen::usize_in(rng, 0..stream.len()));
            } else if stream.len() > 4 {
                for _ in 0..gen::usize_in(rng, 1..6) {
                    let at = gen::usize_in(rng, 4..stream.len());
                    stream[at] ^= gen::usize_in(rng, 1..256) as u8;
                }
            }
            assert_eq!(decompress(&stream), reference_decompress(&stream));
        });
    }
}
