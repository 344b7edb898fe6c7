//! The packed frame: the one stored form of an lzss-compressed payload,
//! written and read by both the `compress` response (paper Table 1) and
//! the `CompressedTier` wrapper.
//!
//! ```text
//! byte 0      MAGIC (0xC7)
//! byte 1      flags (bit 0: body is an lzss stream; else raw payload)
//! bytes 2..6  crc32 of the *logical* payload, little-endian
//! bytes 6..   body
//! ```
//!
//! When lzss would expand a payload, [`pack_into`] stores it raw, so a
//! frame is at most [`HEADER_LEN`] bytes longer than its payload.
//! [`unpack`] reads bytes a backing store may have corrupted, and must
//! answer every malformed input with an [`UnpackError`], never a panic:
//! the attribute below has clippy deny every panicking construct here.

#![cfg_attr(
    not(test),
    deny(
        clippy::panic,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::panic_in_result_fn,
        clippy::disallowed_macros
    )
)]

use std::ops::Range;

use crate::{crc32, lzss};

/// First stored byte of every frame.
pub const MAGIC: u8 = 0xC7;

/// Flags bit: the body is an lzss stream (clear = raw payload).
pub const FLAG_COMPRESSED: u8 = 0b0000_0001;

/// Stored bytes preceding the body.
pub const HEADER_LEN: usize = 6;

/// Why stored bytes are not a frame of the payload they claim to hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnpackError {
    /// Fewer than [`HEADER_LEN`] stored bytes.
    Truncated,
    /// First byte is not [`MAGIC`].
    BadMagic(u8),
    /// Flags byte has bits outside [`FLAG_COMPRESSED`] set.
    UnknownFlags(u8),
    /// The body claims to be an lzss stream and is not one.
    Lzss(lzss::LzssError),
    /// The decoded payload does not match the header's checksum.
    CrcMismatch {
        /// crc32 the header recorded.
        stored: u32,
        /// crc32 of the decoded payload.
        computed: u32,
    },
}

impl std::fmt::Display for UnpackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnpackError::Truncated => write!(f, "stored object shorter than its header"),
            UnpackError::BadMagic(b) => write!(f, "bad object header magic {b:#04x}"),
            UnpackError::UnknownFlags(b) => write!(f, "unknown object header flags {b:#04x}"),
            UnpackError::Lzss(e) => write!(f, "lzss: {e}"),
            UnpackError::CrcMismatch { stored, computed } => {
                write!(f, "crc32 mismatch (stored {stored:#010x}, computed {computed:#010x})")
            }
        }
    }
}

impl std::error::Error for UnpackError {}

/// A payload recovered from its frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unpacked {
    /// The frame held the payload verbatim, at this range of the stored
    /// bytes, which a caller can slice instead of copying.
    Raw(Range<usize>),
    /// The frame held an lzss stream; this is its decompressed payload.
    Inflated(Vec<u8>),
}

/// Appends the frame of `raw` to `out`: the header and the lzss stream,
/// or the payload itself when lzss would not shrink it.
pub fn pack_into(out: &mut Vec<u8>, raw: &[u8]) {
    let start = out.len();
    let crc = crc32::checksum(raw);
    out.reserve(HEADER_LEN + raw.len());
    push_header(out, true, crc);
    lzss::compress_into(out, raw);
    // The header is paid either way; the stream must beat the payload.
    if out.len() - start - HEADER_LEN >= raw.len() {
        out.truncate(start);
        push_header(out, false, crc);
        out.extend_from_slice(raw);
    }
}

/// Checks a frame's header and checksum and recovers its payload.
pub fn unpack(stored: &[u8]) -> Result<Unpacked, UnpackError> {
    let (compressed, crc, body) = split_header(stored)?;
    let (computed, unpacked) = if compressed {
        let inflated = lzss::decompress(body).map_err(UnpackError::Lzss)?;
        (crc32::checksum(&inflated), Unpacked::Inflated(inflated))
    } else {
        (crc32::checksum(body), Unpacked::Raw(HEADER_LEN..stored.len()))
    };
    if computed != crc {
        return Err(UnpackError::CrcMismatch { stored: crc, computed });
    }
    Ok(unpacked)
}

/// Appends a header; the body goes behind it, so a frame is built in one
/// buffer.
fn push_header(out: &mut Vec<u8>, compressed: bool, crc32: u32) {
    out.push(MAGIC);
    out.push(if compressed { FLAG_COMPRESSED } else { 0 });
    out.extend_from_slice(&crc32.to_le_bytes());
}

/// Splits stored bytes into (compressed, crc32, body).
fn split_header(stored: &[u8]) -> Result<(bool, u32, &[u8]), UnpackError> {
    let (magic, rest) = stored.split_first().ok_or(UnpackError::Truncated)?;
    if *magic != MAGIC {
        return Err(UnpackError::BadMagic(*magic));
    }
    let (flags, rest) = rest.split_first().ok_or(UnpackError::Truncated)?;
    if *flags & !FLAG_COMPRESSED != 0 {
        return Err(UnpackError::UnknownFlags(*flags));
    }
    let (crc, body) = rest.split_first_chunk::<4>().ok_or(UnpackError::Truncated)?;
    Ok((*flags & FLAG_COMPRESSED != 0, u32::from_le_bytes(*crc), body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stored object: header, then `body`.
    fn encode(compressed: bool, crc32: u32, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        push_header(&mut out, compressed, crc32);
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn roundtrip_both_forms() {
        for compressed in [false, true] {
            let stored = encode(compressed, 0xDEADBEEF, b"body bytes");
            let (c, crc, body) = split_header(&stored).unwrap();
            assert_eq!(c, compressed);
            assert_eq!(crc, 0xDEADBEEF);
            assert_eq!(body, b"body bytes");
        }
        for payload in [&b"abc".repeat(100)[..], b"xyz"] {
            let mut stored = b"prefix".to_vec();
            pack_into(&mut stored, payload);
            let frame = &stored[6..];
            assert_eq!(frame[1] == FLAG_COMPRESSED, payload.len() > 3);
            let got = match unpack(frame).unwrap() {
                Unpacked::Raw(range) => frame[range].to_vec(),
                Unpacked::Inflated(v) => v,
            };
            assert_eq!(got, payload);
        }
    }

    #[test]
    fn empty_body_roundtrips() {
        let stored = encode(true, 7, b"");
        assert_eq!(stored.len(), HEADER_LEN);
        let (compressed, _, body) = split_header(&stored).unwrap();
        assert!(compressed);
        assert!(body.is_empty());
        let mut stored = Vec::new();
        pack_into(&mut stored, b"");
        assert_eq!(unpack(&stored), Ok(Unpacked::Raw(HEADER_LEN..HEADER_LEN)));
    }

    #[test]
    fn truncation_at_every_prefix_is_rejected() {
        let stored = encode(true, 0x01020304, b"x");
        for cut in 0..HEADER_LEN {
            assert_eq!(split_header(&stored[..cut]), Err(UnpackError::Truncated), "cut {cut}");
            assert_eq!(unpack(&stored[..cut]), Err(UnpackError::Truncated), "cut {cut}");
        }
        // Exactly HEADER_LEN bytes is a valid empty body.
        assert!(split_header(&stored[..HEADER_LEN]).is_ok());
    }

    #[test]
    fn bad_magic_and_flags_rejected() {
        let mut stored = encode(false, 0, b"y");
        stored[0] ^= 0xFF;
        assert!(matches!(unpack(&stored), Err(UnpackError::BadMagic(_))));
        let mut stored = encode(false, 0, b"y");
        stored[1] = 0x80;
        assert!(matches!(unpack(&stored), Err(UnpackError::UnknownFlags(0x80))));
    }
}
