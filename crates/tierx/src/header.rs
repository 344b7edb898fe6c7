//! The stored-object header for [`CompressedTier`].
//!
//! Every payload a `CompressedTier` writes into its backing tier is
//! prefixed with a fixed 6-byte header so reads can tell how to undo the
//! transform and verify integrity:
//!
//! ```text
//! byte 0      MAGIC (0xC7)
//! byte 1      flags (bit 0: body is an lzss stream; else raw payload)
//! bytes 2..6  crc32 of the *logical* payload, little-endian
//! bytes 6..   body
//! ```
//!
//! The raw-body form is the incompressibility escape hatch: when lzss
//! would expand a payload the wrapper stores it verbatim and records that
//! in the flags byte.
//!
//! This module is on `tiera-analyze`'s panic-free list (A004): decode
//! consumes bytes that may have been corrupted in the backing store, so
//! every malformed input must surface as [`HeaderError`], never a panic.
//!
//! [`CompressedTier`]: crate::CompressedTier

/// First stored byte of every wrapped object.
pub const MAGIC: u8 = 0xC7;

/// Flags bit: the body is an lzss stream (clear = raw payload).
pub const FLAG_COMPRESSED: u8 = 0b0000_0001;

/// Stored bytes preceding the body.
pub const HEADER_LEN: usize = 6;

/// Decoded header fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Whether the body is an lzss stream.
    pub compressed: bool,
    /// crc32 of the logical (pre-transform) payload.
    pub crc32: u32,
}

/// Why a stored object's header failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Fewer than [`HEADER_LEN`] stored bytes.
    Truncated,
    /// First byte is not [`MAGIC`].
    BadMagic(u8),
    /// Flags byte has bits outside [`FLAG_COMPRESSED`] set.
    UnknownFlags(u8),
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::Truncated => write!(f, "stored object shorter than its header"),
            HeaderError::BadMagic(b) => write!(f, "bad object header magic {b:#04x}"),
            HeaderError::UnknownFlags(b) => write!(f, "unknown object header flags {b:#04x}"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// Appends a header to `out`; the caller writes the body behind it, so a
/// stored object is built in one buffer.
pub fn encode(out: &mut Vec<u8>, compressed: bool, crc32: u32) {
    out.push(MAGIC);
    out.push(if compressed { FLAG_COMPRESSED } else { 0 });
    out.extend_from_slice(&crc32.to_le_bytes());
}

/// Splits stored bytes into the decoded [`Header`] and the body.
pub fn decode(stored: &[u8]) -> Result<(Header, &[u8]), HeaderError> {
    let (magic, rest) = stored.split_first().ok_or(HeaderError::Truncated)?;
    if *magic != MAGIC {
        return Err(HeaderError::BadMagic(*magic));
    }
    let (flags, rest) = rest.split_first().ok_or(HeaderError::Truncated)?;
    if *flags & !FLAG_COMPRESSED != 0 {
        return Err(HeaderError::UnknownFlags(*flags));
    }
    let crc_bytes = rest.get(..4).ok_or(HeaderError::Truncated)?;
    let mut crc = [0u8; 4];
    crc.copy_from_slice(crc_bytes);
    let body = rest.get(4..).ok_or(HeaderError::Truncated)?;
    Ok((
        Header {
            compressed: *flags & FLAG_COMPRESSED != 0,
            crc32: u32::from_le_bytes(crc),
        },
        body,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stored object: header, then `body`.
    fn encode(compressed: bool, crc32: u32, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        super::encode(&mut out, compressed, crc32);
        out.extend_from_slice(body);
        out
    }

    #[test]
    fn roundtrip_both_forms() {
        for compressed in [false, true] {
            let stored = encode(compressed, 0xDEADBEEF, b"body bytes");
            let (h, body) = decode(&stored).unwrap();
            assert_eq!(h.compressed, compressed);
            assert_eq!(h.crc32, 0xDEADBEEF);
            assert_eq!(body, b"body bytes");
        }
    }

    #[test]
    fn empty_body_roundtrips() {
        let stored = encode(true, 7, b"");
        assert_eq!(stored.len(), HEADER_LEN);
        let (h, body) = decode(&stored).unwrap();
        assert!(h.compressed);
        assert!(body.is_empty());
    }

    #[test]
    fn truncation_at_every_prefix_is_rejected() {
        let stored = encode(true, 0x01020304, b"x");
        for cut in 0..HEADER_LEN {
            assert_eq!(decode(&stored[..cut]), Err(HeaderError::Truncated), "cut {cut}");
        }
        // Exactly HEADER_LEN bytes is a valid empty body.
        assert!(decode(&stored[..HEADER_LEN]).is_ok());
    }

    #[test]
    fn bad_magic_and_flags_rejected() {
        let mut stored = encode(false, 0, b"y");
        stored[0] ^= 0xFF;
        assert!(matches!(decode(&stored), Err(HeaderError::BadMagic(_))));
        let mut stored = encode(false, 0, b"y");
        stored[1] = 0x80;
        assert!(matches!(decode(&stored), Err(HeaderError::UnknownFlags(0x80))));
    }
}
