//! The workspace's one byte codec: a bounds-checked slice [`Reader`] and
//! the `put_*` writers that match it.
//!
//! The vocabulary is small and fixed — a byte, little-endian `u32`/`u64`,
//! fixed-size arrays, and `u32`-length-prefixed byte strings — and every
//! slice-parsed format in the workspace is spelled in it: rpc payloads,
//! per-object metadata records, the fs manifest and the metastore log
//! frame header. A read past the end, an element count above its cap or
//! a string that is not UTF-8 is an [`Error`], never a panic: inputs here
//! come off the network or off a disk that may have torn them, and the
//! attribute below has clippy deny every panicking construct here. The
//! writers append to a caller's `Vec`, so a buffer reused from record to
//! record stops allocating once it has grown.

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

use std::fmt;
use std::io;

/// Why a read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The input ended before the value did.
    Truncated,
    /// An element count was above the cap its caller set.
    TooMany,
    /// A string field is not UTF-8.
    NotUtf8,
}

/// A read's result.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Error::Truncated => "truncated input",
            Error::TooMany => "element count over its cap",
            Error::NotUtf8 => "string is not utf-8",
        })
    }
}

impl std::error::Error for Error {}

impl From<Error> for io::Error {
    fn from(e: Error) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Reads values off the front of a byte slice; it never reads past the
/// end. After a failed read the reader's position is unspecified.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(Error::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes, by value.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or(Error::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u32` element count, refused above `max` — before a caller sizes
    /// anything by it.
    pub fn count(&mut self, max: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > max {
            return Err(Error::TooMany);
        }
        Ok(n)
    }

    /// A `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| Error::NotUtf8)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether every byte has been read.
    pub fn finished(&self) -> bool {
        self.rest.is_empty()
    }
}

/// Appends `v` as a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `b` with its `u32` length in front ([`Reader::bytes`]).
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Appends `s` with its `u32` length in front ([`Reader::str`]).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Appends a `u32` count, then each string as [`put_str`] does.
pub fn put_strs<S: AsRef<str>>(
    out: &mut Vec<u8>,
    items: impl IntoIterator<Item = S, IntoIter: ExactSizeIterator>,
) {
    let items = items.into_iter();
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s.as_ref());
    }
}
