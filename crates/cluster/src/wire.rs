//! Cluster wire messages: membership changes.
//!
//! Same framing discipline as `tiera_rpc::proto` — a one-byte opcode,
//! length-prefixed fields, little-endian integers — so these payloads
//! travel inside the existing v1/v2 frames unchanged. Every decode path
//! is *statically panic-free*: slice lengths are re-proven with
//! `try_into`/`get` rather than assumed by indexing, and hostile counts
//! are rejected before any allocation scales with them. The analyzer's
//! A004 panic-free module list includes this file, and the fuzz tests at
//! the bottom feed truncated/corrupted/hostile-length input through the
//! decoder.

use std::io;

pub use tiera_rpc::proto::MAX_FRAME;

/// Maximum member names accepted in one [`MembershipMsg::Digest`] —
/// guards hostile counts the way [`tiera_rpc::proto::MAX_BATCH`] guards
/// batch sizes.
pub const MAX_NODES: usize = 1024;

/// Membership-plane messages exchanged when nodes join, leave, or rejoin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipMsg {
    /// A node joined at `epoch`.
    Join {
        /// Joining node's name.
        node: String,
        /// Membership epoch after the join.
        epoch: u64,
    },
    /// A node left at `epoch`.
    Leave {
        /// Leaving node's name.
        node: String,
        /// Membership epoch after the leave.
        epoch: u64,
    },
    /// A previously-killed node came back, possibly with stale state; the
    /// coordinator answers with anti-entropy.
    Rejoin {
        /// Rejoining node's name.
        node: String,
        /// Membership epoch after the rejoin.
        epoch: u64,
    },
    /// Full membership snapshot, for convergence checks between peers.
    Digest {
        /// Membership epoch the snapshot describes.
        epoch: u64,
        /// Member names, sorted.
        nodes: Vec<String>,
    },
}

// ---- encoding helpers (mirrors tiera_rpc::proto) ----

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn truncated() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "truncated cluster message")
}

fn le_u32(b: &[u8]) -> io::Result<u32> {
    Ok(u32::from_le_bytes(b.try_into().map_err(|_| truncated())?))
}

fn le_u64(b: &[u8]) -> io::Result<u64> {
    Ok(u64::from_le_bytes(b.try_into().map_err(|_| truncated())?))
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(truncated)?;
        let s = self.buf.get(self.pos..end).ok_or_else(truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        self.take(1)?.first().copied().ok_or_else(truncated)
    }

    fn u32(&mut self) -> io::Result<u32> {
        le_u32(self.take(4)?)
    }

    fn u64(&mut self) -> io::Result<u64> {
        le_u64(self.take(8)?)
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "field too big"));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid utf-8"))
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn reject_trailing(c: &Cursor<'_>, what: &str) -> io::Result<()> {
    if !c.finished() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trailing bytes in {what}"),
        ));
    }
    Ok(())
}

impl MembershipMsg {
    /// Encodes to a payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            MembershipMsg::Join { node, epoch } => {
                out.push(1);
                put_str(&mut out, node);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            MembershipMsg::Leave { node, epoch } => {
                out.push(2);
                put_str(&mut out, node);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            MembershipMsg::Rejoin { node, epoch } => {
                out.push(3);
                put_str(&mut out, node);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            MembershipMsg::Digest { epoch, nodes } => {
                out.push(4);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
                for n in nodes {
                    put_str(&mut out, n);
                }
            }
        }
        out
    }

    /// Decodes from a payload; never panics, whatever the bytes.
    pub fn decode(buf: &[u8]) -> io::Result<MembershipMsg> {
        let mut c = Cursor { buf, pos: 0 };
        let msg = match c.u8()? {
            1 => MembershipMsg::Join {
                node: c.string()?,
                epoch: c.u64()?,
            },
            2 => MembershipMsg::Leave {
                node: c.string()?,
                epoch: c.u64()?,
            },
            3 => MembershipMsg::Rejoin {
                node: c.string()?,
                epoch: c.u64()?,
            },
            4 => {
                let epoch = c.u64()?;
                let n = c.u32()? as usize;
                if n > MAX_NODES {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "too many nodes in digest",
                    ));
                }
                let mut nodes = Vec::with_capacity(n);
                for _ in 0..n {
                    nodes.push(c.string()?);
                }
                MembershipMsg::Digest { epoch, nodes }
            }
            op => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown membership opcode {op}"),
                ))
            }
        };
        reject_trailing(&c, "membership message")?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_support::prop::gen;

    fn roundtrip_membership(msg: MembershipMsg) {
        assert_eq!(MembershipMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn membership_roundtrips() {
        roundtrip_membership(MembershipMsg::Join {
            node: "node-1".into(),
            epoch: 3,
        });
        roundtrip_membership(MembershipMsg::Leave {
            node: "".into(),
            epoch: u64::MAX,
        });
        roundtrip_membership(MembershipMsg::Rejoin {
            node: "node-2".into(),
            epoch: 9,
        });
        roundtrip_membership(MembershipMsg::Digest {
            epoch: 12,
            nodes: vec!["a".into(), "b".into(), "c".into()],
        });
        roundtrip_membership(MembershipMsg::Digest {
            epoch: 0,
            nodes: Vec::new(),
        });
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        assert!(MembershipMsg::decode(&[]).is_err());
        assert!(MembershipMsg::decode(&[0]).is_err(), "opcode zero reserved");
        assert!(MembershipMsg::decode(&[99]).is_err());
        // Trailing bytes.
        let mut enc = MembershipMsg::Join {
            node: "n".into(),
            epoch: 1,
        }
        .encode();
        enc.push(0);
        assert!(MembershipMsg::decode(&enc).is_err());
        // Truncation at every prefix must error, never panic.
        let enc = MembershipMsg::Digest {
            epoch: 2,
            nodes: vec!["node-a".into(), "node-b".into()],
        }
        .encode();
        for cut in 0..enc.len() {
            assert!(MembershipMsg::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_lengths_fail_before_allocation() {
        // Digest claiming u32::MAX nodes.
        let mut enc = vec![4u8];
        enc.extend_from_slice(&7u64.to_le_bytes());
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(MembershipMsg::decode(&enc).is_err());
        // A string field claiming more bytes than the frame limit.
        let mut enc = vec![1u8];
        enc.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(MembershipMsg::decode(&enc).is_err());
    }

    #[test]
    fn prop_decode_never_panics() {
        // Pure fuzz: random bytes through the decoder.
        tiera_support::prop_check!(cases = 192, |rng| {
            let bytes = gen::byte_vec(rng, 0..256);
            let _ = MembershipMsg::decode(&bytes);
        });
    }

    #[test]
    fn prop_mutated_valid_frames_never_panic() {
        // Structured fuzz: take a valid encoding, then truncate or
        // corrupt it — closer to the torn-frame shapes a redial produces.
        tiera_support::prop_check!(cases = 96, |rng| {
            let msg = MembershipMsg::Digest {
                epoch: gen::u64_in(rng, 0..u64::MAX),
                nodes: gen::vec_of(rng, 0..5, |rng| {
                    gen::string_of(rng, "abcdefgh-", 0..12)
                }),
            };
            let mut enc = msg.encode();
            // Corrupt one byte (a digest encodes to at least 13).
            let at = gen::usize_in(rng, 0..enc.len());
            if let Some(b) = enc.get_mut(at) {
                *b = b.wrapping_add(1 + gen::usize_in(rng, 0..255) as u8);
            }
            // And truncate to a random prefix.
            let cut = gen::usize_in(rng, 0..enc.len() + 1);
            let _ = MembershipMsg::decode(&enc[..cut]);
        });
    }
}
