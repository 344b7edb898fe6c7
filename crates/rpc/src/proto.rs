//! Wire protocol.
//!
//! Every message is a frame: `u32` little-endian payload length, then the
//! payload. The payload starts with a one-byte opcode followed by
//! length-prefixed fields (u32 lengths, little-endian integers), read and
//! written with the workspace's one byte codec, [`tiera_support::wire`];
//! this module adds only the caps (a field over [`MAX_FRAME`], a batch
//! over [`MAX_BATCH`], and the tag and rule counts).
//!
//! A connection opens with a `hello` exchange (`[MAGIC][version]` from the
//! client, `[MAGIC][granted]` back), after which every frame's payload is
//! prefixed with a little-endian `u64` **sequence number**. Responses carry
//! the sequence number of the request they answer, so many requests may be
//! in flight and completions may arrive out of order. A client that keeps
//! one request in flight says so with the `LOCKSTEP` bit of its hello's
//! version word, and the server then answers it inline (DESIGN.md §3d).
//!
//! [`MAGIC`] is deliberately larger than [`MAX_FRAME`], so it can never be
//! a valid frame length: a peer that opens with a bare frame instead of a
//! hello, or answers a hello with one, is told apart from a v2 peer and
//! refused with a clean error rather than a hang.
//!
//! Batching: `MultiPut`/`MultiGet`/`MultiDelete` carry up to [`MAX_BATCH`]
//! operations in one frame; the server answers with a `Batch` response
//! whose parts report per-item success or failure (partial failure is
//! first-class, not all-or-nothing).

use std::io::{self, Read, Write};

use tiera_support::wire::{self, put_bytes, put_str, put_strs, put_u32, put_u64, Reader};

/// Protocol magic ("TIRA"), the first word of every hello. Its value is
/// deliberately above [`MAX_FRAME`] so it can never be mistaken for a
/// frame length.
pub const MAGIC: u32 = 0x5449_5241;
/// Highest protocol version this build speaks (the pipelined framing).
pub const VERSION: u32 = 2;
/// Hello flag, or-ed into the client's version word: the client keeps at
/// most one request in flight, so the server may write each response
/// itself instead of handing it to a writer thread. [`negotiate`] masks
/// it off.
pub(crate) const LOCKSTEP: u32 = 1 << 31;
/// Maximum accepted frame size (64 MiB) — guards against garbage lengths.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;
/// Maximum operations per `MultiPut`/`MultiGet`/`MultiDelete` frame (and
/// parts per `Batch` response) — guards batch counts the same way
/// [`MAX_FRAME`] guards lengths.
pub const MAX_BATCH: usize = 4096;
/// Bytes of sequence-number prefix in a v2 frame payload.
pub const SEQ_PREFIX: usize = 8;
/// Buffer capacity for pipelined connections (both directions, both
/// ends). A pipelined peer moves bursts of small frames; the default 8 KiB
/// `BufReader`/`BufWriter` capacity forces a mid-burst syscall well before
/// a pipeline window fills, so the v2 paths size their buffers to hold a
/// whole burst.
pub const PIPE_BUF: usize = 64 * 1024;

/// One operation inside a [`Request::MultiPut`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutItem {
    /// Object key.
    pub key: String,
    /// Payload.
    pub value: Vec<u8>,
    /// Tags to attach.
    pub tags: Vec<String>,
}

/// Client → server requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Store an object, optionally tagged.
    Put {
        /// Object key.
        key: String,
        /// Payload.
        value: Vec<u8>,
        /// Tags to attach.
        tags: Vec<String>,
    },
    /// Fetch an object.
    Get {
        /// Object key.
        key: String,
    },
    /// Delete an object.
    Delete {
        /// Object key.
        key: String,
    },
    /// Fetch instance statistics.
    Stats,
    /// Install a policy rule given as specification-language text
    /// (`event(...) : response { ... }`).
    AddRule {
        /// The event clause source text.
        spec_text: String,
    },
    /// Remove a rule by id.
    RemoveRule {
        /// The rule id returned by `AddRule` / listed by `ListRules`.
        rule_id: u64,
    },
    /// List installed rules.
    ListRules,
    /// Attach a new tier resolved through the server's tier catalog.
    AttachTier {
        /// Catalog type name (e.g. `Memcached`, `EBS`, `S3`).
        type_name: String,
        /// Label within the instance.
        label: String,
        /// Capacity in bytes.
        capacity: u64,
    },
    /// Detach a tier by label.
    DetachTier {
        /// The tier label.
        label: String,
    },
    /// Store up to [`MAX_BATCH`] objects in one frame. Answered by a
    /// `Batch` response with one `PutOk`/`Error` part per item, in order.
    MultiPut {
        /// The operations, executed in order.
        items: Vec<PutItem>,
    },
    /// Fetch up to [`MAX_BATCH`] objects in one frame. Answered by a
    /// `Batch` response with one `GetOk`/`Error` part per key, in order.
    MultiGet {
        /// Keys to fetch.
        keys: Vec<String>,
    },
    /// Delete up to [`MAX_BATCH`] objects in one frame. Answered by a
    /// `Batch` response with one `Deleted`/`Error` part per key, in order.
    MultiDelete {
        /// Keys to delete.
        keys: Vec<String>,
    },
}

/// Server → client responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Ping reply.
    Pong,
    /// PUT acknowledged; virtual latency charged, in nanoseconds.
    PutOk {
        /// Charged virtual latency (ns).
        latency_ns: u64,
    },
    /// GET result.
    GetOk {
        /// Payload.
        value: Vec<u8>,
        /// Charged virtual latency (ns).
        latency_ns: u64,
        /// Tier that served the read.
        served_by: String,
    },
    /// DELETE acknowledged.
    Deleted {
        /// Charged virtual latency (ns).
        latency_ns: u64,
    },
    /// Instance statistics snapshot.
    Stats {
        /// Objects stored.
        objects: u64,
        /// Reads served.
        reads: u64,
        /// Writes served.
        writes: u64,
        /// Events fired.
        events: u64,
    },
    /// Request failed.
    Error {
        /// Error message.
        message: String,
    },
    /// Generic success for reconfiguration requests.
    Ok,
    /// A rule was installed.
    RuleAdded {
        /// Its id (usable with `RemoveRule`).
        rule_id: u64,
    },
    /// Installed rules.
    Rules {
        /// `(id, label)` pairs.
        rules: Vec<(u64, String)>,
    },
    /// Per-item outcomes of a `Multi*` request, in request order. Parts
    /// are ordinary responses (`PutOk`, `GetOk`, `Deleted`, `Error`);
    /// nesting a `Batch` inside a `Batch` is a protocol error.
    Batch {
        /// One part per batched operation.
        parts: Vec<Response>,
    },
}

// ---- fields ----

/// Most tags one `Put` (or one `MultiPut` item) may carry.
const MAX_TAGS: usize = 1024;
/// Most rules one `Rules` response may list.
const MAX_RULES: usize = 100_000;

fn invalid(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A length-prefixed field; a length over [`MAX_FRAME`] is refused unread.
fn field<'a>(r: &mut Reader<'a>) -> io::Result<&'a [u8]> {
    let len = r.count(MAX_FRAME)?;
    Ok(r.take(len)?)
}

fn string(r: &mut Reader<'_>) -> io::Result<String> {
    let s = std::str::from_utf8(field(r)?).map_err(|_| wire::Error::NotUtf8)?;
    Ok(s.to_owned())
}

/// A counted list of strings, refused above `max` before it is sized.
fn strings(r: &mut Reader<'_>, max: usize) -> io::Result<Vec<String>> {
    let n = r.count(max)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(string(r)?);
    }
    Ok(out)
}

impl Request {
    /// Encodes to a payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(0),
            Request::Put { key, value, tags } => {
                out.push(1);
                put_str(&mut out, key);
                put_bytes(&mut out, value);
                put_strs(&mut out, tags);
            }
            Request::Get { key } => {
                out.push(2);
                put_str(&mut out, key);
            }
            Request::Delete { key } => {
                out.push(3);
                put_str(&mut out, key);
            }
            Request::Stats => out.push(4),
            Request::AddRule { spec_text } => {
                out.push(5);
                put_str(&mut out, spec_text);
            }
            Request::RemoveRule { rule_id } => {
                out.push(6);
                put_u64(&mut out, *rule_id);
            }
            Request::ListRules => out.push(7),
            Request::AttachTier {
                type_name,
                label,
                capacity,
            } => {
                out.push(8);
                put_str(&mut out, type_name);
                put_str(&mut out, label);
                put_u64(&mut out, *capacity);
            }
            Request::DetachTier { label } => {
                out.push(9);
                put_str(&mut out, label);
            }
            Request::MultiPut { items } => {
                out.push(10);
                put_u32(&mut out, items.len() as u32);
                for item in items {
                    put_str(&mut out, &item.key);
                    put_bytes(&mut out, &item.value);
                    put_strs(&mut out, &item.tags);
                }
            }
            Request::MultiGet { keys } => {
                out.push(11);
                put_strs(&mut out, keys);
            }
            Request::MultiDelete { keys } => {
                out.push(12);
                put_strs(&mut out, keys);
            }
        }
        out
    }

    /// Decodes from a payload.
    pub fn decode(buf: &[u8]) -> io::Result<Request> {
        let mut r = Reader::new(buf);
        let req = match r.u8()? {
            0 => Request::Ping,
            1 => Request::Put {
                key: string(&mut r)?,
                value: field(&mut r)?.to_vec(),
                tags: strings(&mut r, MAX_TAGS)?,
            },
            2 => Request::Get { key: string(&mut r)? },
            3 => Request::Delete { key: string(&mut r)? },
            4 => Request::Stats,
            5 => Request::AddRule {
                spec_text: string(&mut r)?,
            },
            6 => Request::RemoveRule { rule_id: r.u64()? },
            7 => Request::ListRules,
            8 => Request::AttachTier {
                type_name: string(&mut r)?,
                label: string(&mut r)?,
                capacity: r.u64()?,
            },
            9 => Request::DetachTier { label: string(&mut r)? },
            10 => {
                let n = r.count(MAX_BATCH)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(PutItem {
                        key: string(&mut r)?,
                        value: field(&mut r)?.to_vec(),
                        tags: strings(&mut r, MAX_TAGS)?,
                    });
                }
                Request::MultiPut { items }
            }
            11 => Request::MultiGet {
                keys: strings(&mut r, MAX_BATCH)?,
            },
            12 => Request::MultiDelete {
                keys: strings(&mut r, MAX_BATCH)?,
            },
            op => return Err(invalid(format!("unknown request opcode {op}"))),
        };
        if !r.finished() {
            return Err(invalid("trailing bytes in request"));
        }
        Ok(req)
    }
}

impl Response {
    /// Encodes to a payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the payload to `out`; a `Batch` appends its parts in place.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(0),
            Response::PutOk { latency_ns } => {
                out.push(1);
                put_u64(out, *latency_ns);
            }
            Response::GetOk {
                value,
                latency_ns,
                served_by,
            } => {
                out.push(2);
                put_bytes(out, value);
                put_u64(out, *latency_ns);
                put_str(out, served_by);
            }
            Response::Deleted { latency_ns } => {
                out.push(3);
                put_u64(out, *latency_ns);
            }
            Response::Stats {
                objects,
                reads,
                writes,
                events,
            } => {
                out.push(4);
                for v in [objects, reads, writes, events] {
                    put_u64(out, *v);
                }
            }
            Response::Error { message } => {
                out.push(5);
                put_str(out, message);
            }
            Response::Ok => out.push(6),
            Response::RuleAdded { rule_id } => {
                out.push(7);
                put_u64(out, *rule_id);
            }
            Response::Rules { rules } => {
                out.push(8);
                put_u32(out, rules.len() as u32);
                for (id, label) in rules {
                    put_u64(out, *id);
                    put_str(out, label);
                }
            }
            Response::Batch { parts } => {
                out.push(9);
                put_u32(out, parts.len() as u32);
                for part in parts {
                    part.encode_into(out);
                }
            }
        }
    }

    /// Decodes from a payload.
    pub fn decode(buf: &[u8]) -> io::Result<Response> {
        let mut r = Reader::new(buf);
        let resp = Self::decode_one(&mut r, true)?;
        if !r.finished() {
            return Err(invalid("trailing bytes in response"));
        }
        Ok(resp)
    }

    /// Decodes one response at the reader. Parts are self-describing, so a
    /// `Batch` decodes its parts recursively — exactly one level deep
    /// (`allow_batch` is false for parts, so `Batch` inside `Batch` is a
    /// wire error, bounding recursion).
    fn decode_one(r: &mut Reader<'_>, allow_batch: bool) -> io::Result<Response> {
        let resp = match r.u8()? {
            0 => Response::Pong,
            1 => Response::PutOk {
                latency_ns: r.u64()?,
            },
            2 => Response::GetOk {
                value: field(r)?.to_vec(),
                latency_ns: r.u64()?,
                served_by: string(r)?,
            },
            3 => Response::Deleted {
                latency_ns: r.u64()?,
            },
            4 => Response::Stats {
                objects: r.u64()?,
                reads: r.u64()?,
                writes: r.u64()?,
                events: r.u64()?,
            },
            5 => Response::Error {
                message: string(r)?,
            },
            6 => Response::Ok,
            7 => Response::RuleAdded { rule_id: r.u64()? },
            8 => {
                let n = r.count(MAX_RULES)?;
                let mut rules = Vec::with_capacity(n);
                for _ in 0..n {
                    rules.push((r.u64()?, string(r)?));
                }
                Response::Rules { rules }
            }
            9 if allow_batch => {
                let n = r.count(MAX_BATCH)?;
                let mut parts = Vec::with_capacity(n);
                for _ in 0..n {
                    parts.push(Self::decode_one(r, false)?);
                }
                Response::Batch { parts }
            }
            9 => return Err(invalid("nested batch response")),
            op => return Err(invalid(format!("unknown response opcode {op}"))),
        };
        Ok(resp)
    }
}

/// Reads a frame, enforcing [`MAX_FRAME`]. Returns `None` on clean EOF at a
/// frame boundary.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(invalid("frame too big"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---- v2 handshake ----

/// Writes a hello message: `[MAGIC][version]`, both `u32` little-endian.
/// Sent by a client as its first bytes; echoed by the server with the
/// granted version.
pub fn write_hello<W: Write>(w: &mut W, version: u32) -> io::Result<()> {
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&version.to_le_bytes())?;
    w.flush()
}

/// Reads a hello message, validating the magic. Returns the peer's
/// version. Fails with `InvalidData` if the magic is wrong (e.g. the peer
/// answers with a frame instead of a hello).
pub fn read_hello<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    let mut hello = Reader::new(&buf);
    if hello.u32()? != MAGIC {
        return Err(invalid("peer does not speak the pipelined protocol (bad hello magic)"));
    }
    Ok(hello.u32()?)
}

/// The version a server grants a client that asked for `want` (flags
/// masked off): the highest version both sides speak. `want` below 2 is
/// unsatisfiable and yields 0, meaning "refused".
pub fn negotiate(want: u32) -> u32 {
    let want = want & !LOCKSTEP;
    if want < 2 {
        0
    } else {
        want.min(VERSION)
    }
}

// ---- v2 sequenced frames ----

/// Appends a sequenced frame (`u32` length, `u64` sequence number,
/// payload) to `w` **without flushing** — callers batch several frames and
/// flush once (write coalescing is the point of the pipelined framing).
pub fn write_seq_frame<W: Write>(w: &mut W, seq: u64, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() + SEQ_PREFIX;
    if len > MAX_FRAME {
        return Err(invalid("frame too big"));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&seq.to_le_bytes())?;
    w.write_all(payload)
}

/// Splits a v2 frame payload into its sequence number and message bytes.
pub fn split_seq(frame: &[u8]) -> io::Result<(u64, &[u8])> {
    let mut r = Reader::new(frame);
    let seq = r.u64().map_err(|_| invalid("frame too short for a sequence number"))?;
    Ok((seq, r.take(r.remaining())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let enc = req.encode();
        assert_eq!(Request::decode(&enc).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let enc = resp.encode();
        assert_eq!(Response::decode(&enc).unwrap(), resp);
    }

    #[test]
    fn reconfiguration_roundtrips() {
        roundtrip_req(Request::AddRule {
            spec_text: "event(insert.into) : response { store(what: insert.object, to: t1); }"
                .into(),
        });
        roundtrip_req(Request::RemoveRule { rule_id: 42 });
        roundtrip_req(Request::ListRules);
        roundtrip_req(Request::AttachTier {
            type_name: "S3".into(),
            label: "backup".into(),
            capacity: 10 << 30,
        });
        roundtrip_req(Request::DetachTier { label: "ebs".into() });
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::RuleAdded { rule_id: 7 });
        roundtrip_resp(Response::Rules {
            rules: vec![(1, "placement".into()), (2, "spec line 4".into())],
        });
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Put {
            key: "k".into(),
            value: vec![1, 2, 3],
            tags: vec!["tmp".into(), "hot".into()],
        });
        roundtrip_req(Request::Get { key: "key/with/slashes".into() });
        roundtrip_req(Request::Delete { key: "".into() });
        roundtrip_req(Request::Stats);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Pong);
        roundtrip_resp(Response::PutOk { latency_ns: 12345 });
        roundtrip_resp(Response::GetOk {
            value: (0..=255).collect(),
            latency_ns: u64::MAX,
            served_by: "tier1".into(),
        });
        roundtrip_resp(Response::Deleted { latency_ns: 0 });
        roundtrip_resp(Response::Stats {
            objects: 1,
            reads: 2,
            writes: 3,
            events: 4,
        });
        roundtrip_resp(Response::Error {
            message: "tier full".into(),
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[99]).is_err(), "unknown opcode");
        assert!(Request::decode(&[]).is_err(), "empty");
        // Trailing bytes after a valid message.
        let mut enc = Request::Ping.encode();
        enc.push(0);
        assert!(Request::decode(&enc).is_err());
        // Truncated string field.
        let enc = Request::Get { key: "abcdef".into() }.encode();
        assert!(Request::decode(&enc[..enc.len() - 2]).is_err());
    }

    #[test]
    fn frame_roundtrip_and_eof() {
        let buf = [&5u32.to_le_bytes()[..], b"hello", &0u32.to_le_bytes()].concat();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn multi_request_roundtrips() {
        roundtrip_req(Request::MultiPut {
            items: vec![
                PutItem {
                    key: "a".into(),
                    value: vec![1, 2],
                    tags: vec!["tmp".into()],
                },
                PutItem {
                    key: "b".into(),
                    value: Vec::new(),
                    tags: Vec::new(),
                },
            ],
        });
        roundtrip_req(Request::MultiGet {
            keys: vec!["a".into(), "".into(), "c/d".into()],
        });
        roundtrip_req(Request::MultiDelete { keys: Vec::new() });
    }

    #[test]
    fn batch_response_roundtrips_with_partial_failure() {
        roundtrip_resp(Response::Batch {
            parts: vec![
                Response::PutOk { latency_ns: 1 },
                Response::Error {
                    message: "tier full".into(),
                },
                Response::GetOk {
                    value: vec![9; 32],
                    latency_ns: 2,
                    served_by: "mem".into(),
                },
                Response::Deleted { latency_ns: 3 },
            ],
        });
        roundtrip_resp(Response::Batch { parts: Vec::new() });
    }

    #[test]
    fn nested_batch_is_rejected() {
        let nested = Response::Batch {
            parts: vec![Response::Batch {
                parts: vec![Response::Pong],
            }],
        };
        assert!(Response::decode(&nested.encode()).is_err());
    }

    #[test]
    fn oversized_batch_counts_are_rejected_before_allocation() {
        // MultiGet claiming u32::MAX keys.
        let mut enc = vec![11u8];
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&enc).is_err());
        // Batch response claiming MAX_BATCH+1 parts.
        let mut enc = vec![9u8];
        enc.extend_from_slice(&((MAX_BATCH + 1) as u32).to_le_bytes());
        assert!(Response::decode(&enc).is_err());
    }

    #[test]
    fn hello_roundtrip_and_negotiation() {
        let mut buf = Vec::new();
        write_hello(&mut buf, VERSION).unwrap();
        assert_eq!(read_hello(&mut &buf[..]).unwrap(), VERSION);
        // A frame header where a hello is expected: magic mismatch.
        let frame = [&4u32.to_le_bytes()[..], b"ping"].concat();
        assert!(read_hello(&mut &frame[..]).is_err());
        assert_eq!(negotiate(2), 2);
        assert_eq!(negotiate(99), VERSION, "future clients clamp down");
        assert_eq!(negotiate(1), 0, "hello below v2 is refused");
        assert_eq!(negotiate(0), 0);
        assert_eq!(negotiate(VERSION | LOCKSTEP), VERSION, "the lockstep flag is not a version");
        assert_eq!(negotiate(1 | LOCKSTEP), 0);
    }

    #[test]
    fn magic_can_never_be_a_frame_length() {
        // Telling a hello from a bare frame, in both directions, depends on
        // this.
        assert!((MAGIC as usize) > MAX_FRAME);
    }

    #[test]
    fn seq_frame_roundtrip() {
        let mut buf = Vec::new();
        write_seq_frame(&mut buf, 7, b"payload").unwrap();
        write_seq_frame(&mut buf, u64::MAX, b"").unwrap();
        let mut r = &buf[..];
        let f1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(split_seq(&f1).unwrap(), (7, &b"payload"[..]));
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(split_seq(&f2).unwrap(), (u64::MAX, &b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);
        assert!(split_seq(b"short").is_err());
    }

    #[test]
    fn prop_put_roundtrip() {
        use tiera_support::prop::gen;
        tiera_support::prop_check!(cases = 64, |rng| {
            let key = gen::string_of(rng, "abcdefghijklmnopqrstuvwxyz0123456789/", 0..41);
            let value = gen::byte_vec(rng, 0..512);
            let tags = gen::vec_of(rng, 0..4, |rng| {
                gen::string_of(rng, "abcdefghijklmnopqrstuvwxyz", 1..9)
            });
            roundtrip_req(Request::Put { key, value, tags });
        });
    }

    #[test]
    fn prop_decode_never_panics() {
        tiera_support::prop_check!(cases = 128, |rng| {
            let bytes = tiera_support::prop::gen::byte_vec(rng, 0..256);
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        });
    }
}
