//! Protocol fuzz + property tests (ISSUE 6 satellite 1).
//!
//! Two families, mirroring the spec-parser fuzz from PR 2:
//!
//! * **Round-trip properties**: for every `Request` and `Response` variant
//!   — including the `Multi*` batch frames and `Batch` with partial
//!   failure — `decode(encode(m)) == m` and the re-encoding is
//!   byte-identical. Encodings are canonical: there is exactly one byte
//!   string per message.
//! * **Decoder-never-panics fuzz**: the decoders, the frame reader, the
//!   hello reader, and the sequence splitter must return `Err`/`Ok` on
//!   every input — truncations at every prefix length, single-byte
//!   corruptions, pure random bytes, and adversarial length/count fields —
//!   never panic and never allocate proportionally to an attacker-chosen
//!   count. (The hermetic source lint separately asserts `proto.rs` has no
//!   `unwrap`/`panic!` outside its test module.)

use tiera_rpc::proto::{
    negotiate, read_frame, read_hello, split_seq, write_hello, write_seq_frame, PutItem, Request,
    Response, MAGIC, MAX_BATCH, MAX_FRAME, SEQ_PREFIX, VERSION,
};
use tiera_support::prop::gen;
use tiera_support::{prop_check, SimRng};

const KEY_ALPHABET: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_-.";

fn arb_key(rng: &mut SimRng) -> String {
    gen::string_of(rng, KEY_ALPHABET, 0..33)
}

fn arb_tags(rng: &mut SimRng) -> Vec<String> {
    gen::vec_of(rng, 0..5, |rng| gen::string_of(rng, KEY_ALPHABET, 1..9))
}

fn arb_put_item(rng: &mut SimRng) -> PutItem {
    PutItem { key: arb_key(rng), value: gen::byte_vec(rng, 0..129), tags: arb_tags(rng) }
}

/// A random request covering every variant (opcodes 0..=12).
fn arb_request(rng: &mut SimRng) -> Request {
    match gen::usize_in(rng, 0..13) {
        0 => Request::Ping,
        1 => Request::Put {
            key: arb_key(rng),
            value: gen::byte_vec(rng, 0..257),
            tags: arb_tags(rng),
        },
        2 => Request::Get { key: arb_key(rng) },
        3 => Request::Delete { key: arb_key(rng) },
        4 => Request::Stats,
        5 => Request::AddRule { spec_text: gen::printable_ascii(rng, 0..129) },
        6 => Request::RemoveRule { rule_id: rng.next_u64() },
        7 => Request::ListRules,
        8 => Request::AttachTier {
            type_name: arb_key(rng),
            label: arb_key(rng),
            capacity: rng.next_u64(),
        },
        9 => Request::DetachTier { label: arb_key(rng) },
        10 => Request::MultiPut { items: gen::vec_of(rng, 0..9, arb_put_item) },
        11 => Request::MultiGet { keys: gen::vec_of(rng, 0..9, arb_key) },
        _ => Request::MultiDelete { keys: gen::vec_of(rng, 0..9, arb_key) },
    }
}

/// A random non-batch response (a legal `Batch` part).
fn arb_part(rng: &mut SimRng) -> Response {
    let n = gen::usize_in(rng, 0..8);
    part_for(rng, n)
}

fn part_for(rng: &mut SimRng, n: usize) -> Response {
    match n {
        0 => Response::Pong,
        1 => Response::PutOk { latency_ns: rng.next_u64() },
        2 => Response::GetOk {
            value: gen::byte_vec(rng, 0..257),
            latency_ns: rng.next_u64(),
            served_by: arb_key(rng),
        },
        3 => Response::Deleted { latency_ns: rng.next_u64() },
        4 => Response::Stats {
            objects: rng.next_u64(),
            reads: rng.next_u64(),
            writes: rng.next_u64(),
            events: rng.next_u64(),
        },
        5 => Response::Error { message: gen::printable_ascii(rng, 0..65) },
        6 => Response::Ok,
        _ => Response::RuleAdded { rule_id: rng.next_u64() },
    }
}

/// A random response covering every variant (opcodes 0..=9).
fn arb_response(rng: &mut SimRng) -> Response {
    match gen::usize_in(rng, 0..10) {
        n @ 0..=7 => part_for(rng, n),
        8 => {
            Response::Rules { rules: gen::vec_of(rng, 0..9, |rng| (rng.next_u64(), arb_key(rng))) }
        }
        _ => Response::Batch { parts: gen::vec_of(rng, 0..9, arb_part) },
    }
}

#[test]
fn prop_request_roundtrip_byte_identical() {
    prop_check!(cases = 256, |rng| {
        let req = arb_request(rng);
        let enc = req.encode();
        let dec = Request::decode(&enc).unwrap_or_else(|e| panic!("decode {req:?}: {e}"));
        assert_eq!(dec, req);
        assert_eq!(dec.encode(), enc, "re-encoding must be byte-identical");
    });
}

#[test]
fn prop_response_roundtrip_byte_identical() {
    prop_check!(cases = 256, |rng| {
        let resp = arb_response(rng);
        let enc = resp.encode();
        let dec = Response::decode(&enc).unwrap_or_else(|e| panic!("decode {resp:?}: {e}"));
        assert_eq!(dec, resp);
        assert_eq!(dec.encode(), enc, "re-encoding must be byte-identical");
    });
}

#[test]
fn prop_batch_with_partial_failure_roundtrips() {
    prop_check!(cases = 64, |rng| {
        // Interleave successes and failures so per-item outcomes survive
        // the wire in order.
        let parts = gen::vec_of(rng, 1..17, |rng| {
            if gen::boolean(rng) {
                Response::Error { message: gen::printable_ascii(rng, 0..33) }
            } else {
                arb_part(rng)
            }
        });
        let resp = Response::Batch { parts };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    });
}

#[test]
fn prop_decode_rejects_every_truncation() {
    // Every strict prefix of a valid encoding must fail to decode (the
    // format is self-delimiting with a trailing-bytes check), and must not
    // panic.
    prop_check!(cases = 64, |rng| {
        let enc = arb_request(rng).encode();
        for cut in 0..enc.len() {
            assert!(
                Request::decode(&enc[..cut]).is_err(),
                "prefix of length {cut} of {enc:?} decoded"
            );
        }
        let enc = arb_response(rng).encode();
        for cut in 0..enc.len() {
            assert!(Response::decode(&enc[..cut]).is_err());
        }
    });
}

#[test]
fn prop_decode_survives_single_byte_corruption() {
    // Flipping any one byte must yield Ok or Err — never a panic. (Some
    // corruptions still decode, e.g. a flipped value byte; that's fine.)
    prop_check!(cases = 64, |rng| {
        let enc = arb_request(rng).encode();
        if enc.is_empty() {
            return;
        }
        let pos = gen::usize_in(rng, 0..enc.len());
        let bit = 1u8 << gen::usize_in(rng, 0..8);
        let mut corrupt = enc.clone();
        corrupt[pos] ^= bit;
        let _ = Request::decode(&corrupt);
        let _ = Response::decode(&corrupt);
    });
}

#[test]
fn prop_decode_never_panics_on_random_bytes() {
    prop_check!(cases = 512, |rng| {
        let bytes = gen::byte_vec(rng, 0..513);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = split_seq(&bytes);
        let _ = read_hello(&mut &bytes[..]);
        let _ = read_frame(&mut &bytes[..]);
    });
}

#[test]
fn prop_decode_with_plausible_opcode_never_panics() {
    // Random bytes almost always die on the opcode; force a valid opcode
    // so the field decoders see the garbage.
    prop_check!(cases = 512, |rng| {
        let mut bytes = gen::byte_vec(rng, 1..257);
        bytes[0] = gen::usize_in(rng, 0..13) as u8;
        let _ = Request::decode(&bytes);
        bytes[0] = gen::usize_in(rng, 0..10) as u8;
        let _ = Response::decode(&bytes);
    });
}

#[test]
fn adversarial_length_fields_fail_before_allocation() {
    // A frame/field/count limit must reject a hostile length before any
    // `Vec::with_capacity` scales with it. These inputs are tiny; if the
    // decoder allocated what the length claims, the test would OOM.
    for op in [1u8, 2, 3, 5, 9] {
        // String/bytes field claiming MAX_FRAME+1 bytes.
        let mut enc = vec![op];
        enc.extend_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
        assert!(Request::decode(&enc).is_err(), "op {op}");
    }
    for op in [10u8, 11, 12] {
        // Batch count claiming u32::MAX items.
        let mut enc = vec![op];
        enc.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&enc).is_err(), "op {op}");
        // ... and exactly MAX_BATCH+1 (boundary).
        let mut enc = vec![op];
        enc.extend_from_slice(&((MAX_BATCH + 1) as u32).to_le_bytes());
        assert!(Request::decode(&enc).is_err(), "op {op} boundary");
    }
    // Put with a hostile tag count.
    let mut enc = vec![1u8];
    enc.extend_from_slice(&0u32.to_le_bytes()); // key ""
    enc.extend_from_slice(&0u32.to_le_bytes()); // value []
    enc.extend_from_slice(&u32::MAX.to_le_bytes()); // tags: 4 billion
    assert!(Request::decode(&enc).is_err());
    // Rules response with a hostile rule count.
    let mut enc = vec![8u8];
    enc.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(Response::decode(&enc).is_err());
    // Batch response with a hostile part count.
    let mut enc = vec![9u8];
    enc.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(Response::decode(&enc).is_err());
    // Oversized frame length on the wire.
    let header = ((MAX_FRAME + 1) as u32).to_le_bytes();
    assert!(read_frame(&mut &header[..]).is_err());
}

#[test]
fn invalid_utf8_in_string_fields_is_rejected() {
    let mut enc = vec![2u8]; // Get
    enc.extend_from_slice(&2u32.to_le_bytes());
    enc.extend_from_slice(&[0xFF, 0xFE]);
    let err = Request::decode(&enc).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn nested_batch_depth_is_bounded() {
    // Hand-encode Batch[Batch[Pong]]: count=1, then opcode 9 again. The
    // one-level recursion bound must reject it (a recursive decoder with
    // no bound would accept arbitrarily deep nesting → stack overflow).
    let mut enc = vec![9u8];
    enc.extend_from_slice(&1u32.to_le_bytes());
    enc.push(9);
    enc.extend_from_slice(&1u32.to_le_bytes());
    enc.push(0); // Pong
    assert!(Response::decode(&enc).is_err());
}

#[test]
fn prop_hello_fuzz() {
    // read_hello on arbitrary 8-byte words: Ok only when the first word is
    // exactly MAGIC.
    prop_check!(cases = 256, |rng| {
        let word = if gen::boolean(rng) { MAGIC } else { rng.next_u64() as u32 };
        let version = rng.next_u64() as u32;
        let mut buf = Vec::new();
        buf.extend_from_slice(&word.to_le_bytes());
        buf.extend_from_slice(&version.to_le_bytes());
        match read_hello(&mut &buf[..]) {
            Ok(v) => {
                assert_eq!(word, MAGIC);
                assert_eq!(v, version);
            }
            Err(_) => assert_ne!(word, MAGIC),
        }
        // Truncated hellos always fail.
        for cut in 0..8 {
            assert!(read_hello(&mut &buf[..cut]).is_err());
        }
    });
}

#[test]
fn prop_seq_frame_fuzz() {
    prop_check!(cases = 128, |rng| {
        let seq = rng.next_u64();
        let payload = gen::byte_vec(rng, 0..257);
        let mut buf = Vec::new();
        write_seq_frame(&mut buf, seq, &payload).unwrap();
        let frame = read_frame(&mut &buf[..]).unwrap().unwrap();
        let (got_seq, got_payload) = split_seq(&frame).unwrap();
        assert_eq!(got_seq, seq);
        assert_eq!(got_payload, &payload[..]);
        // Anything shorter than the prefix fails cleanly.
        let short = gen::usize_in(rng, 0..SEQ_PREFIX);
        assert!(split_seq(&frame[..short]).is_err());
    });
}

#[test]
fn hello_and_negotiation_sanity() {
    let mut buf = Vec::new();
    write_hello(&mut buf, VERSION).unwrap();
    assert_eq!(read_hello(&mut &buf[..]).unwrap(), VERSION);
    // A bare frame can never be mistaken for a hello, and vice versa:
    // MAGIC is above MAX_FRAME.
    let frame = [&1u32.to_le_bytes()[..], b"x"].concat();
    assert!(read_hello(&mut &frame[..]).is_err());
    assert!((MAGIC as usize) > MAX_FRAME);
    assert_eq!(negotiate(VERSION), VERSION);
    assert_eq!(negotiate(u32::MAX), VERSION);
    assert_eq!(negotiate(1), 0);
}
