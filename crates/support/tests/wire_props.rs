//! Properties of `tiera_support::wire`, the one byte reader under rpc
//! frames, metadata records, the fs manifest and metastore log headers.
//!
//! Writer → reader round-trips, and on arbitrary input every `Reader`
//! call returns `Ok` or `Err` — never panics, never reads past the end,
//! and `count(max)` refuses anything above `max`.

use tiera_support::prop::gen;
use tiera_support::prop_check;
use tiera_support::wire::{put_bytes, put_str, put_strs, put_u32, put_u64, Error, Reader};
use tiera_support::SimRng;

/// One value of every shape the writers produce.
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U8(u8),
    U32(u32),
    U64(u64),
    Bytes(Vec<u8>),
    Str(String),
    Strs(Vec<String>),
}

fn field(rng: &mut SimRng) -> Field {
    match rng.next_below(6) {
        0 => Field::U8(rng.next_u64() as u8),
        1 => Field::U32(rng.next_u64() as u32),
        2 => Field::U64(rng.next_u64()),
        3 => Field::Bytes(gen::byte_vec(rng, 0..64)),
        4 => Field::Str(gen::printable_ascii(rng, 0..24)),
        _ => Field::Strs(gen::vec_of(rng, 0..5, |rng| gen::string_of(rng, "aé字-", 0..8))),
    }
}

fn write(out: &mut Vec<u8>, f: &Field) {
    match f {
        Field::U8(v) => out.push(*v),
        Field::U32(v) => put_u32(out, *v),
        Field::U64(v) => put_u64(out, *v),
        Field::Bytes(b) => put_bytes(out, b),
        Field::Str(s) => put_str(out, s),
        Field::Strs(v) => put_strs(out, v),
    }
}

fn read(r: &mut Reader<'_>, like: &Field) -> Result<Field, Error> {
    Ok(match like {
        Field::U8(_) => Field::U8(r.u8()?),
        Field::U32(_) => Field::U32(r.u32()?),
        Field::U64(_) => Field::U64(r.u64()?),
        Field::Bytes(_) => Field::Bytes(r.bytes()?.to_vec()),
        Field::Str(_) => Field::Str(r.str()?.to_owned()),
        Field::Strs(_) => {
            let n = r.count(usize::MAX)?;
            Field::Strs((0..n).map(|_| r.str().map(str::to_owned)).collect::<Result<_, _>>()?)
        }
    })
}

#[test]
fn prop_writer_then_reader_roundtrips() {
    prop_check!(cases = 256, |rng| {
        let fields = gen::vec_of(rng, 0..12, field);
        // A reused buffer with bytes already in it: writers append.
        let mut out = gen::byte_vec(rng, 0..8);
        let prefix = out.len();
        for f in &fields {
            write(&mut out, f);
        }
        let mut r = Reader::new(&out);
        assert_eq!(r.take(prefix).unwrap().len(), prefix);
        for f in &fields {
            assert_eq!(read(&mut r, f).as_ref(), Ok(f));
        }
        assert!(r.finished() && r.remaining() == 0);
        assert_eq!(r.u8(), Err(Error::Truncated), "nothing past the end");
        // Without its last byte the same fields do not all read back.
        if !fields.is_empty() {
            let mut r = Reader::new(&out[..out.len() - 1]);
            r.take(prefix).unwrap();
            assert!(fields.iter().map(|f| read(&mut r, f)).any(|got| got.is_err()));
        }
    });
}

#[test]
fn prop_reader_on_random_input_is_total_and_in_bounds() {
    prop_check!(cases = 512, |rng| {
        let input = gen::byte_vec(rng, 0..48);
        let mut r = Reader::new(&input);
        let mut consumed = 0;
        for _ in 0..16 {
            let before = r.remaining();
            let ok = match rng.next_below(9) {
                0 => r.u8().is_ok(),
                1 => r.u32().is_ok(),
                2 => r.u64().is_ok(),
                3 => r.array::<5>().is_ok(),
                4 => r.take(gen::usize_in(rng, 0..64)).is_ok(),
                5 => r.bytes().is_ok(),
                6 => r.str().is_ok(),
                7 => {
                    let max = gen::usize_in(rng, 0..300);
                    match r.count(max) {
                        Ok(n) => {
                            assert!(n <= max, "count {n} above its cap {max}");
                            true
                        }
                        Err(_) => false,
                    }
                }
                _ => {
                    assert_eq!(r.finished(), r.remaining() == 0);
                    true
                }
            };
            assert!(r.remaining() <= before, "a read moved backwards");
            consumed += before - r.remaining();
            assert!(consumed <= input.len(), "read past the end");
            if !ok {
                break;
            }
        }
    });
}

#[test]
fn count_refuses_above_its_cap_and_bytes_refuse_a_length_past_the_end() {
    let mut buf = Vec::new();
    put_u32(&mut buf, 1025);
    assert_eq!(Reader::new(&buf).count(1024), Err(Error::TooMany));
    assert_eq!(Reader::new(&buf).count(1025), Ok(1025));
    // A length of u32::MAX over three bytes: refused, nothing allocated.
    let mut buf = Vec::new();
    put_u32(&mut buf, u32::MAX);
    buf.extend_from_slice(b"abc");
    assert_eq!(Reader::new(&buf).bytes(), Err(Error::Truncated));
    let mut buf = Vec::new();
    put_bytes(&mut buf, &[0xff, 0xfe]);
    assert_eq!(Reader::new(&buf).str(), Err(Error::NotUtf8));
    assert_eq!(Reader::new(&buf).bytes(), Ok(&[0xff, 0xfe][..]));
    // The io boundary: every read error is InvalidData.
    let e: std::io::Error = Error::Truncated.into();
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
}
