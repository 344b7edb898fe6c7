//! The seeded op stream and its read oracle.
//!
//! A workload's inputs are a pure function of its [`Shape`] and the seed:
//! which key each op touches, whether it reads or writes, and the bytes a
//! write carries. The system under test never sees the seed or the workload
//! name, only these ops.
//!
//! The oracle is a per-key *stamp*. Every payload starts with a 16-byte
//! header derived from `(key, stamp)`, so any GET can be checked against the
//! stamp the generator remembers, and the whole payload can be regenerated
//! for a byte-for-byte comparison.

use tiera_core::object::ObjectKey;
use tiera_support::rng::SimRng;
use tiera_workloads::dist::KeyChooser;

/// Keys fetched by one `multi_get`; the call counts as this many ops.
pub const MULTI_GET_KEYS: usize = 16;
/// Bytes of `(tag, stamp)` header at the front of every payload.
pub const HEADER_BYTES: usize = 16;
/// Distinct blocks in the [`Payload::Pool`] vocabulary.
pub const POOL_BLOCKS: u32 = 256;
/// One GET in this many compares every byte, not just the header.
pub const FULL_CHECK_EVERY: u64 = 16;

/// How keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// YCSB zipfian, θ = 0.99.
    Zipfian,
    /// Every key equally likely.
    Uniform,
}

/// What a write carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// Header `(key, version)` over incompressible filler; a PUT bumps the
    /// key's version, so no two payloads are ever equal.
    Patterned,
    /// One of [`POOL_BLOCKS`] text-like blocks, header `(block, 0)`; a PUT
    /// picks a block at random, so keys share content (what dedup collapses)
    /// and the content compresses (what lzss shrinks).
    Pool,
}

/// The fixed properties of a workload's op stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Distinct keys, all preloaded.
    pub keys: u32,
    /// Payload size.
    pub value_bytes: usize,
    /// Percentage of calls that are PUTs.
    pub put_pct: u32,
    /// Percentage of calls that are `multi_get`s of [`MULTI_GET_KEYS`] keys.
    pub multi_get_pct: u32,
    /// Key distribution.
    pub dist: Dist,
    /// Payload generator.
    pub payload: Payload,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Read one key.
    Get(u32),
    /// Overwrite one key (its stamp has already been advanced).
    Put(u32),
    /// Read [`MULTI_GET_KEYS`] keys in one call.
    MultiGet([u32; MULTI_GET_KEYS]),
}

impl Op {
    /// Ops this call counts for.
    pub fn weight(&self) -> u64 {
        match self {
            Op::MultiGet(_) => MULTI_GET_KEYS as u64,
            _ => 1,
        }
    }
}

/// The generator and the oracle.
pub struct Stream {
    shape: Shape,
    rng: SimRng,
    chooser: KeyChooser,
    stamps: Vec<u32>,
    /// `Patterned`: one run of random bytes that bodies are cut from.
    /// `Pool`: the blocks, concatenated.
    material: Vec<u8>,
    hash: u64,
    /// Key names, for string-keyed APIs.
    pub names: Vec<String>,
    /// The same keys, for `ObjectKey`-keyed APIs (a clone is a refcount bump).
    pub object_keys: Vec<ObjectKey>,
}

/// The pool and the filler are vocabulary, like the key names: the same for
/// every seed, so that the compression ratio is a property of the program
/// and not of the seed.
const MATERIAL_SEED: u64 = 0x7131_e2a0;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Stream {
    /// A stream in its post-preload state: every key at its initial stamp.
    pub fn new(shape: Shape, seed: u64) -> Self {
        let chooser = match shape.dist {
            Dist::Zipfian => KeyChooser::zipfian(shape.keys as u64),
            Dist::Uniform => KeyChooser::uniform(shape.keys as u64),
        };
        let (material, stamps) = match shape.payload {
            Payload::Patterned => (filler(shape.value_bytes), vec![1; shape.keys as usize]),
            Payload::Pool => (
                pool(shape.value_bytes),
                (0..shape.keys).map(|k| k % POOL_BLOCKS).collect(),
            ),
        };
        let names: Vec<String> = (0..shape.keys).map(|k| format!("user{k:012}")).collect();
        let object_keys = names.iter().map(ObjectKey::new).collect();
        Self {
            shape,
            rng: SimRng::new(seed),
            chooser,
            stamps,
            material,
            hash: FNV_OFFSET,
            names,
            object_keys,
        }
    }

    /// The shape this stream was built from.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// FNV-1a over every op generated so far (kind, key, stamp).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    fn mix(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.hash = (self.hash ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Draws the next op. A PUT advances the key's stamp here, so
    /// [`Stream::fill`] afterwards yields the bytes to write.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.next_below(100) as u32;
        if roll < self.shape.multi_get_pct {
            let mut keys = [0u32; MULTI_GET_KEYS];
            for k in &mut keys {
                *k = self.chooser.next(&mut self.rng) as u32;
                self.hash = (self.hash ^ *k as u64).wrapping_mul(FNV_PRIME);
            }
            self.mix(2);
            return Op::MultiGet(keys);
        }
        let key = self.chooser.next(&mut self.rng) as u32;
        if roll < self.shape.multi_get_pct + self.shape.put_pct {
            let stamp = match self.shape.payload {
                Payload::Patterned => self.stamps[key as usize] + 1,
                Payload::Pool => self.rng.next_below(POOL_BLOCKS as u64) as u32,
            };
            self.stamps[key as usize] = stamp;
            self.mix(1 | (key as u64) << 8 | (stamp as u64) << 40);
            Op::Put(key)
        } else {
            self.mix((key as u64) << 8);
            Op::Get(key)
        }
    }

    /// The stamp `key` currently holds (what a GET issued now must return).
    pub fn stamp(&self, key: u32) -> u32 {
        self.stamps[key as usize]
    }

    /// Writes the payload for `(key, stamp)` into `buf`.
    pub fn fill(&self, key: u32, stamp: u32, buf: &mut Vec<u8>) {
        buf.clear();
        let size = self.shape.value_bytes;
        match self.shape.payload {
            Payload::Patterned => {
                buf.extend_from_slice(&(key as u64).to_le_bytes());
                buf.extend_from_slice(&(stamp as u64).to_le_bytes());
                let off =
                    (key.wrapping_mul(31) ^ stamp.wrapping_mul(0x9e37)) as usize % FILLER_SLACK;
                buf.extend_from_slice(&self.material[off..off + size - HEADER_BYTES]);
            }
            Payload::Pool => {
                let at = stamp as usize * size;
                buf.extend_from_slice(&self.material[at..at + size]);
            }
        }
    }

    /// Whether `got` is the payload for `(key, stamp)`: the header always,
    /// every byte when `full`.
    pub fn check(
        &self,
        key: u32,
        stamp: u32,
        got: &[u8],
        full: bool,
        scratch: &mut Vec<u8>,
    ) -> bool {
        if got.len() != self.shape.value_bytes {
            return false;
        }
        let (tag, version) = match self.shape.payload {
            Payload::Patterned => (key as u64, stamp as u64),
            Payload::Pool => (POOL_TAG | stamp as u64, 0),
        };
        if got[..8] != tag.to_le_bytes() || got[8..16] != version.to_le_bytes() {
            return false;
        }
        if full {
            self.fill(key, stamp, scratch);
            return got == scratch.as_slice();
        }
        true
    }
}

/// Offsets a `Patterned` body may start at inside the filler.
const FILLER_SLACK: usize = 4096;
/// Marks a pool header so it cannot be mistaken for a key index.
const POOL_TAG: u64 = 0x706f_6f6c << 32;

fn filler(value_bytes: usize) -> Vec<u8> {
    let mut rng = SimRng::new(MATERIAL_SEED);
    (0..value_bytes + FILLER_SLACK)
        .map(|_| rng.next_u64() as u8)
        .collect()
}

/// [`POOL_BLOCKS`] blocks of words from a small vocabulary with runs of
/// random bytes between them: lzss finds real redundancy, but about a third
/// of each block is incompressible, as in a backup of mixed files.
fn pool(value_bytes: usize) -> Vec<u8> {
    let mut rng = SimRng::new(MATERIAL_SEED);
    let words: Vec<Vec<u8>> = (0..96)
        .map(|_| {
            let len = rng.next_range(3, 10) as usize;
            (0..len).map(|_| b'a' + rng.next_below(26) as u8).collect()
        })
        .collect();
    let mut out = Vec::with_capacity(POOL_BLOCKS as usize * value_bytes);
    for block in 0..POOL_BLOCKS {
        let end = out.len() + value_bytes;
        out.extend_from_slice(&(POOL_TAG | block as u64).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        while out.len() < end {
            if rng.chance(POOL_NOISE_SHARE) {
                for _ in 0..24 {
                    out.push(rng.next_u64() as u8);
                }
            } else {
                let w = &words[rng.next_below(words.len() as u64) as usize];
                out.extend_from_slice(w);
                out.push(b' ');
            }
        }
        out.truncate(end);
    }
    out
}

/// Chance that the next pool token is a 24-byte random run and not a word;
/// sets the lzss ratio of the pool at about 1.6.
const POOL_NOISE_SHARE: f64 = 0.10;

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        keys: 500,
        value_bytes: 256,
        put_pct: 30,
        multi_get_pct: 5,
        dist: Dist::Zipfian,
        payload: Payload::Patterned,
    };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let run = |seed| {
            let mut s = Stream::new(SHAPE, seed);
            let ops: Vec<Op> = (0..2000).map(|_| s.next_op()).collect();
            (ops, s.hash())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).1, run(4).1);
    }

    #[test]
    fn oracle_accepts_its_own_payloads_and_rejects_others() {
        for payload in [Payload::Patterned, Payload::Pool] {
            let mut s = Stream::new(Shape { payload, ..SHAPE }, 1);
            let (mut buf, mut scratch) = (Vec::new(), Vec::new());
            for _ in 0..500 {
                if let Op::Put(k) = s.next_op() {
                    let stamp = s.stamp(k);
                    s.fill(k, stamp, &mut buf);
                    assert_eq!(buf.len(), SHAPE.value_bytes);
                    assert!(s.check(k, stamp, &buf, true, &mut scratch));
                    assert!(
                        !s.check(k, stamp + 1, &buf, false, &mut scratch),
                        "stale stamp"
                    );
                    let last = buf.len() - 1;
                    buf[last] ^= 1;
                    assert!(
                        s.check(k, stamp, &buf, false, &mut scratch),
                        "header-only check"
                    );
                    assert!(!s.check(k, stamp, &buf, true, &mut scratch), "full check");
                    assert!(
                        !s.check(k, stamp, &buf[..last], false, &mut scratch),
                        "short read"
                    );
                }
            }
        }
    }
}
