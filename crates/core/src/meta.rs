//! Per-object metadata.
//!
//! Paper §2.1: "Tiera tracks the common attributes or metadata for each
//! object: size, access frequency, dirty flag, location (i.e. which tiers),
//! and time of last access. In addition, each Tiera object may also be
//! assigned a set of tags."
//!
//! Metadata is encoded in a small binary record, read and written with the
//! workspace's one byte codec ([`tiera_support::wire`]), so it can be
//! persisted in the embedded metadata store (`tiera-metastore`), mirroring
//! the paper's use of BerkeleyDB.
//!
//! The in-memory record is kept small because there is one per object and
//! it lives beside the most expensive tier: locations are an inline
//! [`TierSet`] of interned ids, and the rarely-set attributes (tags,
//! content digest, encryption key id, a stored size that differs from the
//! logical one) sit behind one optional box, so the common record is
//! [`ObjectMeta`]'s 56 bytes with no heap behind it and cloning it is a
//! copy. The encoded form carries names, not ids, and the access count and
//! stored size at full width.

use std::collections::BTreeSet;
use std::fmt;

use tiera_codec::Digest;
use tiera_sim::SimTime;
use tiera_support::wire::{self, put_str, put_strs, put_u64, Reader};

use crate::object::Tag;
use crate::tier::{TierId, MAX_TIER_NAMES};

/// How many tiers a [`TierSet`] holds without a heap allocation.
const INLINE_TIERS: usize = 4;

/// The set of tiers holding an object.
///
/// A set of interned [`TierId`]s kept sorted by tier *name* — not by id,
/// which depends on intern order — so iteration, `Debug` output and the
/// encoded form are ordered as a sorted set of the names would be. Up to
/// four members live inline; larger sets spill to the heap.
#[derive(Clone)]
pub struct TierSet(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, ids: [TierId; INLINE_TIERS] },
    // A thin pointer keeps `TierSet` at 16 bytes; the double hop is paid
    // only by objects in more than four tiers.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<TierId>>),
}

impl TierSet {
    /// The empty set.
    pub fn new() -> Self {
        TierSet(Repr::Inline { len: 0, ids: [TierId::UNSET; INLINE_TIERS] })
    }

    /// The members, in name order.
    pub fn as_slice(&self) -> &[TierId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..*len as usize],
            Repr::Spilled(ids) => ids,
        }
    }

    /// Iterates the members in name order.
    pub fn iter(&self) -> std::slice::Iter<'_, TierId> {
        self.as_slice().iter()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the tier called `name` is a member. Compares names, so it
    /// never consults the intern table.
    pub fn contains(&self, name: &str) -> bool {
        self.iter().any(|id| id.name() == name)
    }

    /// Whether `id` is a member.
    pub fn contains_id(&self, id: TierId) -> bool {
        self.as_slice().contains(&id)
    }

    /// Adds the tier called `name`, interning it; returns whether it was
    /// absent. Panics if the process-wide name table is full (see
    /// [`TierId::from`]).
    pub fn insert(&mut self, name: String) -> bool {
        self.insert_id(TierId::from(name.as_str()))
    }

    /// Adds `id`; returns whether it was absent.
    pub fn insert_id(&mut self, id: TierId) -> bool {
        let at = match self.as_slice().binary_search_by(|m| m.name().cmp(id.name())) {
            Ok(_) => return false,
            Err(at) => at,
        };
        match &mut self.0 {
            Repr::Inline { len, ids } if (*len as usize) < INLINE_TIERS => {
                ids.copy_within(at..*len as usize, at + 1);
                ids[at] = id;
                *len += 1;
            }
            Repr::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_TIERS);
                spilled.extend_from_slice(ids);
                spilled.insert(at, id);
                self.0 = Repr::Spilled(Box::new(spilled));
            }
            Repr::Spilled(ids) => ids.insert(at, id),
        }
        true
    }

    /// Removes the tier called `name`; returns whether it was a member.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.len();
        self.retain(|id| id.name() != name);
        self.len() != before
    }

    /// Keeps only the members `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(TierId) -> bool) {
        match &mut self.0 {
            Repr::Inline { len, ids } => {
                let mut kept = 0;
                for i in 0..*len as usize {
                    if keep(ids[i]) {
                        ids[kept] = ids[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Spilled(ids) => ids.retain(|id| keep(*id)),
        }
    }
}

impl PartialEq for TierSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for TierSet {}

impl Default for TierSet {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for TierSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a TierSet {
    type Item = &'a TierId;
    type IntoIter = std::slice::Iter<'a, TierId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<TierId> for TierSet {
    fn from_iter<I: IntoIterator<Item = TierId>>(iter: I) -> Self {
        let mut set = TierSet::new();
        for id in iter {
            set.insert_id(id);
        }
        set
    }
}

/// The attributes few objects carry, boxed so the rest pay eight bytes for
/// them. Invariant: `ObjectMeta::rare` is `None` when all four are empty,
/// which keeps derived equality meaningful.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Rare {
    tags: BTreeSet<Tag>,
    digest: Option<Digest>,
    encryption_key_id: Option<String>,
    /// The stored size, only when it differs from the logical size
    /// (after a `compress` response, say).
    stored_size: Option<u64>,
}

/// Metadata tracked for every object in a Tiera instance.
#[derive(Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Logical (uncompressed, unencrypted) size in bytes. The stored size
    /// ([`stored_size`](Self::stored_size)) follows it unless set apart.
    pub size: u64,
    /// Number of accesses (PUT + GET) since creation, saturating at
    /// `u32::MAX`.
    pub access_count: u32,
    /// Virtual time of the last access.
    pub last_access: SimTime,
    /// Virtual time of creation.
    pub created: SimTime,
    /// The tiers currently holding the object.
    pub locations: TierSet,
    /// Tags, content digest, encryption key id and a stored size apart
    /// from `size`, when any is set.
    rare: Option<Box<Rare>>,
    /// Whether the object has been modified since it was last copied to a
    /// persistent tier (drives write-back policies, paper Fig 3).
    pub dirty: bool,
    /// Whether the stored payload is compressed.
    pub compressed: bool,
    /// Whether the stored payload is encrypted.
    pub encrypted: bool,
}

impl fmt::Debug for ObjectMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectMeta")
            .field("size", &self.size)
            .field("stored_size", &self.stored_size())
            .field("access_count", &self.access_count)
            .field("dirty", &self.dirty)
            .field("locations", &self.locations)
            .field("last_access", &self.last_access)
            .field("created", &self.created)
            .field("tags", self.tags())
            .field("digest", &self.digest())
            .field("compressed", &self.compressed)
            .field("encrypted", &self.encrypted)
            .field("encryption_key_id", &self.encryption_key_id())
            .finish()
    }
}

// One of these exists per stored object, beside the fast tier's bytes.
const _: () = assert!(std::mem::size_of::<TierSet>() <= 16);
const _: () = assert!(std::mem::size_of::<ObjectMeta>() <= 56);

/// No tags: what [`ObjectMeta::tags`] lends when nothing rare is set.
static NO_TAGS: BTreeSet<Tag> = BTreeSet::new();

impl ObjectMeta {
    /// Fresh metadata for an object of `size` bytes created at `now`.
    pub fn new(size: u64, now: SimTime) -> Self {
        Self {
            size,
            access_count: 0,
            last_access: now,
            created: now,
            locations: TierSet::new(),
            rare: None,
            dirty: false,
            compressed: false,
            encrypted: false,
        }
    }

    /// Records an access at `now`.
    pub fn touch(&mut self, now: SimTime) {
        self.access_count = self.access_count.saturating_add(1);
        self.last_access = now;
    }

    /// Access frequency in accesses per simulated second since creation.
    ///
    /// Used by hot/cold placement policies (paper §2.3: "access frequency
    /// can be used for easy specification of hot and cold objects").
    pub fn access_frequency(&self, now: SimTime) -> f64 {
        let age = now.since(self.created).as_secs_f64().max(1e-9);
        f64::from(self.access_count) / age
    }

    /// Stored size in bytes: `size` unless the stored bytes differ from
    /// the logical ones (after compression, say).
    pub fn stored_size(&self) -> u64 {
        self.rare.as_ref().and_then(|r| r.stored_size).unwrap_or(self.size)
    }

    /// Sets the stored size. One apart from `size` lives in the rare box,
    /// so it costs an object without other rare attributes that box.
    pub fn set_stored_size(&mut self, stored_size: u64) {
        let apart = (stored_size != self.size).then_some(stored_size);
        if apart.is_some() || self.rare.is_some() {
            self.edit_rare(|r| r.stored_size = apart);
        }
    }

    /// Tags (object classes) assigned at PUT time.
    pub fn tags(&self) -> &BTreeSet<Tag> {
        self.rare.as_ref().map_or(&NO_TAGS, |r| &r.tags)
    }

    /// Replaces the tag set.
    pub fn set_tags(&mut self, tags: impl IntoIterator<Item = Tag>) {
        let tags: BTreeSet<Tag> = tags.into_iter().collect();
        self.edit_rare(|r| r.tags = tags);
    }

    /// Content digest, present when the object was stored via `storeOnce`.
    pub fn digest(&self) -> Option<Digest> {
        self.rare.as_ref().and_then(|r| r.digest)
    }

    /// Sets or clears the content digest.
    pub fn set_digest(&mut self, digest: Option<Digest>) {
        self.edit_rare(|r| r.digest = digest);
    }

    /// Key-ring identifier of the key the payload is encrypted with.
    pub fn encryption_key_id(&self) -> Option<&str> {
        self.rare.as_ref().and_then(|r| r.encryption_key_id.as_deref())
    }

    /// Sets or clears the encryption key id.
    pub fn set_encryption_key_id(&mut self, key_id: Option<String>) {
        self.edit_rare(|r| r.encryption_key_id = key_id);
    }

    /// Applies `edit` to the rare attributes, allocating the box only when
    /// something is set and freeing it when nothing is left.
    fn edit_rare(&mut self, edit: impl FnOnce(&mut Rare)) {
        let mut rare = self.rare.take().map_or_else(Rare::default, |boxed| *boxed);
        edit(&mut rare);
        if rare != Rare::default() {
            self.rare = Some(Box::new(rare));
        }
    }

    /// Whether the object carries `tag`.
    pub fn has_tag(&self, tag: &Tag) -> bool {
        self.tags().contains(tag)
    }

    /// Whether the object is stored in `tier`.
    pub fn in_tier(&self, tier: &str) -> bool {
        self.locations.contains(tier)
    }

    // ---- binary codec (persisted via tiera-metastore) ----

    /// Encodes the metadata to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoding to `out` — the form for a caller that keeps
    /// one buffer and encodes record after record into it.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.size);
        put_u64(out, self.stored_size());
        put_u64(out, u64::from(self.access_count));
        put_u64(out, self.last_access.as_nanos());
        put_u64(out, self.created.as_nanos());
        let digest = self.digest();
        let flags = (self.dirty as u8)
            | (self.compressed as u8) << 1
            | (self.encrypted as u8) << 2
            | ((digest.is_some() as u8) << 3);
        out.push(flags);
        if let Some(d) = &digest {
            out.extend_from_slice(&d.0);
        }
        put_strs(out, self.locations.iter().map(|id| id.name()));
        put_strs(out, self.tags().iter().map(|t| t.as_str()));
        match self.encryption_key_id() {
            Some(id) => {
                out.push(1);
                put_str(out, id);
            }
            None => out.push(0),
        }
    }

    /// Decodes metadata produced by [`encode`](Self::encode). An access
    /// count above `u32::MAX` saturates.
    ///
    /// Location names are interned here. A record naming more new tiers
    /// than the process-wide table has room for is malformed (`None`) and
    /// interns none of them.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        Self::read(&mut Reader::new(buf)).ok()
    }

    fn read(r: &mut Reader<'_>) -> wire::Result<Self> {
        let size = r.u64()?;
        let stored_size = r.u64()?;
        let access_count = u32::try_from(r.u64()?).unwrap_or(u32::MAX);
        let last_access = SimTime::from_nanos(r.u64()?);
        let created = SimTime::from_nanos(r.u64()?);
        let flags = r.u8()?;
        let digest = if flags & 0b1000 != 0 { Some(Digest(r.array()?)) } else { None };
        let names = str_set(r)?;
        let unknown = names.iter().filter(|n| TierId::lookup(n).is_none()).count();
        if TierId::interned() + unknown > MAX_TIER_NAMES {
            return Err(wire::Error::TooMany);
        }
        let locations = names
            .iter()
            .map(|n| TierId::intern(n))
            .collect::<Option<TierSet>>()
            .ok_or(wire::Error::TooMany)?;
        let tags = str_set(r)?;
        let encryption_key_id = if r.u8()? == 1 { Some(r.str()?.to_owned()) } else { None };
        let mut meta = Self {
            size,
            access_count,
            last_access,
            created,
            locations,
            rare: None,
            dirty: flags & 1 != 0,
            compressed: flags & 0b10 != 0,
            encrypted: flags & 0b100 != 0,
        };
        let stored_size = (stored_size != size).then_some(stored_size);
        if !tags.is_empty() || digest.is_some() || encryption_key_id.is_some() || stored_size.is_some() {
            meta.edit_rare(|r| {
                r.tags = tags.into_iter().map(Tag::new).collect();
                r.digest = digest;
                r.encryption_key_id = encryption_key_id;
                r.stored_size = stored_size;
            });
        }
        Ok(meta)
    }
}

/// A counted list of names, as [`put_strs`] wrote it.
fn str_set<'a>(r: &mut Reader<'a>) -> wire::Result<Vec<&'a str>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(r.str()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObjectMeta {
        let mut m = ObjectMeta::new(4096, SimTime::from_secs(10));
        m.touch(SimTime::from_secs(20));
        m.dirty = true;
        m.locations.insert("memcached".into());
        m.locations.insert("ebs".into());
        m.set_tags([Tag::new("tmp")]);
        m.set_digest(Some(Digest::of(b"payload")));
        m.compressed = true;
        m.set_encryption_key_id(Some("default".into()));
        m
    }

    #[test]
    fn codec_roundtrip() {
        let m = sample();
        let encoded = m.encode();
        let decoded = ObjectMeta::decode(&encoded).expect("decodes");
        assert_eq!(decoded, m);
    }

    #[test]
    fn codec_roundtrip_minimal() {
        let m = ObjectMeta::new(0, SimTime::ZERO);
        assert_eq!(ObjectMeta::decode(&m.encode()), Some(m));
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = sample().encode();
        for cut in 0..enc.len() {
            // No prefix may decode into the full sample (most return None).
            if let Some(m) = ObjectMeta::decode(&enc[..cut]) {
                assert_ne!(m, sample());
            }
        }
    }

    #[test]
    fn prop_decode_never_panics_on_random_bytes_or_byte_flips() {
        use tiera_support::prop::gen;
        tiera_support::prop_check!(cases = 128, |rng| {
            let _ = ObjectMeta::decode(&gen::byte_vec(rng, 0..160));
            // One byte of a real record changed. Flips inside a location
            // name intern that name, so the cases stay few: the table is
            // process-wide.
            let mut rec = sample().encode();
            let at = gen::usize_in(rng, 0..rec.len());
            rec[at] ^= gen::u64_in(rng, 1..256) as u8;
            // Whatever decodes is a record in its own right.
            if let Some(m) = ObjectMeta::decode(&rec) {
                assert_eq!(ObjectMeta::decode(&m.encode()), Some(m));
            }
        });
    }

    #[test]
    fn common_record_is_small_and_heap_free() {
        // Small: the const asserts beside `ObjectMeta`. Heap-free:
        let mut m = ObjectMeta::new(1, SimTime::ZERO);
        m.locations.insert("mem".into());
        assert!(m.rare.is_none(), "nothing rare is set");
        // Setting and clearing a rare attribute leaves no box behind, so
        // equality with a never-touched record still holds.
        m.set_digest(Some(Digest::of(b"x")));
        assert!(m.rare.is_some());
        m.set_digest(None);
        assert!(m.rare.is_none());
        m.set_tags([]);
        m.set_encryption_key_id(None);
        assert!(m.rare.is_none());
        // So does a stored size: boxed only while it differs from `size`.
        m.set_stored_size(1);
        assert!(m.rare.is_none());
        m.set_stored_size(7);
        assert_eq!((m.stored_size(), m.rare.is_some()), (7, true));
        m.set_stored_size(1);
        assert!(m.rare.is_none());
        let mut fresh = ObjectMeta::new(1, SimTime::ZERO);
        fresh.locations.insert("mem".into());
        assert_eq!(m, fresh);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn encode_is_byte_identical_to_the_wide_record() {
        // Both captured from the record with 64-bit `stored_size` and
        // `access_count` fields that this one replaced.
        const STORED_IS_SIZE: &str = "00100000000000000010000000000000010000000000000000c817a80400000000e40b54020000000101000000030000006d656d0000000000";
        const STORED_APART: &str = "0010000000000000d204000000000000020000000000000000ac23fc0600000000e40b54020000000e239f59ed55e737c77147cf55ad0c1b030b6d7ee748a7426952f9b852d5a935e50200000003000000656273090000006d656d6361636865640100000003000000746d70010700000064656661756c74";

        let mut m = ObjectMeta::new(4096, SimTime::from_secs(10));
        m.touch(SimTime::from_secs(20));
        m.dirty = true;
        m.locations.insert("mem".into());
        m.set_stored_size(4096);
        assert_eq!(hex(&m.encode()), STORED_IS_SIZE);

        let mut m = ObjectMeta::new(4096, SimTime::from_secs(10));
        m.touch(SimTime::from_secs(20));
        m.touch(SimTime::from_secs(30));
        m.locations.insert("memcached".into());
        m.locations.insert("ebs".into());
        m.set_tags([Tag::new("tmp")]);
        m.set_digest(Some(Digest::of(b"payload")));
        m.compressed = true;
        m.encrypted = true;
        m.set_encryption_key_id(Some("default".into()));
        m.set_stored_size(1234);
        assert_eq!(hex(&m.encode()), STORED_APART);
        let decoded = ObjectMeta::decode(&m.encode()).expect("decodes");
        assert_eq!((decoded.size, decoded.stored_size()), (4096, 1234));
        assert_eq!(decoded, m);
    }

    #[test]
    fn access_count_saturates_in_touch_and_in_decode() {
        let mut m = ObjectMeta::new(1, SimTime::ZERO);
        m.access_count = u32::MAX - 1;
        m.touch(SimTime::from_secs(1));
        m.touch(SimTime::from_secs(2));
        assert_eq!(m.access_count, u32::MAX);
        assert_eq!(m.last_access, SimTime::from_secs(2));

        // A wide record counted past `u32::MAX`: bytes 16..24 are the count.
        for wide in [u64::from(u32::MAX) + 1, u64::MAX] {
            let mut rec = ObjectMeta::new(1, SimTime::ZERO).encode();
            rec[16..24].copy_from_slice(&wide.to_le_bytes());
            let decoded = ObjectMeta::decode(&rec).expect("decodes");
            assert_eq!(decoded.access_count, u32::MAX);
        }
    }

    #[test]
    fn tier_set_is_inline_through_four_and_spills_at_five() {
        let mut set = TierSet::new();
        assert!(set.is_empty());
        // Interned (and inserted) in an order unlike their name order.
        for name in ["s-delta", "s-alpha", "s-echo", "s-bravo"] {
            assert!(set.insert(name.to_string()));
            assert!(matches!(set.0, Repr::Inline { .. }), "{name} fits inline");
        }
        assert!(!set.insert("s-echo".to_string()), "already a member");
        assert_eq!(set.len(), 4);
        assert!(set.insert("s-charlie".to_string()));
        assert!(matches!(set.0, Repr::Spilled(_)), "a fifth member spills");
        // Name order regardless of intern or insert order, inline or not.
        let names = |s: &TierSet| s.iter().map(|id| id.name()).collect::<Vec<_>>();
        assert_eq!(names(&set), ["s-alpha", "s-bravo", "s-charlie", "s-delta", "s-echo"]);
        assert_eq!(
            format!("{set:?}"),
            r#"{"s-alpha", "s-bravo", "s-charlie", "s-delta", "s-echo"}"#
        );
        assert!(set.contains("s-charlie") && !set.contains("s-foxtrot"));
        assert!(set.contains_id(TierId::from("s-delta")));
        // Shrinking a spilled set keeps it equal to an inline one.
        assert!(set.remove("s-charlie") && !set.remove("s-charlie"));
        set.retain(|id| id != "s-echo");
        let inline: TierSet = ["s-bravo", "s-delta", "s-alpha"].into_iter().map(TierId::from).collect();
        assert!(matches!(inline.0, Repr::Inline { .. }));
        assert_eq!(set, inline);
        assert_eq!(names(&inline), ["s-alpha", "s-bravo", "s-delta"]);
    }

    /// A record whose location set is `names`.
    fn record_located_in(names: &[String]) -> Vec<u8> {
        let mut rec = ObjectMeta::new(1, SimTime::ZERO).encode();
        rec.truncate(41); // five u64s and the flags byte
        put_strs(&mut rec, names);
        put_strs(&mut rec, std::iter::empty::<&str>());
        rec.push(0);
        rec
    }

    #[test]
    fn decode_refuses_more_tier_names_than_the_table_admits() {
        let hostile: Vec<String> = (0..=MAX_TIER_NAMES).map(|i| format!("hostile-{i}")).collect();
        assert!(ObjectMeta::decode(&record_located_in(&hostile)).is_none());
        // All or nothing: not one of the names was interned (which, the
        // table being append-only, is "its size did not change").
        assert!(hostile.iter().all(|n| TierId::lookup(n).is_none()));
        // The same shape within the bound decodes.
        let fine: Vec<String> = (0..6).map(|i| format!("bounded-{i}")).collect();
        let meta = ObjectMeta::decode(&record_located_in(&fine)).expect("six tiers decode");
        assert_eq!(meta.locations.len(), 6);
        assert!(fine.iter().all(|n| meta.in_tier(n)));
    }

    #[test]
    fn touch_updates_access_stats() {
        let mut m = ObjectMeta::new(10, SimTime::ZERO);
        m.touch(SimTime::from_secs(5));
        m.touch(SimTime::from_secs(10));
        assert_eq!(m.access_count, 2);
        assert_eq!(m.last_access, SimTime::from_secs(10));
        // 2 accesses over 10 s = 0.2/s.
        assert!((m.access_frequency(SimTime::from_secs(10)) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn tag_and_tier_predicates() {
        let m = sample();
        assert!(m.has_tag(&Tag::new("tmp")));
        assert!(!m.has_tag(&Tag::new("other")));
        assert!(m.in_tier("ebs"));
        assert!(!m.in_tier("s3"));
    }
}
