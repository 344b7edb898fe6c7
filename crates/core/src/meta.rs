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
//! logical one) sit behind one optional shared pointer, so the common
//! record is [`ObjectMeta`]'s 56 bytes with no heap behind it and cloning
//! it is a copy. The registry stores less still: a `CompactMeta` of 40
//! bytes, every field but the rare pointer, with up to four locations
//! inline and the four flags packed in one byte. The rare attributes and
//! the larger location sets of the few objects that have them it keeps in
//! a side map (`Apart`). The encoded form carries names, not ids, and
//! the access count and stored size at full width.
//!
//! Each record carries one **write version** ([`ObjectMeta::version`]): a
//! PUT gives the record a new one, and a copy, move or re-store publishes
//! only at the version whose bytes it read (see `Instance`). A record
//! encoded before versions existed decodes as version 0.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

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
    Inline {
        len: u8,
        ids: [TierId; INLINE_TIERS],
    },
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

/// The attributes few objects carry, behind one pointer so the rest pay
/// eight bytes for them (and a registry entry nothing: see
/// [`CompactMeta`]). Shared, so a copy of a record is a reference count
/// and an edit copies them first. Invariant: `ObjectMeta::rare` is `None`
/// when all four are empty, which keeps derived equality meaningful.
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
    /// The write version: which PUT's bytes the object's locations hold.
    /// Every PUT assigns a higher one than the record it replaces, so two
    /// PUTs of one key never share a version.
    pub version: u64,
    /// The tiers currently holding the object.
    pub locations: TierSet,
    /// Tags, content digest, encryption key id and a stored size apart
    /// from `size`, when any is set.
    rare: Option<Arc<Rare>>,
    /// Whether the object has been modified since it was last copied to a
    /// persistent tier (drives write-back policies, paper Fig 3).
    pub dirty: bool,
    /// Whether the stored payload is compressed.
    pub compressed: bool,
    /// Whether the stored payload is encrypted.
    pub encrypted: bool,
    /// Whether the PUT of this version is still placing it: until it
    /// retires the prior record's copies, some locations may hold the
    /// prior bytes, and no other PUT of the key replaces the record. In
    /// memory only: not encoded, and false on decode (no PUT outlives a
    /// restart).
    pub(crate) placing: bool,
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
            .field("version", &self.version)
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
    /// Fresh metadata for an object of `size` bytes created at `now`, at
    /// version 0.
    pub fn new(size: u64, now: SimTime) -> Self {
        Self {
            size,
            access_count: 0,
            last_access: now,
            version: 0,
            locations: TierSet::new(),
            rare: None,
            dirty: false,
            compressed: false,
            encrypted: false,
            placing: false,
        }
    }

    /// The write version every location holds: `version`, or 0 (not
    /// known) while its PUT is still placing the bytes.
    pub(crate) fn settled_version(&self) -> u64 {
        if self.placing {
            0
        } else {
            self.version
        }
    }

    /// Records an access at `now`.
    pub fn touch(&mut self, now: SimTime) {
        self.access_count = self.access_count.saturating_add(1);
        self.last_access = now;
    }

    /// Stored size in bytes: `size` unless the stored bytes differ from
    /// the logical ones (after compression, say).
    pub fn stored_size(&self) -> u64 {
        self.rare.as_ref().and_then(|r| r.stored_size).unwrap_or(self.size)
    }

    /// Sets the stored size. One apart from `size` lives with the rare
    /// attributes, so it costs an object without others their allocation.
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

    /// Applies `edit` to the rare attributes — to a copy of them while
    /// another record shares them — allocating only when something is set
    /// and freeing them when nothing is left.
    fn edit_rare(&mut self, edit: impl FnOnce(&mut Rare)) {
        let mut rare = self.rare.take().map_or_else(Rare::default, Arc::unwrap_or_clone);
        edit(&mut rare);
        if rare != Rare::default() {
            self.rare = Some(Arc::new(rare));
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
        put_u64(out, self.version);
        let digest = self.digest();
        let flags = (self.dirty as u8)
            | (self.compressed as u8) << 1
            | (self.encrypted as u8) << 2
            | ((digest.is_some() as u8) << 3)
            | VERSIONED;
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
    /// count above `u32::MAX` saturates. A record encoded before versions
    /// existed held a creation time where the version now is, and decodes
    /// as version 0.
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
        let fifth = r.u64()?;
        let flags = r.u8()?;
        let version = if flags & VERSIONED != 0 { fifth } else { 0 };
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
            version,
            locations,
            rare: None,
            dirty: flags & 1 != 0,
            compressed: flags & 0b10 != 0,
            encrypted: flags & 0b100 != 0,
            placing: false,
        };
        let stored_size = (stored_size != size).then_some(stored_size);
        if !tags.is_empty()
            || digest.is_some()
            || encryption_key_id.is_some()
            || stored_size.is_some()
        {
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

/// [`ObjectMeta`] as a registry shard stores it: every field but the rare
/// attributes, with the locations inline and the four flags packed in one
/// byte. What does not fit — the rare attributes, a set of more than four
/// locations — the shard keeps [`Apart`], and a fifth flag bit says
/// whether it keeps anything, so the side map is read only then.
pub(crate) struct CompactMeta {
    size: u64,
    last_access: SimTime,
    version: u64,
    access_count: u32,
    /// The locations, in name order, when there are at most four; none
    /// when they live apart.
    ids: [TierId; INLINE_TIERS],
    len: u8,
    flags: u8,
}

// One per object in the registry's entries: `ObjectMeta`'s 56 bytes less
// the rare pointer, `TierSet`'s spill pointer and three bools.
const _: () = assert!(std::mem::size_of::<CompactMeta>() <= 40);

/// [`CompactMeta::flags`] bits.
const DIRTY: u8 = 1;
const COMPRESSED: u8 = 1 << 1;
const ENCRYPTED: u8 = 1 << 2;
const PLACING: u8 = 1 << 3;
const APART: u8 = 1 << 4;

/// What a registry shard keeps apart from an object's [`CompactMeta`]:
/// its rare attributes, and its locations when there are more than four.
pub(crate) struct Apart {
    rare: Option<Arc<Rare>>,
    locations: Option<TierSet>,
}

impl Apart {
    /// Whether `tag` is among the object's tags.
    pub(crate) fn has_tag(&self, tag: &Tag) -> bool {
        self.rare.as_ref().is_some_and(|rare| rare.tags.contains(tag))
    }
}

impl CompactMeta {
    /// Whether the shard keeps something [`Apart`] for the object.
    pub(crate) fn has_apart(&self) -> bool {
        self.flags & APART != 0
    }

    /// [`ObjectMeta::dirty`].
    pub(crate) fn dirty(&self) -> bool {
        self.flags & DIRTY != 0
    }

    /// [`ObjectMeta::locations`]: inline, or those `apart` holds (what the
    /// shard keeps apart for the object, if anything).
    pub(crate) fn locations<'a>(&'a self, apart: Option<&'a Apart>) -> &'a [TierId] {
        match apart.and_then(|apart| apart.locations.as_ref()) {
            Some(spilled) => spilled.as_slice(),
            None => &self.ids[..self.len as usize],
        }
    }

    /// [`ObjectMeta::version`].
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Ends the placing of the record's version (`ObjectMeta::placing`).
    pub(crate) fn settle(&mut self) {
        self.flags &= !PLACING;
    }

    /// [`ObjectMeta::touch`].
    pub(crate) fn touch(&mut self, now: SimTime) {
        self.access_count = self.access_count.saturating_add(1);
        self.last_access = now;
    }
}

impl ObjectMeta {
    /// The record as a registry shard stores it, and what the shard keeps
    /// apart for it, if anything.
    pub(crate) fn compact(&self) -> (CompactMeta, Option<Apart>) {
        let members = self.locations.as_slice();
        let spilled = (members.len() > INLINE_TIERS).then(|| self.locations.clone());
        let inline = if spilled.is_some() { &[][..] } else { members };
        let mut ids = [TierId::UNSET; INLINE_TIERS];
        ids[..inline.len()].copy_from_slice(inline);
        let apart = (self.rare.is_some() || spilled.is_some())
            .then(|| Apart { rare: self.rare.clone(), locations: spilled });
        let flags = (self.dirty as u8 * DIRTY)
            | (self.compressed as u8 * COMPRESSED)
            | (self.encrypted as u8 * ENCRYPTED)
            | (self.placing as u8 * PLACING)
            | (apart.is_some() as u8 * APART);
        let core = CompactMeta {
            size: self.size,
            last_access: self.last_access,
            version: self.version,
            access_count: self.access_count,
            ids,
            len: inline.len() as u8,
            flags,
        };
        (core, apart)
    }

    /// The record [`compact`](Self::compact) split, whole again: `apart`
    /// is what the shard keeps apart for it (`None` when `core` says it
    /// keeps nothing).
    pub(crate) fn from_compact(core: &CompactMeta, apart: Option<&Apart>) -> Self {
        let locations = match apart.and_then(|apart| apart.locations.as_ref()) {
            Some(spilled) => spilled.clone(),
            None => TierSet(Repr::Inline { len: core.len, ids: core.ids }),
        };
        Self {
            size: core.size,
            access_count: core.access_count,
            last_access: core.last_access,
            version: core.version,
            locations,
            rare: apart.and_then(|apart| apart.rare.clone()),
            dirty: core.flags & DIRTY != 0,
            compressed: core.flags & COMPRESSED != 0,
            encrypted: core.flags & ENCRYPTED != 0,
            placing: core.flags & PLACING != 0,
        }
    }
}

/// The flag bit of a record whose fifth word is its write version (before
/// versions, that word was a creation time nothing read).
const VERSIONED: u8 = 0b1_0000;

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
        m.version = 42;
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

    #[test]
    fn a_compact_record_and_what_is_kept_apart_make_the_record_again() {
        let mut wide = sample();
        for name in ["c-one", "c-two", "c-three"] {
            wide.locations.insert(name.into());
        }
        let mut placing = ObjectMeta::new(9, SimTime::from_secs(4));
        placing.placing = true;
        placing.encrypted = true;
        placing.locations.insert("mem".into());
        for meta in [ObjectMeta::new(0, SimTime::ZERO), placing, sample(), wide] {
            let (core, apart) = meta.compact();
            // Kept apart: rare attributes and more than four locations.
            let spilled = meta.locations.len() > INLINE_TIERS;
            assert_eq!(apart.is_some(), meta.rare.is_some() || spilled, "{meta:?}");
            assert_eq!(core.has_apart(), apart.is_some());
            assert_eq!(core.locations(apart.as_ref()), meta.locations.as_slice());
            assert_eq!((core.dirty(), core.version()), (meta.dirty, meta.version));
            assert_eq!(ObjectMeta::from_compact(&core, apart.as_ref()), meta);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn records_written_before_the_version_decode_as_version_zero() {
        // Both captured from records written before versions existed: the
        // fifth word held a creation time (10 s), and flag bit 4 was clear.
        const STORED_IS_SIZE: &str = "00100000000000000010000000000000010000000000000000c817a80400000000e40b54020000000101000000030000006d656d0000000000";
        const STORED_APART: &str = "0010000000000000d204000000000000020000000000000000ac23fc0600000000e40b54020000000e239f59ed55e737c77147cf55ad0c1b030b6d7ee748a7426952f9b852d5a935e50200000003000000656273090000006d656d6361636865640100000003000000746d70010700000064656661756c74";
        let unhex = |s: &str| -> Vec<u8> {
            (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
        };

        let mut m = ObjectMeta::new(4096, SimTime::from_secs(10));
        m.touch(SimTime::from_secs(20));
        m.dirty = true;
        m.locations.insert("mem".into());
        assert_eq!(ObjectMeta::decode(&unhex(STORED_IS_SIZE)), Some(m.clone()));
        // Re-encoded, only the fifth word (now the version) and the
        // versioned flag differ.
        m.version = 7;
        let mut expect = unhex(STORED_IS_SIZE);
        expect[32..40].copy_from_slice(&7u64.to_le_bytes());
        expect[40] |= VERSIONED;
        assert_eq!(hex(&m.encode()), hex(&expect));
        assert_eq!(ObjectMeta::decode(&m.encode()), Some(m));

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
        let decoded = ObjectMeta::decode(&unhex(STORED_APART)).expect("decodes");
        assert_eq!((decoded.size, decoded.stored_size(), decoded.version), (4096, 1234, 0));
        assert_eq!(decoded, m);
        let mut expect = unhex(STORED_APART);
        expect[32..40].copy_from_slice(&0u64.to_le_bytes());
        expect[40] |= VERSIONED;
        assert_eq!(hex(&m.encode()), hex(&expect));
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
        let inline: TierSet =
            ["s-bravo", "s-delta", "s-alpha"].into_iter().map(TierId::from).collect();
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
