//! LRU page caches: the database buffer pool and the modeled OS page cache.

use tiera_sim::SimDuration;
use tiera_support::collections::FxHashMap;

/// A fixed-capacity LRU cache over page numbers.
///
/// Used twice: as minidb's buffer pool (holding page *contents*) and as the
/// OS page-cache model (holding only presence + a hit latency — the data
/// itself always flows through the buffer pool).
pub struct LruPages<V> {
    capacity: usize,
    clock: u64,
    entries: FxHashMap<u64, (u64, V)>, // page → (last-use stamp, value)
}

impl<V> LruPages<V> {
    /// Creates a cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            clock: 0,
            entries: FxHashMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
        }
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a page, refreshing its recency.
    pub fn get(&mut self, page: u64) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&page) {
            Some((stamp, v)) => {
                *stamp = clock;
                Some(&*v)
            }
            None => None,
        }
    }

    /// Mutable lookup, refreshing recency.
    pub fn get_mut(&mut self, page: u64) -> Option<&mut V> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&page) {
            Some((stamp, v)) => {
                *stamp = clock;
                Some(v)
            }
            None => None,
        }
    }

    /// Whether the page is cached (does not refresh recency).
    pub fn contains(&self, page: u64) -> bool {
        self.entries.contains_key(&page)
    }

    /// Inserts a page, evicting the least recently used if full. Returns
    /// the evicted `(page, value)` if any.
    pub fn insert(&mut self, page: u64, value: V) -> Option<(u64, V)> {
        self.clock += 1;
        self.entries.insert(page, (self.clock, value));
        if self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k)
                .expect("non-empty");
            return self.entries.remove(&victim).map(|(_, v)| (victim, v));
        }
        None
    }

    /// Removes a page.
    pub fn remove(&mut self, page: u64) -> Option<V> {
        self.entries.remove(&page).map(|(_, v)| v)
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Iterates over `(page, value)` without touching recency.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &V)> {
        self.entries.iter().map(|(k, (_, v))| (k, v))
    }
}

/// The OS page-cache model: an LRU over page *contents* with a fixed hit
/// latency.
///
/// The plain "MySQL on EBS" deployment benefits from the EC2 instance's
/// buffer cache; Tiera deployments go through FUSE and do not. ~50 µs per
/// hit models a memcpy-from-page-cache read of 4 KB. The cache holds the
/// bytes so a hit never touches the storage tiers (no device occupancy, no
/// request counting).
pub struct OsPageCache {
    pages: LruPages<Vec<u8>>,
    hit_latency: SimDuration,
}

impl OsPageCache {
    /// A cache of `capacity_pages` 4 KB pages.
    pub fn new(capacity_pages: usize) -> Self {
        Self { pages: LruPages::new(capacity_pages), hit_latency: SimDuration::from_micros(50) }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.pages.capacity()
    }

    /// Looks up a page. Returns `Some((bytes, hit latency))` on a hit;
    /// `None` on a miss (caller reads storage and calls
    /// [`fill`](Self::fill)).
    pub fn read(&mut self, page: u64) -> Option<(Vec<u8>, SimDuration)> {
        self.pages.get(page).map(|v| (v.clone(), self.hit_latency))
    }

    /// Populates the cache after a storage read.
    pub fn fill(&mut self, page: u64, data: Vec<u8>) {
        self.pages.insert(page, data);
    }

    /// Records a page write (write-through caches keep the page resident).
    pub fn write(&mut self, page: u64, data: Vec<u8>) {
        self.pages.insert(page, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c: LruPages<u32> = LruPages::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(1), Some(&10)); // refresh 1
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)), "2 was least recently used");
        assert!(c.contains(1) && c.contains(3));
    }

    #[test]
    fn insert_existing_updates_without_eviction() {
        let mut c: LruPages<u32> = LruPages::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert!(c.insert(1, 11).is_none());
        assert_eq!(c.get(1), Some(&11));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut c: LruPages<Vec<u8>> = LruPages::new(4);
        c.insert(7, vec![0u8; 4]);
        c.get_mut(7).unwrap()[0] = 0xFF;
        assert_eq!(c.get(7).unwrap()[0], 0xFF);
    }

    #[test]
    fn os_cache_hit_miss_behaviour() {
        let mut c = OsPageCache::new(2);
        assert!(c.read(1).is_none(), "cold miss");
        c.fill(1, vec![1]);
        let (data, lat) = c.read(1).expect("now hot");
        assert_eq!(data, vec![1]);
        assert!(lat > SimDuration::ZERO);
        c.write(2, vec![2]);
        assert_eq!(c.read(2).unwrap().0, vec![2], "writes populate");
        // Capacity 2: filling a third page evicts the LRU (page 1).
        c.fill(3, vec![3]);
        assert!(c.read(1).is_none(), "1 was evicted by 3");
    }

    #[test]
    fn zero_capacity_clamped() {
        let c: LruPages<()> = LruPages::new(0);
        assert_eq!(c.capacity(), 1);
    }
}
