//! A cheaply-cloneable immutable byte buffer.
//!
//! Replacement for the `bytes` crate's `Bytes` type, covering the API
//! subset Tiera uses: construction from vectors/slices, `Deref` to
//! `[u8]`, O(1) `clone`, and zero-copy `slice()` views. The backing store
//! is an `Arc<[u8]>`, so clones and sub-slices share one allocation — an
//! object stored in three tiers costs one payload, as in the seed.
//!
//! ## Backing buffers are recycled
//!
//! A stored payload is a long-lived allocation, and a served overwrite
//! frees it on a different thread from the one that made it: the loader
//! allocates, a connection worker overwrites. glibc returns a freed chunk
//! to the arena that allocated it, not to the thread that freed it, so the
//! loader's arena empties but stays resident while the worker's grows into
//! a second copy of the store (DESIGN.md, "Payload byte budget"). So
//! dropping the last handle to a backing buffer does not free it: `Drop`
//! *retires* it to a small per-thread `pool`, and the copying
//! constructors ([`Bytes::copy_from_slice`], `From<Vec<u8>>`, and
//! [`Bytes::into_shared`] of a view) *adopt* a
//! retired buffer of exactly the requested length, overwriting every
//! byte, before they allocate. In steady state an overwrite allocates
//! nothing long-lived: the thread adopts the buffer its previous overwrite
//! retired, and resident payload memory stays where it was first
//! allocated. A buffer with any other live handle — a clone, a `slice()`
//! view — is never retired, so sharing is untouched.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// The per-thread pool of retired backing buffers.
///
/// No lock and no global state: a buffer is adopted only by the thread
/// that retired it. Bounded by count and by bytes with oldest-out
/// eviction, so a stream of never-repeated lengths can neither wedge the
/// pool nor make a thread hold more than [`MAX_BYTES`] at rest.
mod pool {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::sync::Arc;

    /// Shorter buffers (keys, headers, literals) are not worth one of the
    /// pool's slots.
    pub(super) const MIN_LEN: usize = 64;
    /// Most buffers one thread keeps.
    pub(super) const MAX_BUFFERS: usize = 32;
    /// Most bytes one thread keeps; a longer buffer can never fit and
    /// bypasses the pool.
    pub(super) const MAX_BYTES: usize = 256 << 10;

    struct Pool {
        /// Oldest at the front. Plain `Arc<[u8]>`s, not `Bytes`, so
        /// evicting or tearing down the pool never re-enters it.
        retired: VecDeque<Arc<[u8]>>,
        bytes: usize,
    }

    thread_local! {
        static POOL: RefCell<Pool> = const {
            RefCell::new(Pool { retired: VecDeque::new(), bytes: 0 })
        };
    }

    /// Runs `f` on this thread's pool; `None` when there is none to use —
    /// the thread is tearing its locals down, or the pool is already
    /// borrowed — in which case the caller frees or allocates as if the
    /// pool did not exist.
    fn with<R>(f: impl FnOnce(&mut Pool) -> R) -> Option<R> {
        POOL.try_with(|p| p.try_borrow_mut().ok().map(|mut p| f(&mut p))).ok().flatten()
    }

    fn poolable(len: usize) -> bool {
        (MIN_LEN..=MAX_BYTES).contains(&len)
    }

    /// Keeps `buf`'s allocation for a later [`adopt`] if `buf` is its only
    /// handle. The pool takes a clone and the caller's handle dies right
    /// after, which keeps the count traffic on the buffer's own cache line
    /// (swapping in a shared empty `Arc` would bounce a global one).
    pub(super) fn retire(buf: &mut Arc<[u8]>) {
        let len = buf.len();
        if !poolable(len) || Arc::get_mut(buf).is_none() {
            return;
        }
        with(|pool| {
            while pool.retired.len() >= MAX_BUFFERS || pool.bytes + len > MAX_BYTES {
                let Some(oldest) = pool.retired.pop_front() else { break };
                pool.bytes -= oldest.len();
            }
            pool.bytes += len;
            pool.retired.push_back(Arc::clone(buf));
        });
    }

    /// A retired buffer of exactly `data.len()` bytes, every byte
    /// overwritten with `data`; the most recently retired one, which is
    /// the likeliest to still be in cache.
    pub(super) fn adopt(data: &[u8]) -> Option<Arc<[u8]>> {
        if !poolable(data.len()) {
            return None;
        }
        let mut buf = with(|pool| {
            let at = pool.retired.iter().rposition(|b| b.len() == data.len())?;
            let buf = pool.retired.remove(at)?;
            pool.bytes -= buf.len();
            Some(buf)
        })??;
        Arc::get_mut(&mut buf)?.copy_from_slice(data);
        Some(buf)
    }

    /// `(buffers, bytes)` held by this thread's pool; `None` once the
    /// thread has torn it down.
    pub(super) fn held() -> Option<(usize, usize)> {
        with(|pool| (pool.retired.len(), pool.bytes))
    }
}

/// `(buffers, bytes)` this thread's pool of retired backing buffers holds;
/// `None` once the thread has torn the pool down. What a holder that
/// stores plain `Arc<[u8]>`s checks to see that the values it drops still
/// reach the pool.
pub fn pool_held() -> Option<(usize, usize)> {
    pool::held()
}

/// An immutable, reference-counted byte buffer.
///
/// `clone()` is O(1) and aliases the same allocation; [`Bytes::slice`]
/// returns a view into the parent without copying.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    offset: usize,
    len: usize,
}

impl Drop for Bytes {
    fn drop(&mut self) {
        // A clone or view elsewhere keeps the buffer out of the pool; the
        // plain load here spares a shared buffer `retire`'s atomic check.
        if Arc::strong_count(&self.data) == 1 {
            pool::retire(&mut self.data);
        }
    }
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a static byte slice (copies it once; the name mirrors the
    /// `bytes` crate for drop-in compatibility).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Copies `data` into a buffer of its own: a recycled one of the same
    /// length when this thread has retired one, a fresh one otherwise.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(buffer_of(data))
    }

    /// The backing buffer, for a holder that keeps whole buffers only (16
    /// bytes against a view's 32): shared when this view is the whole
    /// buffer, a copy of the view otherwise. Turn it back into `Bytes`
    /// (`From<Arc<[u8]>>`) to drop it, or the pool never sees it.
    pub fn into_shared(self) -> Arc<[u8]> {
        if self.offset == 0 && self.len == self.data.len() {
            // A second handle, then this one's drop: the buffer outlives it
            // and is not retired, and the count traffic stays on its line.
            Arc::clone(&self.data)
        } else {
            buffer_of(self.as_slice())
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a zero-copy sub-view of this buffer.
    ///
    /// The returned `Bytes` shares the parent's allocation. Panics if the
    /// range is out of bounds, matching slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice range {start}..{end} out of bounds for Bytes of length {}",
            self.len
        );
        Self { data: Arc::clone(&self.data), offset: self.offset + start, len: end - start }
    }

    /// The view as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// Copies the view into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

/// A buffer of its own holding `data`: a recycled one of the same length
/// when this thread has retired one, a fresh one otherwise.
fn buffer_of(data: &[u8]) -> Arc<[u8]> {
    pool::adopt(data).unwrap_or_else(|| Arc::from(data))
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        // `Arc::from(Vec)` copies into a new allocation too, so adopting a
        // recycled buffer costs the same copy and saves the allocation.
        Self::copy_from_slice(&v)
    }
}

/// A view of the whole buffer; dropping it retires the buffer as any
/// `Bytes` would.
impl From<Arc<[u8]>> for Bytes {
    fn from(data: Arc<[u8]>) -> Self {
        Self { len: data.len(), data, offset: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(v: &[u8; N]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Self::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Self::copy_from_slice(s.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Match the `bytes` crate: render as a byte-string literal.
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_aliases_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.data, &b.data), "clone must not copy");
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let a = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let mid = a.slice(2..5);
        assert_eq!(&mid[..], &[2, 3, 4]);
        assert!(Arc::ptr_eq(&a.data, &mid.data), "slice must not copy");
        let tail = mid.slice(1..);
        assert_eq!(&tail[..], &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![0u8; 4]).slice(2..6);
    }

    #[test]
    fn equality_and_deref() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(b, b"hello"[..]);
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        assert_eq!(b.to_vec(), b"hello".to_vec());
        assert_eq!(&b[1..3], b"el");
    }

    #[test]
    fn debug_escapes() {
        let b = Bytes::from(vec![b'a', 0, b'"']);
        assert_eq!(format!("{b:?}"), "b\"a\\x00\\\"\"");
    }

    /// Runs `f` on a thread of its own, so it starts with an empty pool
    /// whatever thread the test harness put the test on.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread panicked"))
    }

    fn addr(b: &Bytes) -> *const u8 {
        b.data.as_ptr()
    }

    #[test]
    fn adopt_returns_the_retired_allocation_of_the_same_length_only() {
        on_fresh_thread(|| {
            let first = Bytes::from(vec![1u8; 4096]);
            let retired = addr(&first) as usize;
            drop(first);
            assert_eq!(pool::held(), Some((1, 4096)));

            // Other lengths — shorter, longer, by one byte — allocate.
            let others: Vec<Bytes> = [4095, 4097, 64, 8192]
                .iter()
                .map(|&len| Bytes::copy_from_slice(&vec![2u8; len]))
                .collect();
            assert!(others.iter().all(|o| addr(o) as usize != retired));
            assert_eq!(pool::held(), Some((1, 4096)));

            // Both copying constructors adopt, and every byte is the new
            // payload's.
            let second = Bytes::from(vec![3u8; 4096]);
            assert_eq!(addr(&second) as usize, retired);
            assert!(second.iter().all(|&b| b == 3));
            assert_eq!(pool::held(), Some((0, 0)));
            drop(second);
            let third = Bytes::copy_from_slice(&[4u8; 4096]);
            assert_eq!(addr(&third) as usize, retired);
            assert!(third.iter().all(|&b| b == 4));
        });
    }

    #[test]
    fn shared_buffers_are_never_retired_or_written_through() {
        on_fresh_thread(|| {
            // Write A, keep a clone and a view, overwrite twice with B.
            let mut stored = Bytes::from(vec![b'A'; 1024]);
            let clone = stored.clone();
            let view = stored.slice(100..200);
            for _ in 0..2 {
                stored = Bytes::from(vec![b'B'; 1024]);
                assert_ne!(addr(&stored), addr(&clone));
            }
            // The first overwrite dropped a shared handle (nothing
            // retired), the second a unique one that went to the pool and
            // has not come back out.
            assert_eq!(pool::held(), Some((1, 1024)));
            assert!(clone.iter().all(|&b| b == b'A'));
            assert!(view.iter().all(|&b| b == b'A') && view.len() == 100);

            // A view alone keeps the buffer out of the pool; the last
            // handle, view or not, retires the whole backing buffer.
            drop(clone);
            assert_eq!(pool::held(), Some((1, 1024)));
            let kept = addr(&view) as usize;
            drop(view);
            assert_eq!(pool::held(), Some((2, 2048)));
            assert_eq!(addr(&Bytes::from(vec![b'C'; 1024])) as usize, kept);
        });
    }

    #[test]
    fn into_shared_shares_a_whole_buffer_and_copies_a_view() {
        on_fresh_thread(|| {
            let whole = Bytes::from(vec![5u8; 1024]);
            let at = addr(&whole);
            let view = whole.slice(10..20);
            let shared = whole.into_shared();
            assert_eq!(shared.as_ptr(), at, "a whole buffer is shared, not copied");
            assert_eq!(pool::held(), Some((0, 0)), "handing the buffer over retires nothing");

            let copied = view.clone().into_shared();
            assert_ne!(copied.as_ptr(), at, "a view is copied");
            assert_eq!(&copied[..], &view[..]);

            // Back through `From<Arc<[u8]>>`, the last handle retires it.
            let back = Bytes::from(shared);
            assert_eq!((addr(&back), back.len()), (at, 1024));
            drop(view);
            drop(back);
            assert_eq!(pool_held(), Some((1, 1024)));
        });
    }

    #[test]
    fn pool_is_bounded_by_count_and_bytes_with_oldest_out() {
        on_fresh_thread(|| {
            // Count: cap + 1 distinct lengths, the first retired is gone.
            let lens: Vec<usize> = (0..=pool::MAX_BUFFERS).map(|i| pool::MIN_LEN + i).collect();
            let mut addrs = Vec::new();
            for &len in &lens {
                let b = Bytes::from(vec![0u8; len]);
                addrs.push(addr(&b) as usize);
                drop(b);
                let (buffers, bytes) = pool::held().unwrap();
                assert!(buffers <= pool::MAX_BUFFERS && bytes <= pool::MAX_BYTES);
            }
            assert_eq!(pool::held().unwrap().0, pool::MAX_BUFFERS);
            // The second oldest is still there (checked first: adopting
            // frees a slot, and the allocator may hand the evicted chunk
            // back out).
            let second = Bytes::from(vec![1u8; lens[1]]);
            assert_eq!(addr(&second) as usize, addrs[1]);
            assert_eq!(pool::held().unwrap().0, pool::MAX_BUFFERS - 1);
            let _first = Bytes::from(vec![1u8; lens[0]]);
            assert_eq!(pool::held().unwrap().0, pool::MAX_BUFFERS - 1, "oldest was evicted");
        });
        on_fresh_thread(|| {
            // Bytes: 48 KiB buffers, five fit under 256 KiB, the sixth
            // pushes the oldest out.
            let len = 48 << 10;
            let held: Vec<Bytes> = (0..7).map(|i| Bytes::from(vec![i as u8; len])).collect();
            for b in held {
                drop(b);
                let (_, bytes) = pool::held().unwrap();
                assert!(bytes <= pool::MAX_BYTES, "{bytes}");
            }
            assert_eq!(pool::held(), Some((5, 5 * len)));
            // Out of range on either side: never pooled.
            drop(Bytes::from(vec![0u8; pool::MIN_LEN - 1]));
            drop(Bytes::from(vec![0u8; pool::MAX_BYTES + 1]));
            assert_eq!(pool::held(), Some((5, 5 * len)));
            // Exactly the cap fits alone, and evicts everything else.
            drop(Bytes::from(vec![0u8; pool::MAX_BYTES]));
            assert_eq!(pool::held(), Some((1, pool::MAX_BYTES)));
        });
    }

    #[test]
    fn drop_during_thread_teardown_frees_instead_of_retiring() {
        use std::cell::RefCell;
        use std::sync::mpsc;

        /// A thread-local that drops a payload — and reports whether the
        /// pool was still there — while the thread's locals are torn down.
        struct Late(Option<(Bytes, mpsc::Sender<bool>)>);
        impl Drop for Late {
            fn drop(&mut self) {
                if let Some((payload, seen)) = self.0.take() {
                    drop(payload);
                    let _ = seen.send(pool::held().is_some());
                }
            }
        }
        thread_local! {
            static LATE: RefCell<Late> = const { RefCell::new(Late(None)) };
        }

        // Locals are destroyed in an order that depends on which was
        // touched first, so run both: in one of them the payload outlives
        // the pool, and its drop must fall through to a plain free.
        let (tx, rx) = mpsc::channel();
        for pool_first in [true, false] {
            let tx = tx.clone();
            std::thread::spawn(move || {
                let touch_pool = || drop(Bytes::from(vec![7u8; 4096]));
                if pool_first {
                    touch_pool();
                }
                LATE.with(|l| l.borrow_mut().0 = Some((Bytes::from(vec![8u8; 2048]), tx)));
                touch_pool();
                // Exits with buffers still retired: the pool's own
                // teardown frees them.
                assert!(pool::held().unwrap().0 >= 1);
            })
            .join()
            .expect("a drop during thread teardown must not panic");
        }
        drop(tx);
        let pool_alive: Vec<bool> = rx.iter().collect();
        assert_eq!(pool_alive.len(), 2, "both late drops ran");
        assert!(pool_alive.contains(&false), "one payload must outlive its thread's pool");
    }

    #[test]
    fn concurrent_mixed_use_keeps_every_handle_intact() {
        use crate::prop::gen::{pick, usize_in};
        use crate::rng::SimRng;
        use std::sync::Mutex;

        // Each buffer is filled with one byte, so any handle — clone, view,
        // handed to another thread — can be checked on its own.
        fn check(b: &Bytes, fill: u8) {
            assert!(b.iter().all(|&x| x == fill), "handle of {} bytes lost fill {fill}", b.len());
        }
        const LENS: [usize; 5] = [16, 64, 100, 4096, 8192];
        let exchange: Mutex<Vec<(Bytes, u8)>> = Mutex::new(Vec::new());

        std::thread::scope(|s| {
            for t in 0..4u64 {
                let exchange = &exchange;
                s.spawn(move || {
                    let mut rng = SimRng::new(0xB17E5 + t);
                    let mut live: Vec<(Bytes, u8)> = Vec::new();
                    for op in 0..10_000u64 {
                        match rng.next_below(6) {
                            0 | 1 => {
                                let fill = (op ^ t) as u8;
                                let len = *pick(&mut rng, &LENS);
                                live.push((Bytes::from(vec![fill; len]), fill));
                            }
                            2 if !live.is_empty() => {
                                let (b, fill) = pick(&mut rng, &live);
                                live.push((b.clone(), *fill));
                            }
                            3 if !live.is_empty() => {
                                let (b, fill) = pick(&mut rng, &live);
                                let from = usize_in(&mut rng, 0..b.len());
                                live.push((b.slice(from..), *fill));
                            }
                            4 if !live.is_empty() => {
                                // Hand one to another thread, take one of theirs.
                                let at = usize_in(&mut rng, 0..live.len());
                                let mut bag = exchange.lock().unwrap();
                                bag.push(live.swap_remove(at));
                                let take = usize_in(&mut rng, 0..bag.len());
                                live.push(bag.swap_remove(take));
                            }
                            _ if !live.is_empty() => {
                                let at = usize_in(&mut rng, 0..live.len());
                                let (b, fill) = live.swap_remove(at);
                                check(&b, fill);
                            }
                            _ => {}
                        }
                        if let Some((b, fill)) = live.last() {
                            check(b, *fill);
                        }
                        if live.len() > 64 {
                            live.drain(..32).for_each(|(b, fill)| check(&b, fill));
                        }
                    }
                    live.iter().for_each(|(b, fill)| check(b, *fill));
                });
            }
        });
        exchange.lock().unwrap().iter().for_each(|(b, fill)| check(b, *fill));
    }
}
