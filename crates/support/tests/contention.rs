//! Multi-threaded behaviour of the tiera-support primitives: lock
//! exclusion and fairness under contention, mpmc channel ordering and
//! disconnect semantics, and `Bytes` aliasing across threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use tiera_support::channel::{self, RecvError};
use tiera_support::sync::{Mutex, RwLock};
use tiera_support::Bytes;

#[test]
fn mutex_counter_under_contention() {
    let counter = Arc::new(Mutex::new(0u64));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let counter = Arc::clone(&counter);
        handles.push(thread::spawn(move || {
            for _ in 0..10_000 {
                *counter.lock() += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*counter.lock(), 80_000);
}

#[test]
fn mutex_guard_is_exclusive() {
    // Two threads alternately extend a vector by non-atomic read-modify-
    // write; exclusion is violated iff an index is skipped or repeated.
    let v = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let v = Arc::clone(&v);
        handles.push(thread::spawn(move || {
            for _ in 0..2_000 {
                let mut g = v.lock();
                let next = g.len();
                g.push(next);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let v = v.lock();
    assert_eq!(v.len(), 8_000);
    assert!(v.iter().enumerate().all(|(i, &x)| i == x));
}

#[test]
fn rwlock_readers_share_writers_exclude() {
    let data = Arc::new(RwLock::new(vec![0u64; 64]));
    let writes = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    // Writers keep every slot equal; readers assert they never observe a
    // torn (mixed-value) snapshot.
    for w in 0..2u64 {
        let data = Arc::clone(&data);
        let writes = Arc::clone(&writes);
        handles.push(thread::spawn(move || {
            for i in 0..1_000 {
                let mut g = data.write();
                let value = w * 1_000_000 + i;
                for slot in g.iter_mut() {
                    *slot = value;
                }
                writes.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for _ in 0..4 {
        let data = Arc::clone(&data);
        handles.push(thread::spawn(move || {
            for _ in 0..2_000 {
                let g = data.read();
                let first = g[0];
                assert!(g.iter().all(|&x| x == first), "reader observed a torn write");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(writes.load(Ordering::Relaxed), 2_000);
}

#[test]
fn channel_mpmc_delivers_every_message_once() {
    let (tx, rx) = channel::unbounded::<u64>();
    let mut producers = Vec::new();
    for p in 0..4u64 {
        let tx = tx.clone();
        producers.push(thread::spawn(move || {
            for i in 0..5_000 {
                tx.send(p * 5_000 + i).unwrap();
            }
        }));
    }
    drop(tx);
    let mut consumers = Vec::new();
    for _ in 0..4 {
        let rx = rx.clone();
        consumers.push(thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        }));
    }
    for p in producers {
        p.join().unwrap();
    }
    let mut all: Vec<u64> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
    all.sort_unstable();
    assert_eq!(all, (0..20_000).collect::<Vec<u64>>());
}

#[test]
fn channel_preserves_per_sender_order() {
    let (tx, rx) = channel::unbounded::<u64>();
    let sender = thread::spawn(move || {
        for i in 0..10_000 {
            tx.send(i).unwrap();
        }
    });
    // Single consumer: the sequence must arrive strictly in send order.
    let mut expected = 0;
    while let Ok(v) = rx.recv() {
        assert_eq!(v, expected);
        expected += 1;
    }
    assert_eq!(expected, 10_000);
    sender.join().unwrap();
}

#[test]
fn channel_disconnect_wakes_all_blocked_receivers() {
    let (tx, rx) = channel::unbounded::<u64>();
    let mut waiters = Vec::new();
    for _ in 0..4 {
        let rx = rx.clone();
        waiters.push(thread::spawn(move || rx.recv()));
    }
    // Give the receivers time to block, then disconnect.
    thread::sleep(std::time::Duration::from_millis(50));
    drop(tx);
    for w in waiters {
        assert_eq!(w.join().unwrap(), Err(RecvError));
    }
}

#[test]
fn bytes_clones_share_storage_across_threads() {
    let payload = Bytes::from(vec![7u8; 1 << 20]);
    let mut handles = Vec::new();
    for _ in 0..8 {
        let view = payload.clone();
        handles.push(thread::spawn(move || {
            let mid = view.slice(1024..2048);
            assert_eq!(mid.len(), 1024);
            assert!(view.iter().all(|&b| b == 7));
            mid
        }));
    }
    for h in handles {
        let mid = h.join().unwrap();
        assert!(mid.iter().all(|&b| b == 7));
    }
    // The original is untouched by concurrent slicing.
    assert_eq!(payload.len(), 1 << 20);
}
