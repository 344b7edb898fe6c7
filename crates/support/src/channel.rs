//! An unbounded multi-producer multi-consumer channel.
//!
//! Replacement for the `crossbeam::channel` API subset Tiera uses: both
//! [`Sender`] and [`Receiver`] are cloneable, so a pool of worker threads
//! can share one receiver (the RPC server's accept→worker hand-off).
//! Disconnection follows crossbeam's rules: `send` fails once every
//! receiver is gone; `recv` drains buffered messages and only then reports
//! disconnection once every sender is gone.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Error returned by [`Sender::send`] when all receivers have dropped.
/// Carries the rejected message back to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> std::fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders have dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "receiving on an empty and disconnected channel")
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message buffered right now, but senders remain.
    Empty,
    /// No message buffered and every sender has dropped.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with no message.
    Timeout,
    /// No message buffered and every sender has dropped.
    Disconnected,
}

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    available: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sending half of an unbounded channel. Cloneable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of an unbounded channel. Cloneable (mpmc).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates an unbounded mpmc channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Enqueues `value`, waking one blocked receiver. Fails only when every
    /// receiver has dropped, handing the value back.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if self.shared.receivers.load(Ordering::Acquire) == 0 {
            return Err(SendError(value));
        }
        self.shared.lock().push_back(value);
        self.shared.available.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender gone: wake all blocked receivers so they can
            // observe the disconnect. A receiver reads the count under the
            // queue lock and keeps the lock until it waits, so passing
            // through the lock first leaves it either yet to read (it
            // sees zero) or already waiting (it hears this) — never
            // between the two, where the wake-up would be lost.
            drop(self.shared.lock());
            self.shared.available.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or every sender has dropped.
    /// Buffered messages are always delivered before a disconnect error.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut queue = self.shared.lock();
        loop {
            if let Some(v) = queue.pop_front() {
                return Ok(v);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvError);
            }
            queue = self.shared.available.wait(queue).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut queue = self.shared.lock();
        if let Some(v) = queue.pop_front() {
            return Ok(v);
        }
        if self.shared.senders.load(Ordering::Acquire) == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Blocks up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut queue = self.shared.lock();
        loop {
            if let Some(v) = queue.pop_front() {
                return Ok(v);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _timed_out) = self
                .shared
                .available
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::AcqRel);
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_single_consumer() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn drained_then_disconnected() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn a_receiver_about_to_wait_hears_the_last_sender_drop() {
        // The last sender drops while the receiver is between reading the
        // sender count and waiting — or as near to it as two threads
        // released together get, many times over. A lost wake-up shows as
        // a receiver that never reports back.
        for round in 0..5_000 {
            let (tx, rx) = unbounded::<u8>();
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let start = Arc::new(std::sync::Barrier::new(2));
            let receiver = {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    done_tx.send(rx.recv()).unwrap();
                })
            };
            start.wait();
            drop(tx);
            let heard = done_rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(heard, Ok(Err(RecvError)), "round {round}");
            receiver.join().unwrap();
        }
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }
}
