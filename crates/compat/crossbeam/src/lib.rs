//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides only `crossbeam::channel::{unbounded, Sender, Receiver}` with
//! the subset of semantics the SINTRA TCP runtime relies on:
//! unbounded MPSC queues, cloneable senders, blocking
//! `recv`, `recv_timeout`, non-blocking `try_recv`, and disconnect
//! detection when either side fully drops. As in the real crate, the
//! receiver's drop discards every queued message, and a later send
//! fails and hands its message back. Implemented over
//! `Mutex<VecDeque>` + `Condvar`; throughput is a few million messages/s,
//! plenty for the in-process runtime.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half. Unlike the real crate's, it is not cloneable:
    /// nothing here needs a second receiver, and `std::sync::mpsc`, which
    /// this stand-in should give way to, has none.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::Relaxed);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Wake blocked receivers so they observe the disconnect.
                let _guard = self.shared.queue.lock().unwrap();
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // Under the queue lock, so no send slips a message in after
            // the queue is emptied.
            let mut queue = self.shared.queue.lock().unwrap();
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
            let discarded = std::mem::take(&mut *queue);
            drop(queue);
            drop(discarded);
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message; fails only when every receiver is dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut queue = self.shared.queue.lock().unwrap();
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            queue.push_back(value);
            drop(queue);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        fn disconnected(&self) -> bool {
            self.shared.senders.load(Ordering::Acquire) == 0
        }

        /// Blocks until a message arrives or all senders disconnect.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = queue.pop_front() {
                    return Ok(v);
                }
                if self.disconnected() {
                    return Err(RecvError);
                }
                queue = self.shared.ready.wait(queue).unwrap();
            }
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut queue = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = queue.pop_front() {
                    return Ok(v);
                }
                if self.disconnected() {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self
                    .shared
                    .ready
                    .wait_timeout(queue, deadline - now)
                    .unwrap();
                queue = guard;
            }
        }

        /// Number of messages currently queued (a point-in-time reading;
        /// mirrors `crossbeam_channel::Receiver::len`).
        pub fn len(&self) -> usize {
            self.shared.queue.lock().unwrap().len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.shared.queue.lock().unwrap();
            if let Some(v) = queue.pop_front() {
                Ok(v)
            } else if self.disconnected() {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert!(!rx.is_empty());
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert!(rx.is_empty());
    }

    #[test]
    fn disconnect_detected() {
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx2, rx2) = unbounded::<u32>();
        drop(rx2);
        assert_eq!(tx2.send(9), Err(SendError(9)));
    }

    /// Dropping the receiver drops what it left queued, at once, even
    /// while a sender lives on.
    #[test]
    fn receiver_drop_discards_queued_messages() {
        let (tx, rx) = unbounded();
        let queued = std::sync::Arc::new(());
        tx.send(std::sync::Arc::clone(&queued)).unwrap();
        drop(rx);
        assert_eq!(std::sync::Arc::strong_count(&queued), 1, "still queued");
        assert!(tx.send(queued).is_err());
    }

    #[test]
    fn timeout_elapses() {
        let (_tx, rx) = unbounded::<u32>();
        let r = rx.recv_timeout(Duration::from_millis(10));
        assert_eq!(r, Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv().unwrap());
        }
        t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clone_endpoints_share_queue() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx2.send(7).unwrap();
        assert_eq!(rx.recv(), Ok(7));
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
