//! The bounded submission queue under the worker pool.
//!
//! A plain `Mutex<VecDeque> + Condvar` multi-producer/multi-consumer
//! channel with two properties the engine needs that `std::sync::
//! mpsc` does not provide:
//!
//! * **bounded with blocking producers** — clients exert back-pressure
//!   instead of growing an unbounded backlog;
//! * **close-then-drain** — [`Bounded::close`] refuses new items but
//!   lets consumers pop everything already queued (graceful-drain
//!   shutdown: no submitted request is ever dropped).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a non-blocking push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue was closed; the item is handed back.
    Closed(T),
    /// The queue was at capacity; the item is handed back.
    Full(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded, closable MPMC queue.
pub struct Bounded<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Bounded<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero (a zero-capacity queue would
    /// deadlock every producer).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Bounded {
            capacity,
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueues an item, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item back when the queue is (or becomes) closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if inner.closed {
                return Err(item);
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner).expect("queue lock");
        }
    }

    /// Enqueues an item without blocking.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Closed`] after [`Bounded::close`],
    /// [`TryPushError::Full`] at capacity; the item is handed back in
    /// both cases.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock");
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        inner.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the front item, blocking while the queue is empty and
    /// open. Returns `None` only when the queue is closed **and**
    /// fully drained — consumers see every item that was accepted.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
    }

    /// Closes the queue: every subsequent push fails, every blocked
    /// producer wakes with an error, and consumers drain what remains.
    /// Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock");
        inner.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`Bounded::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("queue lock").closed
    }

    /// Items currently queued (not yet claimed by a worker).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = Bounded::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn push_after_close_returns_the_item() {
        let q = Bounded::new(2);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(2));
        assert_eq!(q.try_push(3), Err(TryPushError::Closed(3)));
        // The accepted item is still drained.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn try_push_full() {
        let q = Bounded::new(1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(TryPushError::Full(2)));
    }

    #[test]
    fn blocked_producer_wakes_on_close() {
        let q = Arc::new(Bounded::new(1));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(1));
        // Give the producer time to block on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(1));
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(1));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
