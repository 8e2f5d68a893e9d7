//! Bounded request queue with deadline-based batch coalescing.
//!
//! The serving front end (`winofuse serve`) is a classic dynamic
//! batcher: producers push requests from any thread, one worker drains
//! them in batches of up to `max` items, waiting at most a batch-window
//! deadline after the first item arrives so a lone request is never
//! parked behind a timer that nothing else will fill. The queue is the
//! admission-control point — it is *bounded*, and a push against a full
//! queue fails fast with [`ServeError::Overloaded`] instead of growing an
//! unbounded backlog whose tail latency nobody can meet.
//!
//! Shutdown is a graceful drain: [`ServeQueue::close`] stops admission
//! immediately, while [`ServeQueue::pop_batch`] keeps handing out the
//! already-admitted items until the queue is empty and only then returns
//! `None`.
//!
//! Plain `Mutex` + `Condvar`, no channels: the queue state is one
//! `VecDeque` behind one lock, and both blocking operations are standard
//! condition-variable loops.
//!
//! Every lock acquisition recovers from poisoning: the serve worker runs
//! request batches under `catch_unwind`, so a panic while a producer or
//! the worker holds this lock must not condemn every *later* operation
//! to `PoisonError` panics — the queue's invariants are simple enough
//! (`VecDeque` plus a flag, both updated in single statements) that the
//! state is always consistent when the lock is released, panicked or
//! not.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Typed admission-control failures surfaced to request producers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The queue is at capacity; the request was rejected, not enqueued.
    /// Backpressure, not failure — the caller may retry later.
    Overloaded {
        /// Queue depth observed at rejection time.
        depth: usize,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The queue has been closed for shutdown; no new requests are
    /// admitted (items already queued still drain).
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, capacity } => {
                write!(
                    f,
                    "queue overloaded ({depth}/{capacity} requests in flight)"
                )
            }
            ServeError::Closed => write!(f, "queue closed (server shutting down)"),
        }
    }
}

impl Error for ServeError {}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer queue whose consumer pops *batches*: up to
/// `max` items, coalesced within a deadline window measured from the
/// moment the first item of the batch is taken.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use winofuse_runtime::serve::ServeQueue;
///
/// let q = ServeQueue::bounded(4);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// let batch = q.pop_batch(8, Duration::ZERO).unwrap();
/// assert_eq!(batch, vec![1, 2]);
/// q.close();
/// assert!(q.pop_batch(8, Duration::ZERO).is_none());
/// ```
pub struct ServeQueue<T> {
    state: Mutex<QueueState<T>>,
    cond: Condvar,
    capacity: usize,
}

impl<T> ServeQueue<T> {
    /// Locks the queue state, recovering from poisoning (see the module
    /// docs for why that is sound here).
    fn lock_state(&self) -> MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a queue admitting at most `capacity` items at a time.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero — a queue that can never admit a
    /// request is a configuration error, not a backpressure policy.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "serve queue capacity must be positive");
        ServeQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// The configured admission cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.lock_state().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`ServeQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock_state().closed
    }

    /// Enqueues an item, returning the queue depth after the push.
    ///
    /// # Errors
    ///
    /// Returns the item back together with [`ServeError::Overloaded`]
    /// when the queue is full, or [`ServeError::Closed`] after shutdown
    /// began — in both cases nothing was enqueued.
    pub fn push(&self, item: T) -> Result<usize, (ServeError, T)> {
        let mut state = self.lock_state();
        if state.closed {
            return Err((ServeError::Closed, item));
        }
        if state.items.len() >= self.capacity {
            return Err((
                ServeError::Overloaded {
                    depth: state.items.len(),
                    capacity: self.capacity,
                },
                item,
            ));
        }
        state.items.push_back(item);
        let depth = state.items.len();
        drop(state);
        self.cond.notify_all();
        Ok(depth)
    }

    /// Closes the queue: subsequent pushes fail with
    /// [`ServeError::Closed`], and consumers drain the remaining items
    /// before [`ServeQueue::pop_batch`] starts returning `None`.
    pub fn close(&self) {
        self.lock_state().closed = true;
        self.cond.notify_all();
    }

    /// Blocks until at least one item is available, then coalesces up to
    /// `max` items, waiting at most `window` (measured from the first
    /// item taken) for stragglers. Returns `None` only when the queue is
    /// closed *and* fully drained.
    ///
    /// # Panics
    ///
    /// Panics when `max` is zero.
    pub fn pop_batch(&self, max: usize, window: Duration) -> Option<Vec<T>> {
        assert!(max > 0, "batch size must be positive");
        let mut state = self.lock_state();
        // Phase 1: wait for the first item (or shutdown with an empty
        // queue).
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = self
                .cond
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let mut batch = Vec::with_capacity(max.min(state.items.len()));
        batch.push(state.items.pop_front().unwrap());
        // Phase 2: coalesce until the batch is full, the window expires,
        // or shutdown makes further waiting pointless.
        let deadline = Instant::now() + window;
        loop {
            while batch.len() < max {
                match state.items.pop_front() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            if batch.len() >= max || state.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timeout) = self
                .cond
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            if timeout.timed_out() && state.items.is_empty() {
                break;
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_reports_depth_and_rejects_when_full() {
        let q = ServeQueue::bounded(2);
        assert_eq!(q.push(1), Ok(1));
        assert_eq!(q.push(2), Ok(2));
        let (err, rejected) = q.push(3).unwrap_err();
        assert_eq!(
            err,
            ServeError::Overloaded {
                depth: 2,
                capacity: 2
            }
        );
        assert_eq!(rejected, 3);
        assert_eq!(q.len(), 2);
        // Draining frees capacity again.
        assert_eq!(q.pop_batch(8, Duration::ZERO), Some(vec![1, 2]));
        assert_eq!(q.push(3), Ok(1));
    }

    #[test]
    fn pop_batch_respects_max() {
        let q = ServeQueue::bounded(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_batch(3, Duration::ZERO), Some(vec![0, 1, 2]));
        assert_eq!(q.pop_batch(3, Duration::ZERO), Some(vec![3, 4]));
    }

    #[test]
    fn pop_batch_coalesces_items_arriving_within_window() {
        let q = Arc::new(ServeQueue::bounded(8));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.push(1).unwrap();
                std::thread::sleep(Duration::from_millis(5));
                q.push(2).unwrap();
                // Ends the window once both items are in, so the test
                // does not wait out the rest of it.
                q.close();
            })
        };
        // A generous window: both items coalesce into one batch even
        // though the second arrives after the first is already taken.
        let batch = q.pop_batch(8, Duration::from_secs(5)).unwrap();
        producer.join().unwrap();
        // The batch holds at least the first item; with the second
        // arriving inside the window it joins too unless the scheduler
        // delayed the producer past the (5 s!) deadline — impossible.
        assert_eq!(batch, vec![1, 2]);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = ServeQueue::bounded(8);
        q.push("a").unwrap();
        q.push("b").unwrap();
        q.close();
        assert_eq!(q.push("c").unwrap_err().0, ServeError::Closed);
        // Already-admitted items still come out...
        assert_eq!(q.pop_batch(1, Duration::ZERO), Some(vec!["a"]));
        assert_eq!(q.pop_batch(1, Duration::ZERO), Some(vec!["b"]));
        // ...then the drain completes.
        assert_eq!(q.pop_batch(1, Duration::ZERO), None);
        assert!(q.is_closed());
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: Arc<ServeQueue<u32>> = Arc::new(ServeQueue::bounded(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn many_producers_one_consumer_loses_nothing() {
        let q = Arc::new(ServeQueue::bounded(1024));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        q.push(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut seen = Vec::new();
        while let Some(batch) = q.pop_batch(7, Duration::ZERO) {
            assert!(!batch.is_empty() && batch.len() <= 7);
            seen.extend(batch);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..400).collect::<Vec<_>>());
    }

    #[test]
    fn queue_survives_a_panic_that_poisons_the_lock() {
        // The serve worker runs batches under catch_unwind; a panic on a
        // thread that holds (or has held) the queue lock must not turn
        // every subsequent push/pop into a PoisonError panic.
        let q: Arc<ServeQueue<u32>> = Arc::new(ServeQueue::bounded(8));
        q.push(1).unwrap();
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.lock_state();
                panic!("injected fault while holding the queue lock");
            })
        };
        assert!(poisoner.join().is_err(), "poisoner must panic");
        assert!(q.state.is_poisoned(), "lock must actually be poisoned");
        // Every operation still works on the recovered state.
        assert_eq!(q.len(), 1);
        assert_eq!(q.push(2), Ok(2));
        assert_eq!(q.pop_batch(8, Duration::ZERO), Some(vec![1, 2]));
        assert!(!q.is_closed());
        q.close();
        assert_eq!(q.push(3).unwrap_err().0, ServeError::Closed);
        assert_eq!(q.pop_batch(8, Duration::ZERO), None);
    }

    #[test]
    fn blocked_consumer_survives_poisoned_wakeup() {
        // Poison the lock while a consumer is parked in the condvar
        // wait; the wakeup path must also recover.
        let q: Arc<ServeQueue<u32>> = Arc::new(ServeQueue::bounded(8));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(4, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(10));
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut guard = q.lock_state();
                guard.items.push_back(7);
                q.cond.notify_all();
                panic!("injected fault after enqueue");
            })
        };
        assert!(poisoner.join().is_err());
        // Closing ends the consumer's batch window now instead of after
        // its 30 s; the item it woke for is still in the batch.
        q.close();
        assert_eq!(consumer.join().unwrap(), Some(vec![7]));
    }

    #[test]
    fn overloaded_error_formats_depth() {
        let e = ServeError::Overloaded {
            depth: 64,
            capacity: 64,
        };
        assert!(e.to_string().contains("64/64"));
        assert!(ServeError::Closed.to_string().contains("shutting down"));
    }
}
