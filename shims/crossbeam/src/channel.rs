//! Bounded multi-producer multi-consumer channels.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// Creates a bounded channel with room for `cap` in-flight records.
///
/// Unlike crossbeam, zero-capacity (rendezvous) channels are not supported —
/// nothing in this workspace uses them.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap >= 1, "shim channels require capacity >= 1");
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::with_capacity(cap),
            senders: 1,
            receivers: 1,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap,
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

struct Inner<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers waiting on `not_empty` in `recv`/`recv_timeout`. A push
    /// wakes one only when this is non-zero; it is changed under the same
    /// lock as `queue`, so a receiver that found the queue empty is counted
    /// before any sender can see that queue again — no wake-up is lost.
    parked_receivers: usize,
    /// Senders waiting on `not_full` in `send`; a pop wakes one only when
    /// this is non-zero (same rule as `parked_receivers`).
    parked_senders: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A sender/receiver panicking while holding the lock leaves the
        // queue in a consistent state (all mutations are single push/pop
        // operations), so poisoning is ignored.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pushes `record`, releases the lock and wakes one parked receiver,
    /// if there is one.
    fn push(&self, mut inner: std::sync::MutexGuard<'_, Inner<T>>, record: T) {
        inner.queue.push_back(record);
        let wake = inner.parked_receivers > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Releases the lock after a pop and wakes one parked sender, if there
    /// is one.
    fn popped(&self, inner: std::sync::MutexGuard<'_, Inner<T>>) {
        let wake = inner.parked_senders > 0;
        drop(inner);
        if wake {
            self.not_full.notify_one();
        }
    }
}

/// Error returned by [`Sender::send`] when every receiver is gone; carries
/// the unsent record.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// Error returned by [`Sender::try_send`].
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// True if the failure was a disconnect (not mere fullness).
    pub fn is_disconnected(&self) -> bool {
        matches!(self, TrySendError::Disconnected(_))
    }

    /// True if the channel was full.
    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }

    /// Recovers the unsent record.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(t) | TrySendError::Disconnected(t) => t,
        }
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "TrySendError::Full(..)"),
            TrySendError::Disconnected(_) => write!(f, "TrySendError::Disconnected(..)"),
        }
    }
}

/// Error returned by [`Receiver::recv`] when the channel is drained and
/// every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty (senders still connected).
    Empty,
    /// The channel is drained and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with the channel still empty.
    Timeout,
    /// The channel is drained and every sender is gone.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "timed out waiting on an empty channel"),
            RecvTimeoutError::Disconnected => {
                write!(f, "receiving on an empty, disconnected channel")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// The sending half of a bounded channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Sends a record, blocking while the channel is full. Fails only when
    /// every receiver has been dropped.
    pub fn send(&self, record: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.lock();
        loop {
            if inner.receivers == 0 {
                return Err(SendError(record));
            }
            if inner.queue.len() < self.shared.cap {
                self.shared.push(inner, record);
                return Ok(());
            }
            inner.parked_senders += 1;
            inner = self
                .shared
                .not_full
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
            inner.parked_senders -= 1;
        }
    }

    /// Non-blocking send: fails immediately when full or disconnected.
    pub fn try_send(&self, record: T) -> Result<(), TrySendError<T>> {
        let inner = self.shared.lock();
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(record));
        }
        if inner.queue.len() >= self.shared.cap {
            return Err(TrySendError::Full(record));
        }
        self.shared.push(inner, record);
        Ok(())
    }

    /// Number of records currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// True if no records are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.senders -= 1;
        let last = inner.senders == 0;
        drop(inner);
        if last {
            // Wake blocked receivers so they observe the disconnect.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sender {{ queued: {} }}", self.len())
    }
}

/// The receiving half of a bounded channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Receives a record, blocking while the channel is empty. Fails only
    /// when the queue is drained and every sender has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.lock();
        loop {
            if let Some(record) = inner.queue.pop_front() {
                self.shared.popped(inner);
                return Ok(record);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner.parked_receivers += 1;
            inner = self
                .shared
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
            inner.parked_receivers -= 1;
        }
    }

    /// Receives a record, blocking at most `timeout` while the channel is
    /// empty.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.shared.lock();
        loop {
            if let Some(record) = inner.queue.pop_front() {
                self.shared.popped(inner);
                return Ok(record);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = std::time::Instant::now();
            let Some(left) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return Err(RecvTimeoutError::Timeout);
            };
            inner.parked_receivers += 1;
            let (guard, _) = self
                .shared
                .not_empty
                .wait_timeout(inner, left)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
            inner.parked_receivers -= 1;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.shared.lock();
        if let Some(record) = inner.queue.pop_front() {
            self.shared.popped(inner);
            return Ok(record);
        }
        if inner.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// A blocking iterator that ends when the channel disconnects.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }

    /// A non-blocking iterator over the records currently queued.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }

    /// Number of records currently queued.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// True if no records are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.receivers -= 1;
        let last = inner.receivers == 0;
        drop(inner);
        if last {
            // Wake blocked senders so they observe the disconnect.
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Receiver {{ queued: {} }}", self.len())
    }
}

/// Blocking iterator over received records (see [`Receiver::iter`]).
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

/// Non-blocking iterator over queued records (see [`Receiver::try_iter`]).
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter { receiver: self }
    }
}

/// Owning blocking iterator.
pub struct IntoIter<T> {
    receiver: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn round_trip_in_order() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn send_blocks_until_capacity_frees() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv().unwrap(), 1);
        h.join().unwrap();
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn parked_receivers_are_woken_by_a_push() {
        let (tx, rx) = bounded(4);
        let (got_tx, got_rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            got_tx.send(rx.recv().unwrap()).unwrap();
            got_tx
                .send(rx.recv_timeout(Duration::from_secs(60)).unwrap())
                .unwrap();
        });
        for record in [1, 2] {
            std::thread::sleep(Duration::from_millis(10));
            tx.send(record).unwrap();
            assert_eq!(got_rx.recv_timeout(Duration::from_secs(30)), Ok(record));
        }
        h.join().unwrap();
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let (tx, rx) = bounded(2);
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn blocked_send_wakes_on_receiver_drop() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(Duration::from_millis(10));
        drop(rx);
        assert!(h.join().unwrap().is_err(), "send must fail, not hang");
    }

    #[test]
    fn recv_drains_queue_after_sender_drop() {
        let (tx, rx) = bounded(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert!(tx.try_send(2).unwrap_err().is_full());
        drop(rx);
        assert!(tx.try_send(3).unwrap_err().is_disconnected());
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = bounded(2);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(7));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn mpmc_multiset_is_preserved() {
        let (tx, rx) = bounded(16);
        let mut senders = Vec::new();
        for p in 0..4 {
            let tx = tx.clone();
            senders.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    tx.send(p * 100 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            consumers.push(std::thread::spawn(move || rx.iter().collect::<Vec<u64>>()));
        }
        drop(rx);
        for h in senders {
            h.join().unwrap();
        }
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<_>>());
    }

    /// 4 senders and 4 receivers move `ITEMS` records through a channel of
    /// capacity `cap`, mixing every send and receive flavour. Returns what
    /// the receivers got, sorted.
    fn stress(cap: usize) -> Vec<u64> {
        const ITEMS: u64 = 100_000;
        const PER_SENDER: u64 = ITEMS / 4;
        let (tx, rx) = bounded(cap);
        let senders: Vec<_> = (0..4u64)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for item in p * PER_SENDER..(p + 1) * PER_SENDER {
                        if item % 2 == 0 {
                            tx.send(item).unwrap();
                        } else if let Err(e) = tx.try_send(item) {
                            assert!(e.is_full(), "receivers outlive senders");
                            tx.send(e.into_inner()).unwrap();
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let receivers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for turn in 0u64.. {
                        let item = match turn % 3 {
                            0 => rx.recv().ok(),
                            1 => match rx.recv_timeout(Duration::from_millis(1)) {
                                Ok(item) => Some(item),
                                Err(RecvTimeoutError::Timeout) => continue,
                                Err(RecvTimeoutError::Disconnected) => None,
                            },
                            _ => match rx.try_recv() {
                                Ok(item) => Some(item),
                                Err(TryRecvError::Empty) => continue,
                                Err(TryRecvError::Disconnected) => None,
                            },
                        };
                        match item {
                            Some(item) => got.push(item),
                            None => break,
                        }
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        for h in senders {
            h.join().unwrap();
        }
        let mut all: Vec<u64> = receivers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all.len() as u64, ITEMS);
        all
    }

    #[test]
    fn stress_every_item_arrives_exactly_once_without_a_hang() {
        for cap in [1, 4] {
            // A lost wake-up shows as a hang: run under a watchdog.
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || done_tx.send(stress(cap)).unwrap());
            let all = done_rx
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("bounded({cap}) stress hung or panicked"));
            assert!(
                all.iter().copied().eq(0..all.len() as u64),
                "bounded({cap}): items lost or duplicated"
            );
        }
    }
}
