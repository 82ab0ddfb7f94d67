//! The pub/sub fan-out: one publisher (the pipeline's event callback), many
//! subscribers, bounded queues, slow-consumer shedding.
//!
//! Every subscriber owns a bounded channel of pre-rendered event lines. The
//! publisher never blocks on a subscriber: [`Hub::publish`] uses `try_send`,
//! and a subscriber whose queue is full is **shed** — removed from the hub
//! and its channel closed, which makes its writer loop drain the backlog
//! and close the socket. Ingestion latency is therefore isolated from the
//! slowest reader, at the cost of that reader's subscription (it can
//! reconnect and resubscribe).

use crate::protocol::{EventKind, Topic};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One registered subscriber.
struct Subscriber {
    id: u64,
    topic: Topic,
    queue: Sender<Arc<str>>,
}

/// The fan-out registry.
pub struct Hub {
    subscribers: Mutex<Vec<Subscriber>>,
    next_id: AtomicU64,
    shed: AtomicU64,
    queue_capacity: usize,
}

/// A subscription handle: drain [`SubscriberHandle::lines`] and write them
/// to the peer. The stream ends (after draining) when the subscriber is
/// shed or the hub closes.
pub struct SubscriberHandle {
    /// Hub-assigned subscriber id.
    pub id: u64,
    lines: Receiver<Arc<str>>,
}

impl SubscriberHandle {
    /// The subscriber's event-line stream.
    pub fn lines(&self) -> &Receiver<Arc<str>> {
        &self.lines
    }
}

impl Hub {
    /// A hub whose subscribers each buffer at most `queue_capacity` lines.
    pub fn new(queue_capacity: usize) -> Self {
        Hub {
            subscribers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            shed: AtomicU64::new(0),
            queue_capacity: queue_capacity.max(1),
        }
    }

    /// Registers a subscriber for `topic`.
    pub fn subscribe(&self, topic: Topic) -> SubscriberHandle {
        let (tx, rx) = bounded(self.queue_capacity);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.subscribers.lock().push(Subscriber {
            id,
            topic,
            queue: tx,
        });
        SubscriberHandle { id, lines: rx }
    }

    /// Removes a subscriber (normal disconnect). No-op if already shed.
    pub fn unsubscribe(&self, id: u64) {
        self.subscribers.lock().retain(|s| s.id != id);
    }

    /// Publishes one event line to every subscriber whose topic accepts
    /// `kind`. Never blocks: subscribers that cannot take the line are shed
    /// on the spot (subscribers that simply hung up are reaped without
    /// counting as shed). Returns the ids of the subscribers shed (empty
    /// in the common case — no allocation happens then).
    pub fn publish(&self, kind: EventKind, line: &Arc<str>) -> Vec<u64> {
        self.fan_out(&mut self.subscribers.lock(), kind, line)
    }

    /// [`Hub::publish`] for a line only worth rendering if somebody will
    /// receive it: `render` runs — under the registry lock, so it must not
    /// block — only when a subscriber's topic accepts `kind`, so events
    /// nobody will receive cost one lock hold and no rendering.
    pub fn publish_with(&self, kind: EventKind, render: impl FnOnce() -> Arc<str>) -> Vec<u64> {
        let mut subscribers = self.subscribers.lock();
        if !subscribers.iter().any(|s| s.topic.accepts(kind)) {
            return Vec::new();
        }
        let line = render();
        self.fan_out(&mut subscribers, kind, &line)
    }

    fn fan_out(
        &self,
        subscribers: &mut Vec<Subscriber>,
        kind: EventKind,
        line: &Arc<str>,
    ) -> Vec<u64> {
        let mut shed = Vec::new();
        subscribers.retain(|s| {
            if !s.topic.accepts(kind) {
                return true;
            }
            match s.queue.try_send(Arc::clone(line)) {
                Ok(()) => true,
                // Queue full: the consumer is too slow — shed it. Dropping
                // the sender ends its line stream after the backlog drains.
                Err(TrySendError::Full(_)) => {
                    shed.push(s.id);
                    false
                }
                // Consumer already hung up; reap the entry silently.
                Err(TrySendError::Disconnected(_)) => false,
            }
        });
        if !shed.is_empty() {
            self.shed.fetch_add(shed.len() as u64, Ordering::Relaxed);
        }
        shed
    }

    /// Depth of the fullest subscriber queue right now — the proactive
    /// health gauge behind `max_subscriber_queue_depth`: a value climbing
    /// toward the queue capacity means a consumer is falling behind and
    /// about to be shed, visible *before* the disconnect happens.
    pub fn max_queue_depth(&self) -> usize {
        self.subscribers
            .lock()
            .iter()
            .map(|s| s.queue.len())
            .max()
            .unwrap_or(0)
    }

    /// Number of currently registered subscribers.
    pub fn len(&self) -> usize {
        self.subscribers.lock().len()
    }

    /// True when no subscriber is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total subscribers shed since the hub was created.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Closes every subscription (end of stream): each subscriber's line
    /// stream ends once it drains its backlog.
    pub fn close(&self) {
        self.subscribers.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn publish_reaches_matching_topics() {
        let hub = Hub::new(8);
        let patterns = hub.subscribe(Topic::Patterns);
        let all = hub.subscribe(Topic::All);
        hub.publish(EventKind::Pattern, &line("p"));
        hub.publish(EventKind::Snapshot, &line("s"));
        hub.close();
        let got: Vec<Arc<str>> = patterns.lines().iter().collect();
        assert_eq!(got, vec![line("p")]);
        let got: Vec<Arc<str>> = all.lines().iter().collect();
        assert_eq!(got, vec![line("p"), line("s")]);
    }

    #[test]
    fn publish_with_renders_only_for_an_audience() {
        let hub = Hub::new(8);
        let snapshots = hub.subscribe(Topic::Snapshots);
        let shed = hub.publish_with(EventKind::Pattern, || unreachable!("nobody listens"));
        assert!(shed.is_empty());
        hub.publish_with(EventKind::Snapshot, || line("s"));
        hub.close();
        let got: Vec<Arc<str>> = snapshots.lines().iter().collect();
        assert_eq!(got, vec![line("s")]);
    }

    #[test]
    fn slow_subscriber_is_shed_fast_one_survives() {
        let hub = Hub::new(2);
        let _slow = hub.subscribe(Topic::All); // never drained
        let fast = hub.subscribe(Topic::All);
        let mut shed_total = Vec::new();
        for i in 0..10 {
            shed_total.extend(hub.publish(EventKind::Pattern, &line(&i.to_string())));
            // Keep the fast subscriber drained.
            while fast.lines().try_recv().is_ok() {}
        }
        assert_eq!(
            shed_total,
            vec![_slow.id],
            "exactly the slow subscriber is shed"
        );
        assert_eq!(hub.shed_count(), 1);
        assert_eq!(hub.len(), 1, "fast subscriber still registered");
    }

    #[test]
    fn shed_subscriber_still_drains_its_backlog() {
        let hub = Hub::new(2);
        let sub = hub.subscribe(Topic::All);
        hub.publish(EventKind::Pattern, &line("a"));
        hub.publish(EventKind::Pattern, &line("b"));
        hub.publish(EventKind::Pattern, &line("c")); // full → shed
        assert_eq!(hub.len(), 0);
        // The backlog (a, b) is still deliverable; the stream then ends.
        let got: Vec<Arc<str>> = sub.lines().iter().collect();
        assert_eq!(got, vec![line("a"), line("b")]);
    }

    #[test]
    fn max_queue_depth_tracks_the_fullest_subscriber() {
        let hub = Hub::new(4);
        assert_eq!(hub.max_queue_depth(), 0, "no subscribers, no depth");
        let lagging = hub.subscribe(Topic::All);
        let drained = hub.subscribe(Topic::All);
        hub.publish(EventKind::Pattern, &line("a"));
        hub.publish(EventKind::Pattern, &line("b"));
        while drained.lines().try_recv().is_ok() {}
        assert_eq!(hub.max_queue_depth(), 2, "the lagging queue dominates");
        while lagging.lines().try_recv().is_ok() {}
        assert_eq!(hub.max_queue_depth(), 0, "drained everywhere");
    }

    #[test]
    fn unsubscribe_and_disconnected_reaping() {
        let hub = Hub::new(4);
        let a = hub.subscribe(Topic::All);
        let b = hub.subscribe(Topic::All);
        hub.unsubscribe(a.id);
        assert_eq!(hub.len(), 1);
        drop(b);
        hub.publish(EventKind::Pattern, &line("x"));
        assert_eq!(hub.len(), 0, "disconnected subscriber reaped");
        // Dropping a subscriber is not "shedding" — no false positives.
        assert_eq!(hub.shed_count(), 0);
    }
}
