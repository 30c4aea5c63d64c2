//! Bounded in-process buffers.
//!
//! [`Ring`] is the one bounded drop-oldest buffer of the workspace:
//! lossless until the cap, then oldest-first eviction with an explicit
//! drop counter so consumers can tell truncation from a quiet run.
//! [`RingSink`] is a [`Ring`] of telemetry events behind a lock — a
//! flight recorder: attach it for a whole job, then dump the tail only
//! when something goes wrong. `sprout-serve`'s per-job event bus keeps
//! its channels in the same type.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::{Event, Recorder};

/// A bounded FIFO that evicts its oldest item when full and counts the
/// evictions. Not synchronized: owners put it behind their own lock.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            items: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Maximum number of retained items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends `item`, evicting the oldest one first when full.
    /// Returns `true` when an item was evicted.
    pub fn push(&mut self, item: T) -> bool {
        let evict = self.items.len() >= self.capacity;
        if evict {
            self.items.pop_front();
            self.dropped += 1;
        }
        self.items.push_back(item);
        evict
    }

    /// Items evicted so far (0 means the ring is still lossless).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of items currently retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no items are retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes and returns the retained items, oldest first, and zeroes
    /// the drop counter.
    pub fn drain(&mut self) -> Vec<T> {
        self.dropped = 0;
        self.items.drain(..).collect()
    }
}

/// A bounded FIFO of recent [`Event`]s.
#[derive(Debug)]
pub struct RingSink {
    inner: Mutex<Ring<Event>>,
}

impl RingSink {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> RingSink {
        RingSink {
            inner: Mutex::new(Ring::new(capacity)),
        }
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, Ring<Event>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.ring().capacity()
    }

    /// Number of events evicted so far (0 means the buffer is still
    /// lossless).
    pub fn dropped(&self) -> u64 {
        self.ring().dropped()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring().len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring().iter().cloned().collect()
    }

    /// Removes and returns the retained events, oldest first, and
    /// zeroes the drop counter.
    pub fn drain(&self) -> Vec<Event> {
        self.ring().drain()
    }
}

impl Recorder for RingSink {
    fn record(&self, event: &Event) {
        self.ring().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fields;

    fn pt(name: &'static str) -> Event {
        Event::Point {
            name,
            parent: None,
            depth: 0,
            fields: Fields::new(),
        }
    }

    #[test]
    fn lossless_under_capacity() {
        let ring = RingSink::new(4);
        ring.record(&pt("a"));
        ring.record(&pt("b"));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(
            ring.events().iter().map(|e| e.name()).collect::<Vec<_>>(),
            ["a", "b"]
        );
    }

    #[test]
    fn evicts_oldest_and_counts_drops() {
        let ring = RingSink::new(2);
        for name in ["a", "b", "c", "d"] {
            ring.record(&pt(name));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(
            ring.events().iter().map(|e| e.name()).collect::<Vec<_>>(),
            ["c", "d"]
        );
    }

    #[test]
    fn drain_empties_and_resets() {
        let ring = RingSink::new(1);
        ring.record(&pt("a"));
        ring.record(&pt("b"));
        let drained = ring.drain();
        assert_eq!(drained.len(), 1);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = RingSink::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(&pt("only"));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn fill_to_exact_capacity_is_still_lossless() {
        let ring = RingSink::new(3);
        for name in ["a", "b", "c"] {
            ring.record(&pt(name));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 0, "hitting capacity exactly drops nothing");
        // One more event tips it over.
        ring.record(&pt("d"));
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(
            ring.events().iter().map(|e| e.name()).collect::<Vec<_>>(),
            ["b", "c", "d"]
        );
    }

    #[test]
    fn wrap_many_times_keeps_newest_window_and_total_drop_count() {
        let ring = RingSink::new(4);
        let names: Vec<String> = (0..25).map(|i| format!("e{i}")).collect();
        let leaked: Vec<&'static str> = names
            .iter()
            .map(|s| Box::leak(s.clone().into_boxed_str()) as &'static str)
            .collect();
        for &name in &leaked {
            ring.record(&pt(name));
        }
        // 25 events through a 4-slot ring → 21 evictions, newest 4 kept
        // in arrival order.
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 21);
        assert_eq!(
            ring.events().iter().map(|e| e.name()).collect::<Vec<_>>(),
            ["e21", "e22", "e23", "e24"]
        );
    }

    #[test]
    fn refill_after_drain_wraps_independently() {
        let ring = RingSink::new(2);
        for name in ["a", "b", "c"] {
            ring.record(&pt(name));
        }
        assert_eq!(ring.dropped(), 1);
        ring.drain();
        // After drain the ring restarts lossless from empty.
        ring.record(&pt("x"));
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.len(), 1);
        ring.record(&pt("y"));
        ring.record(&pt("z"));
        assert_eq!(ring.dropped(), 1, "second wrap counts from zero");
        assert_eq!(
            ring.events().iter().map(|e| e.name()).collect::<Vec<_>>(),
            ["y", "z"]
        );
    }

    #[test]
    fn events_is_non_destructive_while_wrapping() {
        let ring = RingSink::new(2);
        ring.record(&pt("a"));
        ring.record(&pt("b"));
        let first = ring.events();
        let second = ring.events();
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 2, "peeking does not consume");
        ring.record(&pt("c"));
        assert_eq!(ring.dropped(), 1, "peeking does not reset drop counter");
    }
}
