//! The event queue: a time-ordered heap with deterministic tie-breaking.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending event wrapper ordered by (time, insertion sequence).
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A discrete-event queue. Events scheduled for the same instant pop in
/// insertion order, making simulations deterministic.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    seq: u64,
    processed: u64,
    peak: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue that can hold `n` pending events without
    /// reallocating — size it to the expected steady-state event
    /// population (e.g. one in-flight arrival per source plus in-service
    /// batches) so the heap never grows mid-run.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            peak: 0,
        }
    }

    /// Reserve room for `additional` more pending events — call before a
    /// schedule burst (e.g. booking a whole recovery timeline) to pay for
    /// growth once instead of amortizing it inside the loop.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Largest number of events that were pending at once.
    #[must_use]
    pub fn peak_pending(&self) -> usize {
        self.peak
    }

    /// Current simulation time (time of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds, scheduling into the past panics — it would violate
    /// causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
        self.peak = self.peak.max(self.heap.len());
    }

    /// Schedule `event` after `delay` from now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.at;
        self.processed += 1;
        Some((entry.at, entry.event))
    }

    /// Peek at the next event time without popping.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(5.0), "c");
        q.schedule(SimTime::from_ms(1.0), "a");
        q.schedule(SimTime::from_ms(3.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ms(2.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(1.0), ());
        q.schedule(SimTime::from_ms(2.0), ());
        let mut last = SimTime::ZERO;
        while let Some((t, ())) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), SimTime::from_ms(2.0));
        assert_eq!(q.processed(), 2);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(10.0), 1);
        q.pop();
        q.schedule_in(SimTime::from_ms(5.0), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(15.0)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(10.0), ());
        q.pop();
        q.schedule(SimTime::from_ms(1.0), ());
    }

    #[test]
    fn fifo_tie_breaking_survives_preallocation() {
        // The capacity path must not disturb (time, insertion) ordering:
        // schedule bursts of simultaneous events across a reserve() call
        // and require exact FIFO pop order among equal timestamps.
        let mut q = EventQueue::with_capacity(8);
        let t1 = SimTime::from_ms(4.0);
        let t0 = SimTime::from_ms(2.0);
        for i in 0..40 {
            q.schedule(t1, ("late", i));
        }
        q.reserve(100);
        for i in 0..60 {
            q.schedule(t1, ("late", 40 + i));
        }
        q.schedule(t0, ("early", 0));
        assert_eq!(q.pop(), Some((t0, ("early", 0))));
        for want in 0..100 {
            let (at, (tag, i)) = q.pop().expect("event");
            assert_eq!((at, tag, i), (t1, "late", want));
        }
        assert!(q.pop().is_none());
        assert_eq!(q.peak_pending(), 101);
    }

    #[test]
    fn interleaved_scheduling() {
        // Events scheduled while draining still order correctly.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ms(1.0), 1u32);
        let mut seen = Vec::new();
        while let Some((t, e)) = q.pop() {
            seen.push(e);
            if e < 4 {
                q.schedule(t + SimTime::from_ms(1.0), e + 1);
            }
        }
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }
}
