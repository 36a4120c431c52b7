//! A calendar (timing-wheel) event queue for allocation-free hot loops.
//!
//! [`CalendarQueue`] is the specialized sibling of the generic
//! [`crate::EventQueue`]: events are packed into single `u128` keys —
//! `time (48 bits) | insertion seq (32 bits) | payload (48 bits)` — and
//! bucketed by time into a rolling wheel of slots, giving O(1) schedule
//! and near-O(1) pop with entries that are one register wide. Ordering is
//! the full `u128` comparison, whose `(time, seq)` prefix is the exact
//! `(time, insertion order)` total order of [`crate::EventQueue`] (the
//! payload bits can never influence ordering because `seq` is unique), so
//! the two queues pop any identical schedule in the identical sequence —
//! property-tested in this module.
//!
//! Slots are `Vec<u128>` buckets reused across wheel wraps: after warm-up
//! the queue performs no allocation in steady state. Events beyond the
//! wheel horizon wait in a small overflow heap and are folded into slots
//! as the horizon rolls forward.
//!
//! The queue serializes as its clock, counters and pending events — a
//! `[at, seq, payload]` list in pop order — and rebuilds the wheel on
//! load, so a suspended simulation resumes with the identical pop order.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of wheel slots (must be a power of two).
const SLOTS: usize = 1024;
/// log2 of the slot width: each slot spans 1024 us (~1 ms).
const SLOT_SHIFT: u32 = 10;

const TIME_BITS: u32 = 48;
const SEQ_BITS: u32 = 32;
const PAYLOAD_BITS: u32 = 48;
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;
/// Sequence numbers a key can hold; reaching it renumbers the queue.
const SEQ_LIMIT: u64 = 1 << SEQ_BITS;

/// A time-ordered queue of `u128`-packed events with FIFO tie-breaking.
///
/// Payloads are caller-defined 48-bit values (an event tag plus small
/// indices); times are capped at 2⁴⁸ µs (~8.9 simulated years), which is
/// debug-asserted. Sequence numbers are 32 bits wide: when a long-running
/// queue reaches 2³² schedules it renumbers its pending events in pop
/// order, so the FIFO tie-break holds for any number of schedules.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    /// Rolling buckets; slot `s` holds events whose `at >> SLOT_SHIFT`
    /// is congruent to `s` and within the current horizon.
    slots: Vec<Vec<u128>>,
    /// Events of the current slot, sorted descending (pop takes the back).
    active: Vec<u128>,
    /// Events beyond the wheel horizon, min-first.
    overflow: BinaryHeap<Reverse<u128>>,
    /// Slot index (absolute, not wrapped) the active bucket belongs to;
    /// never past the slot of `now`'s next pending event.
    cur_slot: u64,
    /// Events currently stored in `slots` (not `active`, not `overflow`).
    in_slots: usize,
    now: SimTime,
    seq: u64,
    processed: u64,
    peak: usize,
    pending: usize,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            slots: vec![Vec::new(); SLOTS],
            active: Vec::new(),
            overflow: BinaryHeap::new(),
            cur_slot: 0,
            in_slots: 0,
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
            peak: 0,
            pending: 0,
        }
    }

    /// An empty queue whose active bucket can hold `n` events without
    /// reallocating.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        let mut q = Self::new();
        q.active.reserve(n);
        q
    }

    /// Current simulation time (time of the last popped event, or the
    /// bound of the last [`skip_to`](Self::skip_to)).
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
        self.pending
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Largest number of events that were pending at once.
    #[must_use]
    pub fn peak_pending(&self) -> usize {
        self.peak
    }

    #[inline]
    fn pack(at: SimTime, seq: u64, payload: u64) -> u128 {
        (u128::from(at.micros()) << (SEQ_BITS + PAYLOAD_BITS))
            | (u128::from(seq) << PAYLOAD_BITS)
            | u128::from(payload)
    }

    #[inline]
    fn unpack(key: u128) -> (SimTime, u64) {
        (
            SimTime((key >> (SEQ_BITS + PAYLOAD_BITS)) as u64),
            key as u64 & PAYLOAD_MASK,
        )
    }

    #[inline]
    fn seq_of(key: u128) -> u64 {
        (key >> PAYLOAD_BITS) as u64 & (SEQ_LIMIT - 1)
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// In debug builds: scheduling into the past, a payload above 48 bits
    /// or a time above 2⁴⁸ µs.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: u64) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        debug_assert!(payload <= PAYLOAD_MASK, "payload exceeds 48 bits");
        debug_assert!(at.micros() < 1 << TIME_BITS, "time exceeds 48 bits");
        if self.seq == SEQ_LIMIT {
            self.renumber();
        }
        let key = Self::pack(at, self.seq, payload);
        self.seq += 1;
        self.pending += 1;
        self.peak = self.peak.max(self.pending);
        self.place(key);
    }

    /// Schedule `payload` after `delay` from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, payload: u64) {
        self.schedule(self.now + delay, payload);
    }

    /// File one key into the active bucket, its wheel slot or overflow.
    #[inline]
    fn place(&mut self, key: u128) {
        let slot = Self::unpack(key).0.micros() >> SLOT_SHIFT;
        if slot == self.cur_slot {
            // Into the live bucket: sorted (descending) insert.
            let pos = self.active.partition_point(|&k| k > key);
            self.active.insert(pos, key);
        } else if slot < self.cur_slot + SLOTS as u64 {
            self.slots[(slot as usize) & (SLOTS - 1)].push(key);
            self.in_slots += 1;
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Every pending key, ascending (pop order).
    fn sorted_keys(&self) -> Vec<u128> {
        let mut keys: Vec<u128> = self
            .active
            .iter()
            .chain(self.slots.iter().flatten())
            .copied()
            .chain(self.overflow.iter().map(|&Reverse(k)| k))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Sequence numbers ran out: re-key the pending events `0..n` in pop
    /// order, which keeps their relative order and leaves every later
    /// schedule behind them.
    #[cold]
    fn renumber(&mut self) {
        let keys = self.sorted_keys();
        self.active.clear();
        self.slots.iter_mut().for_each(Vec::clear);
        self.overflow.clear();
        self.in_slots = 0;
        self.seq = 0;
        for key in keys {
            let (at, payload) = Self::unpack(key);
            self.place(Self::pack(at, self.seq, payload));
            self.seq += 1;
        }
    }

    /// Advance the wheel until `active` holds the next bucket's events.
    /// Stops short — returning `false` with the wheel no further than the
    /// slot of `until` — when no pending event is due by `until`.
    #[cold]
    fn advance(&mut self, until: SimTime) -> bool {
        debug_assert!(self.active.is_empty());
        let limit = until.micros() >> SLOT_SHIFT;
        loop {
            if self.cur_slot >= limit {
                return false;
            }
            if self.in_slots == 0 {
                // Nothing on the wheel: jump the horizon to the first
                // overflow event (or give up — nothing is pending).
                let Some(&Reverse(min)) = self.overflow.peek() else {
                    return false;
                };
                let target = Self::unpack(min).0.micros() >> SLOT_SHIFT;
                if target > limit {
                    return false;
                }
                self.cur_slot = self.cur_slot.max((target + 1).saturating_sub(SLOTS as u64));
            }
            self.cur_slot += 1;
            // Overflow events entering the horizon land on the wheel.
            while let Some(&Reverse(key)) = self.overflow.peek() {
                let slot = Self::unpack(key).0.micros() >> SLOT_SHIFT;
                if slot >= self.cur_slot + SLOTS as u64 {
                    break;
                }
                self.overflow.pop();
                self.slots[(slot as usize) & (SLOTS - 1)].push(key);
                self.in_slots += 1;
            }
            let idx = (self.cur_slot as usize) & (SLOTS - 1);
            if !self.slots[idx].is_empty() {
                // `active` is empty but keeps its capacity; the swap hands
                // that storage to the vacated slot for reuse next wrap.
                std::mem::swap(&mut self.active, &mut self.slots[idx]);
                self.in_slots -= self.active.len();
                self.active.sort_unstable_by(|a, b| b.cmp(a));
                return true;
            }
        }
    }

    /// Pop the next event, advancing the clock to its timestamp. Returns
    /// `(time, payload)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.pop_until(SimTime(u64::MAX))
    }

    /// Pop the next event if it is due at or before `until`, advancing the
    /// clock to its timestamp; `None` leaves a later event pending.
    #[inline]
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, u64)> {
        if self.active.is_empty() && (self.pending == 0 || !self.advance(until)) {
            return None;
        }
        let (at, payload) = Self::unpack(*self.active.last()?);
        if at > until {
            return None;
        }
        self.active.pop();
        self.now = at;
        self.processed += 1;
        self.pending -= 1;
        Some((at, payload))
    }

    /// Move the clock forward to `t` without popping (a no-op for a `t`
    /// already passed). No pending event may be due before `t` — the
    /// guarantee a [`pop_until(t)`](Self::pop_until) that returned `None`
    /// leaves behind.
    pub fn skip_to(&mut self, t: SimTime) {
        debug_assert!(
            self.sorted_keys()
                .first()
                .is_none_or(|&k| Self::unpack(k).0 >= t),
            "skipping past a pending event"
        );
        self.now = self.now.max(t);
    }
}

/// The serialized form: clock, counters and the pending events in pop
/// order as `[at, seq, payload]`.
#[derive(Serialize, Deserialize)]
struct Snapshot {
    now: SimTime,
    seq: u64,
    processed: u64,
    peak: usize,
    events: Vec<(u64, u64, u64)>,
}

impl Serialize for CalendarQueue {
    fn to_value(&self) -> serde::Value {
        Snapshot {
            now: self.now,
            seq: self.seq,
            processed: self.processed,
            peak: self.peak,
            events: self
                .sorted_keys()
                .into_iter()
                .map(|k| {
                    let (at, payload) = Self::unpack(k);
                    (at.micros(), Self::seq_of(k), payload)
                })
                .collect(),
        }
        .to_value()
    }
}

impl Deserialize for CalendarQueue {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let snap = Snapshot::from_value(v)?;
        let mut q = Self::new();
        q.now = snap.now;
        q.seq = snap.seq;
        q.processed = snap.processed;
        q.peak = snap.peak;
        q.cur_slot = snap.now.micros() >> SLOT_SHIFT;
        q.pending = snap.events.len();
        for (at, seq, payload) in snap.events {
            if at < snap.now.micros() || at >= 1 << TIME_BITS {
                return Err(serde::Error::custom(format!(
                    "CalendarQueue: event time {at} outside [now, 2^48)"
                )));
            }
            if seq >= snap.seq || payload > PAYLOAD_MASK {
                return Err(serde::Error::custom(
                    "CalendarQueue: event sequence or payload out of range",
                ));
            }
            q.place(Self::pack(SimTime(at), seq, payload));
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_ms(5.0), 2);
        q.schedule(SimTime::from_ms(1.0), 0);
        q.schedule(SimTime::from_ms(1.0), 1);
        q.schedule(SimTime::from_ms(3.0), 9);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![0, 1, 9, 2]);
        assert_eq!(q.processed(), 4);
        assert!(q.is_empty());
    }

    #[test]
    fn same_slot_insertion_keeps_order() {
        // Events scheduled into the live bucket while draining it.
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(500), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // Both targets are inside the current (first) slot.
        q.schedule(SimTime(100), 3);
        q.schedule(SimTime(100), 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        let mut q = CalendarQueue::new();
        // Way beyond the wheel horizon (1024 slots x ~1 ms ~= 1 s).
        q.schedule(SimTime::from_secs(30.0), 7);
        q.schedule(SimTime::from_ms(1.0), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        let (at, p) = q.pop().unwrap();
        assert_eq!((at, p), (SimTime::from_secs(30.0), 7));
        assert!(q.pop().is_none());
        assert_eq!(q.now(), SimTime::from_secs(30.0));
    }

    #[test]
    fn pending_and_peak_track() {
        let mut q = CalendarQueue::with_capacity(64);
        for i in 0..50 {
            q.schedule(SimTime(i * 2000), i);
        }
        assert_eq!(q.pending(), 50);
        assert_eq!(q.peak_pending(), 50);
        while q.pop().is_some() {}
        assert_eq!(q.pending(), 0);
        assert_eq!(q.peak_pending(), 50);
    }

    #[test]
    fn pop_until_leaves_later_events_pending() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(500), 1);
        q.schedule(SimTime(5_000_000), 2);
        assert_eq!(q.pop_until(SimTime(499)), None);
        assert_eq!(q.pop_until(SimTime(500)), Some((SimTime(500), 1)));
        assert_eq!(q.pop_until(SimTime(4_000_000)), None);
        q.skip_to(SimTime(4_000_000));
        assert_eq!(q.now(), SimTime(4_000_000));
        // Events scheduled after the skip still order against the old ones.
        q.schedule(SimTime(4_000_100), 3);
        q.schedule(SimTime(5_000_000), 4);
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(rest, vec![3, 2, 4]);
    }

    #[test]
    fn sequence_wrap_renumbers_without_reordering() {
        // Start a few schedules short of the 32-bit limit so the wrap
        // happens mid-run, with events pending on every tier (active
        // bucket, wheel, overflow) and ties across the renumbering.
        let mut cal = CalendarQueue::new();
        cal.seq = SEQ_LIMIT - 5;
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut payload = 0u64;
        for round in 0..6u64 {
            for dt in [0, 0, 700, 3_000, 2_000_000, 700] {
                let at = cal.now() + SimTime(dt + round);
                cal.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
            }
            for _ in 0..3 {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        assert!(cal.seq < SEQ_LIMIT, "the queue renumbered");
        while let Some(ev) = heap.pop() {
            assert_eq!(cal.pop(), Some(ev));
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn snapshot_round_trip_preserves_pop_order() {
        let mut q = CalendarQueue::new();
        for (i, dt) in [3_000u64, 10, 10, 900, 2_500_000, 40]
            .into_iter()
            .enumerate()
        {
            q.schedule(SimTime(dt), i as u64);
        }
        q.pop();
        let mut restored = CalendarQueue::from_value(&q.to_value()).unwrap();
        assert_eq!(
            (
                restored.now(),
                restored.processed(),
                restored.peak_pending()
            ),
            (q.now(), q.processed(), q.peak_pending())
        );
        // Scheduling after the restore continues the same numbering, so
        // ties keep breaking identically.
        for queue in [&mut q, &mut restored] {
            queue.schedule(SimTime(900), 99);
        }
        assert_eq!(q.to_value(), restored.to_value());
        let a: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_rejects_malformed_trees() {
        let bad = serde::Value::Seq(vec![]);
        assert!(CalendarQueue::from_value(&bad).is_err());
        let mut q = CalendarQueue::new();
        q.schedule(SimTime(10), 1);
        q.pop();
        q.schedule(SimTime(20), 2);
        // An event before the clock cannot be restored.
        let mut snap = Snapshot::from_value(&q.to_value()).unwrap();
        snap.events[0].0 = 5;
        assert!(CalendarQueue::from_value(&snap.to_value()).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The load-bearing property: for ANY schedule, the calendar queue
        /// pops the exact sequence the reference heap queue pops — time
        /// order with FIFO tie-breaking, interleaved scheduling included.
        /// Deltas span sub-slot, multi-slot and beyond-horizon distances.
        #[test]
        fn matches_reference_queue_on_random_schedules(
            ops in prop::collection::vec((0u64..3_000_000, 0u64..1000), 1..400),
            drains in prop::collection::vec(1usize..20, 0..50),
        ) {
            let mut cal = CalendarQueue::new();
            let mut heap: EventQueue<u64> = EventQueue::new();
            let mut ops = ops.into_iter();
            // Interleave bursts of schedules with bursts of pops.
            for drain in drains.iter().chain(std::iter::repeat(&usize::MAX)) {
                let mut scheduled = false;
                for (dt, payload) in ops.by_ref().take(8) {
                    let at = cal.now() + SimTime(dt);
                    cal.schedule(at, payload);
                    heap.schedule(at, payload);
                    scheduled = true;
                }
                let mut drained = 0usize;
                loop {
                    if drained >= *drain {
                        break;
                    }
                    drained += 1;
                    let a = cal.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(cal.now(), heap.now());
                    if a.is_none() {
                        break;
                    }
                }
                if !scheduled && cal.is_empty() {
                    prop_assert!(heap.is_empty());
                    break;
                }
            }
            prop_assert_eq!(cal.processed(), heap.processed());
        }
    }
}
