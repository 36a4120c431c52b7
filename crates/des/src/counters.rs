//! Global DES throughput counters.
//!
//! The serving engine's event loop (`parva_serve::Engine::advance_to`)
//! records once per call: how many events it popped, split by
//! [`EventKind`] (and how many batching deadlines launched nothing), the
//! peak pending-event depth, and the time spent inside the loop — both
//! wall-clock nanoseconds and *per-thread CPU* nanoseconds. Batch runs and
//! the daemon's epochs go through the same loop, so both are counted; a
//! batch run that completes also records one sim. Readers take a
//! [`snapshot`] before and after a region of work and keep the
//! [`Snapshot::delta`] — the orchestrator self-profiles attribute DES work
//! to their phases this way, and `perfbench` reports `des.events`,
//! `des.sims`, `des.loop_cpu_ms` and `des.peak_queue_depth` from it.
//! Nothing outside this module's tests resets them, and they never
//! influence simulation behaviour, so instrumented and uninstrumented runs
//! produce identical reports.
//!
//! All counters are process-global atomics: scoped-thread fan-outs (fleet
//! probes, per-region serving) accumulate into the same totals. The wall
//! column over-counts under time-slicing (two loops sharing one core both
//! bill their full span); the CPU column is exact under fan-out because
//! each thread bills only the cycles it actually ran
//! (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`).

use std::sync::atomic::{AtomicU64, Ordering};

/// The serving loop's event kinds, in the order of its event tags (the
/// engine packs `kind as u64` into each queued payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A request arrives and schedules its successor.
    Arrival,
    /// A batch completes.
    Done,
    /// A batching deadline: the head of a partial queue has waited its
    /// budget.
    Deadline,
    /// Recovery work begins and darkens the servers it touches.
    RecoveryBegin,
    /// One recovery op finishes and its servers serve again.
    Recovered,
    /// A request attempt times out.
    Timeout,
    /// A retry's backoff expires.
    Retry,
    /// A hedge fires.
    Hedge,
}

impl EventKind {
    /// Every kind, in tag order (the index of its count in
    /// [`Snapshot::by_kind`]).
    pub const ALL: [EventKind; 8] = [
        EventKind::Arrival,
        EventKind::Done,
        EventKind::Deadline,
        EventKind::RecoveryBegin,
        EventKind::Recovered,
        EventKind::Timeout,
        EventKind::Retry,
        EventKind::Hedge,
    ];

    /// Number of kinds.
    pub const COUNT: usize = Self::ALL.len();
}

static EVENTS: AtomicU64 = AtomicU64::new(0);
static BY_KIND: [AtomicU64; EventKind::COUNT] = [const { AtomicU64::new(0) }; EventKind::COUNT];
static IDLE_DEADLINES: AtomicU64 = AtomicU64::new(0);
static SIMS: AtomicU64 = AtomicU64::new(0);
static PEAK_QUEUE: AtomicU64 = AtomicU64::new(0);
static LOOP_NANOS: AtomicU64 = AtomicU64::new(0);
static LOOP_CPU_NANOS: AtomicU64 = AtomicU64::new(0);

/// Per-thread CPU clock. The only unsafe in the workspace: a direct
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` FFI call (libc is always
/// linked by std on Linux, so no new dependency). Gated to 64-bit Linux —
/// the hand-rolled `Timespec { i64, i64 }` matches the C `timespec` ABI
/// only where `time_t` and `long` are 64-bit; other platforms report zero
/// CPU time and keep the wall column.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod cputime {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `CLOCK_THREAD_CPUTIME_ID` on Linux.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }

    /// CPU nanoseconds consumed by the calling thread since it started.
    pub fn thread_cpu_nanos() -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable Timespec matching the libc ABI;
        // clock_gettime only writes through the pointer.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0;
        }
        u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000
            + u64::try_from(ts.tv_nsec).unwrap_or(0)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod cputime {
    /// Unsupported platform: no per-thread CPU clock, callers fall back to
    /// the wall column (a zero delta keeps the CPU counter at zero rather
    /// than lying).
    pub fn thread_cpu_nanos() -> u64 {
        0
    }
}

/// CPU nanoseconds consumed by the calling thread so far (0 where the
/// platform has no per-thread CPU clock). Take a reading before and after
/// a loop and record the difference via [`record`].
#[must_use]
pub fn thread_cpu_nanos() -> u64 {
    cputime::thread_cpu_nanos()
}

/// Add one span of activity to the global counters: every count and
/// nanosecond column is summed, and `peak_queue_depth` raises the
/// high-water mark. The event loop builds its span on its own stack and
/// flushes it once per call; a completed run records `sims: 1` alone.
pub fn record(activity: &Snapshot) {
    EVENTS.fetch_add(activity.events, Ordering::Relaxed);
    for (total, &n) in BY_KIND.iter().zip(&activity.by_kind) {
        total.fetch_add(n, Ordering::Relaxed);
    }
    IDLE_DEADLINES.fetch_add(activity.idle_deadlines, Ordering::Relaxed);
    SIMS.fetch_add(activity.sims, Ordering::Relaxed);
    PEAK_QUEUE.fetch_max(activity.peak_queue_depth, Ordering::Relaxed);
    LOOP_NANOS.fetch_add(activity.loop_nanos, Ordering::Relaxed);
    LOOP_CPU_NANOS.fetch_add(activity.loop_cpu_nanos, Ordering::Relaxed);
}

/// A point-in-time copy of the counters, or (from [`Snapshot::delta`] and
/// for [`record`]) the activity of one span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Total events processed across all recorded loops.
    pub events: u64,
    /// Events per [`EventKind`], indexed `kind as usize`; they sum to
    /// `events`.
    pub by_kind: [u64; EventKind::COUNT],
    /// Deadline events that launched no batch (also counted under
    /// [`EventKind::Deadline`]).
    pub idle_deadlines: u64,
    /// Number of completed simulation runs.
    pub sims: u64,
    /// Largest pending-event queue depth seen in any loop.
    pub peak_queue_depth: u64,
    /// Wall-clock nanoseconds spent inside event loops (summed across
    /// threads, so it can exceed elapsed wall time under parallelism and
    /// over-counts when threads time-slice one core).
    pub loop_nanos: u64,
    /// Per-thread CPU nanoseconds spent inside event loops — exact under
    /// fan-out: each thread bills only cycles it ran. 0 on platforms
    /// without `CLOCK_THREAD_CPUTIME_ID`.
    pub loop_cpu_nanos: u64,
}

impl Snapshot {
    /// The counter activity between `earlier` and `self`, scope-safe for
    /// nested measurements: take a snapshot before a region of work, one
    /// after, and the delta attributes exactly the events/sims/loop time
    /// recorded in between — including everything scoped-thread fan-outs
    /// accumulated — without resetting the counters and clobbering an
    /// enclosing measurement.
    ///
    /// `peak_queue_depth` is a high-water mark, not a sum: a maximum cannot
    /// be decomposed into per-interval contributions, so the delta carries
    /// the *later* snapshot's peak (the peak observed up to the end of the
    /// span). Sums saturate at zero if `earlier` is actually newer.
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            events: self.events.saturating_sub(earlier.events),
            by_kind: std::array::from_fn(|k| self.by_kind[k].saturating_sub(earlier.by_kind[k])),
            idle_deadlines: self.idle_deadlines.saturating_sub(earlier.idle_deadlines),
            sims: self.sims.saturating_sub(earlier.sims),
            peak_queue_depth: self.peak_queue_depth,
            loop_nanos: self.loop_nanos.saturating_sub(earlier.loop_nanos),
            loop_cpu_nanos: self.loop_cpu_nanos.saturating_sub(earlier.loop_cpu_nanos),
        }
    }
}

/// Read the current counter values.
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        events: EVENTS.load(Ordering::Relaxed),
        by_kind: std::array::from_fn(|k| BY_KIND[k].load(Ordering::Relaxed)),
        idle_deadlines: IDLE_DEADLINES.load(Ordering::Relaxed),
        sims: SIMS.load(Ordering::Relaxed),
        peak_queue_depth: PEAK_QUEUE.load(Ordering::Relaxed),
        loop_nanos: LOOP_NANOS.load(Ordering::Relaxed),
        loop_cpu_nanos: LOOP_CPU_NANOS.load(Ordering::Relaxed),
    }
}

/// Reset all counters to zero, so a test reads absolute values.
#[cfg(test)]
fn reset() {
    for counter in BY_KIND.iter().chain([
        &EVENTS,
        &IDLE_DEADLINES,
        &SIMS,
        &PEAK_QUEUE,
        &LOOP_NANOS,
        &LOOP_CPU_NANOS,
    ]) {
        counter.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters are process-global; tests that reset them must not
    /// interleave with each other under the parallel test runner.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// One completed run of `events` events: a quarter (rounded down) are
    /// idle deadlines, the rest arrivals.
    fn run(events: u64, peak: u64, loop_nanos: u64, cpu_nanos: u64) -> Snapshot {
        let mut activity = Snapshot {
            events,
            sims: 1,
            peak_queue_depth: peak,
            loop_nanos,
            loop_cpu_nanos: cpu_nanos,
            ..Snapshot::default()
        };
        activity.idle_deadlines = events / 4;
        activity.by_kind[EventKind::Deadline as usize] = events / 4;
        activity.by_kind[EventKind::Arrival as usize] = events - events / 4;
        activity
    }

    #[test]
    fn record_and_snapshot_roundtrip() {
        let _guard = LOCK.lock().unwrap();
        reset();
        record(&run(100, 7, 1_000_000, 900_000));
        record(&run(50, 12, 500_000, 400_000));
        let s = snapshot();
        assert_eq!(s.events, 150);
        assert_eq!(s.by_kind[EventKind::Arrival as usize], 113);
        assert_eq!(s.by_kind[EventKind::Deadline as usize], 37);
        assert_eq!(s.by_kind.iter().sum::<u64>(), s.events);
        assert_eq!(s.idle_deadlines, 37);
        assert_eq!(s.sims, 2);
        assert_eq!(s.peak_queue_depth, 12);
        assert_eq!(s.loop_nanos, 1_500_000);
        assert_eq!(s.loop_cpu_nanos, 1_300_000);
        reset();
        assert_eq!(snapshot(), Snapshot::default());
    }

    #[test]
    fn delta_attributes_only_the_enclosed_work() {
        let _guard = LOCK.lock().unwrap();
        reset();
        record(&run(100, 7, 1_000, 900));
        let before = snapshot();
        record(&run(50, 12, 500, 400));
        record(&run(25, 3, 250, 200));
        let d = snapshot().delta(&before);
        assert_eq!(d.events, 75);
        assert_eq!(d.by_kind[EventKind::Deadline as usize], 18);
        assert_eq!(d.idle_deadlines, 18);
        assert_eq!(d.sims, 2);
        assert_eq!(d.loop_nanos, 750);
        assert_eq!(d.loop_cpu_nanos, 600);
        // High-water mark: the delta reports the peak observed so far, not
        // a (meaningless) subtraction of maxima.
        assert_eq!(d.peak_queue_depth, 12);
        // Reversed arguments saturate instead of wrapping.
        let r = before.delta(&snapshot());
        assert_eq!(r.events, 0);
        assert_eq!(r.by_kind, [0; EventKind::COUNT]);
        assert_eq!(r.sims, 0);
        reset();
    }

    #[test]
    fn kinds_are_listed_in_tag_order() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
        }
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn thread_cpu_clock_is_monotone_and_advances_under_work() {
        let before = thread_cpu_nanos();
        // Burn a visible amount of CPU; volatile-ish accumulation keeps
        // the loop from being optimized out.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        assert!(acc != 42, "keep the work observable");
        let after = thread_cpu_nanos();
        assert!(after >= before, "thread CPU clock went backwards");
        assert!(after > 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
        assert!(
            after > before,
            "2M multiply-adds consumed no measurable CPU time"
        );
    }

    #[test]
    fn cpu_time_never_wildly_exceeds_wall_on_one_thread() {
        // A single thread's CPU time over a span cannot exceed the wall
        // span (modulo clock granularity); sanity-check the pairing used
        // by the serving loop.
        let wall = std::time::Instant::now();
        let cpu0 = thread_cpu_nanos();
        let mut acc = 1u64;
        for i in 1..500_000u64 {
            acc = acc.wrapping_mul(i | 1);
        }
        assert!(acc != 0);
        let cpu = thread_cpu_nanos().saturating_sub(cpu0);
        let wall = wall.elapsed().as_nanos() as u64;
        // 5 ms of slack absorbs timer granularity on coarse kernels.
        assert!(
            cpu <= wall + 5_000_000,
            "cpu {cpu} ns exceeds wall {wall} ns"
        );
    }
}
