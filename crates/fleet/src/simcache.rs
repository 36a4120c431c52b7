//! Deterministic content-hashed memoization of serving simulations.
//!
//! The chaos loop's compliance probes repeatedly simulate *identical*
//! steady states: the "after" probe of interval `n` and the "before" probe
//! of interval `n+1` run the same `(deployment, specs, serving config)`
//! triple, and a displacement window's control run duplicates the before
//! probe. Since [`parva_serve::Simulation::run`] is a pure deterministic
//! function of its inputs, each unique state needs simulating exactly once
//! per report.
//!
//! Keys are 128-bit FNV-1a hashes streamed over the `Debug` rendering of
//! the inputs (derived `Debug` covers every field, and the rendering is
//! deterministic), so the cache itself cannot perturb results: a hit
//! returns a clone of a report the engine really produced for those
//! inputs, and a collision across distinct states is vanishingly unlikely
//! (~n²/2¹²⁸).
//!
//! Every cache also counts its hits and misses into process-wide totals
//! ([`global_stats`]); `perfbench` reads their delta over a pass as its
//! `fleet.cache_hits`, `fleet.cache_misses` and `fleet.cache_hit_ratio`.

use parva_serve::ServingReport;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static GLOBAL_HITS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide cache telemetry: `(hits, misses)` across every
/// [`SimCache`] instance since the process started. The counters only
/// grow; a benchmark reads their delta over the work it measures. The
/// values never influence behaviour.
#[must_use]
pub fn global_stats() -> (u64, u64) {
    (
        GLOBAL_HITS.load(Ordering::Relaxed),
        GLOBAL_MISSES.load(Ordering::Relaxed),
    )
}

/// 128-bit FNV-1a over streamed `fmt` output — hashing without
/// materializing the (potentially large) debug string.
struct FnvWriter(u128);

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl FnvWriter {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }
}

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// Hash the `Debug` rendering of a simulation input tuple into a cache
/// key. `tag` namespaces probe kinds (plain serving vs. recovery-carrying
/// sims) so equal-looking payloads of different kinds cannot alias.
#[must_use]
pub fn content_key(tag: &str, parts: &[&dyn std::fmt::Debug]) -> u128 {
    let mut w = FnvWriter::new();
    let _ = w.write_str(tag);
    for p in parts {
        let _ = write!(w, "\u{1f}{p:?}");
    }
    w.0
}

/// Entries retained before the oldest insertion is evicted. The probe
/// pattern only ever re-reads the *previous* interval's reports (the
/// "after" state of interval `n` is the "before" state of `n + 1`), so a
/// small FIFO window captures every available hit while keeping a
/// long chaos trace's memory flat.
const MAX_ENTRIES: usize = 64;

/// A memo table from content keys to finished serving reports, bounded
/// by FIFO eviction at `MAX_ENTRIES`.
///
/// Interior-mutable (`Mutex`) so shared-reference probe fan-outs can
/// consult it; lock hold times are just a map lookup or insert. Eviction
/// follows deterministic insertion order, so cache contents — and
/// therefore hit patterns — are identical across runs.
#[derive(Debug, Default)]
pub struct SimCache {
    map: Mutex<(HashMap<u128, ServingReport>, VecDeque<u128>)>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SimCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up `key`, counting the outcome.
    #[must_use]
    pub fn get(&self, key: u128) -> Option<ServingReport> {
        let found = self
            .map
            .lock()
            .expect("sim cache poisoned")
            .0
            .get(&key)
            .cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            GLOBAL_HITS.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            GLOBAL_MISSES.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Store the report computed for `key`, evicting the oldest entry
    /// once the FIFO window is full.
    pub fn insert(&self, key: u128, report: ServingReport) {
        let (map, order) = &mut *self.map.lock().expect("sim cache poisoned");
        if map.insert(key, report).is_none() {
            order.push_back(key);
            if order.len() > MAX_ENTRIES {
                if let Some(oldest) = order.pop_front() {
                    map.remove(&oldest);
                }
            }
        }
    }

    /// Memoized simulation: return the cached report for `key` or run
    /// `sim` once and remember its result.
    pub fn get_or_simulate(&self, key: u128, sim: impl FnOnce() -> ServingReport) -> ServingReport {
        if let Some(hit) = self.get(key) {
            return hit;
        }
        let report = sim();
        self.insert(key, report.clone());
        report
    }

    /// `(hits, misses)` of this cache instance.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> ServingReport {
        ServingReport {
            duration_s: 1.0,
            services: vec![],
            servers: vec![],
            classes: vec![],
            recovery: None,
            tenants: vec![],
        }
    }

    #[test]
    fn keys_separate_by_tag_and_content() {
        let a = content_key("plain", &[&1u32, &"x"]);
        let b = content_key("plain", &[&1u32, &"y"]);
        let c = content_key("recovery", &[&1u32, &"x"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Field-boundary separator: ("ab", "c") must differ from ("a", "bc").
        let d = content_key("t", &[&"ab", &"c"]);
        let e = content_key("t", &[&"a", &"bc"]);
        assert_ne!(d, e);
        // And the key is a pure function of its inputs.
        assert_eq!(a, content_key("plain", &[&1u32, &"x"]));
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let cache = SimCache::new();
        for i in 0..(MAX_ENTRIES as u64 + 8) {
            cache.insert(content_key("k", &[&i]), empty_report());
        }
        // The 8 oldest entries were evicted, the newest survive.
        for i in 0..8u64 {
            assert!(cache.get(content_key("k", &[&i])).is_none(), "{i}");
        }
        for i in 8..(MAX_ENTRIES as u64 + 8) {
            assert!(cache.get(content_key("k", &[&i])).is_some(), "{i}");
        }
    }

    #[test]
    fn memoizes_and_counts() {
        let cache = SimCache::new();
        let key = content_key("plain", &[&42u64]);
        let mut runs = 0;
        for _ in 0..3 {
            let r = cache.get_or_simulate(key, || {
                runs += 1;
                empty_report()
            });
            assert_eq!(r.duration_s, 1.0);
        }
        assert_eq!(runs, 1, "simulation must run exactly once");
        assert_eq!(cache.stats(), (2, 1));
    }
}
