//! Self-profiling spans around orchestrator phases.
//!
//! Built on [`parva_des::counters`]: each span records its wall-clock
//! nanoseconds, the calling thread's CPU nanoseconds
//! (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`), and — via scope-safe
//! [`Snapshot::delta`](parva_des::counters::Snapshot::delta) — the DES
//! events and inner simulation runs the phase triggered, including
//! everything scoped-thread fan-outs accumulated into the global
//! counters while the span was open.
//!
//! Host-clock readings vary run to run, so the profile is exported as
//! its own artifact and is deliberately excluded from the byte-identity
//! guarantees the trace and metrics files carry.

use parva_des::counters::{self, Snapshot};
use std::time::Instant;

/// An open span handle; close it with [`SelfProfiler::end`]. When the
/// profiler is disabled the token is inert and `begin` touches no
/// clocks.
#[derive(Debug)]
pub struct ProfToken {
    name: &'static str,
    layer: &'static str,
    started: Option<(Instant, u64, Snapshot)>,
}

/// Aggregated statistics for one `(layer, phase)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Simulation layer ("serve", "fleet", "region").
    pub layer: &'static str,
    /// Phase name ("probe-fanout", "plan", "merge", …).
    pub name: &'static str,
    /// Number of spans recorded.
    pub count: u64,
    /// Total wall-clock nanoseconds across spans.
    pub wall_nanos: u64,
    /// Total thread-CPU nanoseconds across spans (0 where the platform
    /// has no per-thread CPU clock).
    pub cpu_nanos: u64,
    /// DES events processed by simulations the phase ran (scope-safe
    /// counter delta; includes scoped-thread fan-out).
    pub des_events: u64,
    /// Inner simulation runs the phase triggered.
    pub des_sims: u64,
}

/// Collects phase spans; aggregates by `(layer, name)` in
/// first-appearance order.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelfProfiler {
    enabled: bool,
    stats: Vec<PhaseStat>,
}

impl SelfProfiler {
    /// A profiler that records nothing and reads no clocks.
    #[must_use]
    pub fn disabled() -> Self {
        SelfProfiler::default()
    }

    /// A recording profiler.
    #[must_use]
    pub fn enabled() -> Self {
        SelfProfiler {
            enabled: true,
            stats: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span. Reads the wall clock, the thread CPU clock, and the
    /// global DES counters — or nothing at all when disabled.
    #[must_use]
    pub fn begin(&self, name: &'static str, layer: &'static str) -> ProfToken {
        ProfToken {
            name,
            layer,
            started: self.enabled.then(|| {
                (
                    Instant::now(),
                    counters::thread_cpu_nanos(),
                    counters::snapshot(),
                )
            }),
        }
    }

    /// Close a span, folding it into the `(layer, name)` aggregate.
    /// Takes the token by value on purpose: a span cannot be ended twice.
    #[allow(clippy::needless_pass_by_value, clippy::single_match_else)]
    pub fn end(&mut self, token: ProfToken) {
        let Some((wall0, cpu0, snap0)) = token.started else {
            return;
        };
        let wall = wall0.elapsed().as_nanos() as u64;
        let cpu = counters::thread_cpu_nanos().saturating_sub(cpu0);
        let des = counters::snapshot().delta(&snap0);
        let stat = match self
            .stats
            .iter_mut()
            .find(|s| s.layer == token.layer && s.name == token.name)
        {
            Some(s) => s,
            None => {
                self.stats.push(PhaseStat {
                    layer: token.layer,
                    name: token.name,
                    count: 0,
                    wall_nanos: 0,
                    cpu_nanos: 0,
                    des_events: 0,
                    des_sims: 0,
                });
                self.stats.last_mut().expect("just pushed")
            }
        };
        stat.count += 1;
        stat.wall_nanos += wall;
        stat.cpu_nanos += cpu;
        stat.des_events += des.events;
        stat.des_sims += des.sims;
    }

    /// The aggregated phase rows, first-appearance order.
    #[must_use]
    pub fn stats(&self) -> &[PhaseStat] {
        &self.stats
    }

    /// Fold another profiler's aggregates into this one (e.g. merging a
    /// fleet orchestrator's profile into the run-level recorder).
    pub fn absorb(&mut self, other: &SelfProfiler) {
        for s in &other.stats {
            match self
                .stats
                .iter_mut()
                .find(|t| t.layer == s.layer && t.name == s.name)
            {
                Some(t) => {
                    t.count += s.count;
                    t.wall_nanos += s.wall_nanos;
                    t.cpu_nanos += s.cpu_nanos;
                    t.des_events += s.des_events;
                    t.des_sims += s.des_sims;
                }
                None => self.stats.push(s.clone()),
            }
        }
        self.enabled |= other.enabled;
    }

    /// Render the profile as a JSON document. Field order is fixed, but
    /// the wall/CPU *values* are host measurements and differ run to
    /// run — this artifact is documented as non-deterministic.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "{\"schema\":\"parva-obs/profile/v1\",\"deterministic\":false,\"phases\":[",
        );
        for (i, s) in self.stats.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"layer\":\"{}\",\"phase\":\"{}\",\"count\":{},\"wall_ms\":{},\
                 \"cpu_ms\":{},\"des_events\":{},\"des_sims\":{}}}",
                crate::json_escape(s.layer),
                crate::json_escape(s.name),
                s.count,
                crate::fmt_f64(s.wall_nanos as f64 / 1e6),
                crate::fmt_f64(s.cpu_nanos as f64 / 1e6),
                s.des_events,
                s.des_sims,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = SelfProfiler::disabled();
        let t = p.begin("plan", "fleet");
        assert!(t.started.is_none());
        p.end(t);
        assert!(p.stats().is_empty());
        assert!(!p.is_enabled());
        assert_eq!(
            p.to_json(),
            "{\"schema\":\"parva-obs/profile/v1\",\"deterministic\":false,\"phases\":[]}"
        );
    }

    #[test]
    fn spans_aggregate_by_layer_and_name() {
        let mut p = SelfProfiler::enabled();
        for _ in 0..3 {
            let t = p.begin("probe-fanout", "fleet");
            p.end(t);
        }
        let t = p.begin("merge", "fleet");
        p.end(t);
        assert_eq!(p.stats().len(), 2);
        assert_eq!(p.stats()[0].name, "probe-fanout");
        assert_eq!(p.stats()[0].count, 3);
        assert_eq!(p.stats()[1].count, 1);
        assert!(p
            .to_json()
            .contains("\"phase\":\"probe-fanout\",\"count\":3"));
    }

    #[test]
    fn absorb_merges_and_appends() {
        let mut a = SelfProfiler::enabled();
        let t = a.begin("plan", "fleet");
        a.end(t);
        let mut b = SelfProfiler::enabled();
        let t = b.begin("plan", "fleet");
        b.end(t);
        let t = b.begin("route", "region");
        b.end(t);
        a.absorb(&b);
        assert_eq!(a.stats().len(), 2);
        assert_eq!(a.stats()[0].count, 2);
        assert_eq!(a.stats()[1].layer, "region");
    }

    #[test]
    fn spans_capture_des_counter_deltas() {
        let mut p = SelfProfiler::enabled();
        let t = p.begin("sim", "serve");
        parva_des::counters::record(&parva_des::counters::Snapshot {
            events: 1234,
            sims: 1,
            ..Default::default()
        });
        p.end(t);
        let s = &p.stats()[0];
        // The global counters are process-wide: other tests may record
        // concurrently, so assert at-least rather than exactly.
        assert!(s.des_events >= 1234);
        assert!(s.des_sims >= 1);
        assert_eq!(s.count, 1);
    }
}
