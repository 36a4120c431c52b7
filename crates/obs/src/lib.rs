//! Observability substrate for the `ParvaGPU` reproduction.
//!
//! Three concerns, one crate, zero cost when unused:
//!
//! * **Structured tracing** ([`TraceSink`], [`TraceEvent`]) — sim-time
//!   spans and instants recorded by the serving event loop, the fleet
//!   orchestrator, and the region federation. The trait carries a
//!   `const ENABLED` flag so the no-op sink ([`NullSink`]) monomorphizes
//!   every instrumentation branch out of the DES hot loop; the recording
//!   sink ([`Recorder`]) collects events exportable as Chrome/Perfetto
//!   `trace_event` JSON ([`chrome_trace_json`]) or JSONL.
//! * **Time-series gauges** ([`MetricsLog`], [`Row`]) — deterministic
//!   per-tick samples (queue depth, in-flight batches, per-service SLO
//!   attainment, GPU busy fraction, `SimCache` hit rate) written as JSONL
//!   or CSV. Rows carry only simulation-derived values, so two runs of
//!   the same seed produce byte-identical files.
//! * **Self-profiling** ([`SelfProfiler`]) — wall/CPU spans around
//!   orchestrator phases (probe fan-out, schedule, plan, merge) built on
//!   [`parva_des::counters`]: each span also records the DES events and
//!   sims attributed to it via scope-safe
//!   [`parva_des::counters::Snapshot::delta`]. Host-clock readings are
//!   inherently non-deterministic, so the profile is a *separate*
//!   artifact, never mixed into the byte-identical trace/metrics files.
//!
//! Everything here observes; nothing steers. Instrumented and
//! uninstrumented runs of any layer produce identical reports — the
//! serving proptests pin that against the frozen reference simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs, clippy::pedantic)]
#![allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::module_name_repetitions,
    clippy::missing_panics_doc
)]

pub mod analyze;
mod chrome;
mod metrics;
mod profile;
mod recorder;
mod stream;
mod trace;

pub use chrome::{chrome_trace_json, event_json, trace_jsonl};
pub use metrics::{MetricsLog, Row};
pub use profile::{PhaseStat, ProfToken, SelfProfiler};
pub use recorder::Recorder;
pub use stream::{read_concat_shards, StreamConfig, StreamSink, StreamStats, TailFollower};
pub use trace::{ArgValue, Phase, TraceEvent, TraceSink};

/// Append a string to a JSON buffer, escaped as [`json_escape`] does.
pub use serde_json::escape_into;

/// Track-group ("pid") of serving-layer events in exported traces.
pub const PID_SERVE: u32 = 1;
/// Track-group ("pid") of fleet-orchestrator events in exported traces.
pub const PID_FLEET: u32 = 2;
/// Track-group ("pid") of region-federation events in exported traces.
pub const PID_REGION: u32 = 3;

/// Display names for the track groups, used as Chrome `process_name`
/// metadata so Perfetto labels the three layers.
#[must_use]
pub fn pid_name(pid: u32) -> &'static str {
    match pid {
        PID_SERVE => "serve",
        PID_FLEET => "fleet",
        PID_REGION => "region",
        _ => "parva",
    }
}

/// Display names for the tracks ("tid") within a layer, used as Chrome
/// `thread_name` metadata: serve tids are server indices, fleet tids are
/// chaos intervals (0 = baseline), region tids are region indices with
/// `u32::MAX` standing for the federation aggregate.
#[must_use]
pub fn tid_name(pid: u32, tid: u32) -> String {
    match pid {
        PID_SERVE => format!("server {tid}"),
        PID_FLEET => {
            if tid == 0 {
                "baseline".to_string()
            } else {
                format!("interval {tid}")
            }
        }
        PID_REGION => {
            if tid == u32::MAX {
                "federation".to_string()
            } else {
                format!("region {tid}")
            }
        }
        _ => format!("track {tid}"),
    }
}

/// The no-op sink: `ENABLED = false` lets the optimizer delete every
/// `if S::ENABLED { … }` block, so the untraced hot path is the same
/// machine code as before instrumentation existed.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _ev: TraceEvent) {}

    #[inline(always)]
    fn sample(&mut self, _row: Row) {}
}

/// Canonical float rendering shared by every exporter: Rust's shortest
/// round-trip `Display` (deterministic for a given value), with
/// non-finite values clamped to `0` so the output is always valid JSON.
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    let mut out = String::new();
    write_f64(&mut out, v);
    out
}

/// Append [`fmt_f64`]'s rendering of `v` to `out`.
pub fn write_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        out.push_str("0.0");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    // `Display` prints integral floats without a fractional part ("3");
    // keep them unmistakably numeric-but-real in JSON ("3.0") so readers
    // that sniff types stay stable.
    if !out[start..].contains(['.', 'e']) {
        out.push_str(".0");
    }
}

/// Escape a string for inclusion in a JSON document.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_f64_is_canonical_json() {
        assert_eq!(fmt_f64(0.0), "0.0");
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(3.0), "3.0");
        assert_eq!(fmt_f64(-2.25), "-2.25");
        assert_eq!(fmt_f64(f64::NAN), "0.0");
        assert_eq!(fmt_f64(f64::INFINITY), "0.0");
        // Round-trips through a strict parser (shortest-round-trip
        // Display guarantees exact bit equality, so strict compare is
        // the point of the test).
        #[allow(clippy::float_cmp)]
        {
            assert!(fmt_f64(0.1).parse::<f64>().unwrap() == 0.1);
        }
    }

    #[test]
    fn json_escape_handles_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn null_sink_is_disabled() {
        const { assert!(!<NullSink as TraceSink>::ENABLED) };
        let mut s = NullSink;
        assert_eq!(s.next_sample_us(), u64::MAX);
        s.emit(TraceEvent::instant("x", "cat", 0));
        s.sample(Row::new());
    }

    #[test]
    fn pid_names_cover_all_layers() {
        assert_eq!(pid_name(PID_SERVE), "serve");
        assert_eq!(pid_name(PID_FLEET), "fleet");
        assert_eq!(pid_name(PID_REGION), "region");
        assert_eq!(pid_name(99), "parva");
    }

    #[test]
    fn tid_names_label_tracks_per_layer() {
        assert_eq!(tid_name(PID_SERVE, 3), "server 3");
        assert_eq!(tid_name(PID_FLEET, 0), "baseline");
        assert_eq!(tid_name(PID_FLEET, 2), "interval 2");
        assert_eq!(tid_name(PID_REGION, 1), "region 1");
        assert_eq!(tid_name(PID_REGION, u32::MAX), "federation");
        assert_eq!(tid_name(99, 7), "track 7");
    }
}
