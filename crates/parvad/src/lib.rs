//! `parvad` — the serving daemon.
//!
//! Everything below the facade simulates one *batch* run: build a
//! deployment, stream requests through it, report. `parvad` turns that
//! into a long-running control plane:
//!
//! * the serving DES is [`parva_serve::Engine`] — the engine every batch
//!   simulation runs — with a measurement window that never closes,
//!   advanced in bounded epochs, so the daemon can interleave simulation
//!   with control work and **suspend at any epoch boundary**;
//! * [`checkpoint`] snapshots the entire daemon — event queue, in-flight
//!   requests, RNG streams, estimator history, autoscaler counters — to a
//!   checksummed JSON file and resumes it **bit-identically** (the resumed
//!   gauge stream is byte-equal to an uninterrupted run at the same seed);
//! * a closed-loop autoscaler estimates per-service demand from trailing
//!   *observed* arrivals ([`parva_autoscale::DemandEstimator`]) — never the
//!   oracle spec — and actuates through the paper's §III-F incremental
//!   reconfiguration path with measured recovery latencies;
//! * [`pod::PodSpec`] is the admission-time resource: a fastpod-style pod
//!   with fractional-GPU annotations, admitted over a line-delimited
//!   HTTP/JSON control socket ([`daemon`]) while the engine keeps serving.
//!
//! `parvactl daemon` hosts this crate; `parvactl submit|status|scale|drain`
//! are thin clients of the control socket.

pub mod checkpoint;
pub mod daemon;
pub mod engine;
pub mod pod;

pub use checkpoint::{decode_checkpoint, encode_checkpoint, load_checkpoint, save_checkpoint};
pub use daemon::{http_request, run_daemon, DaemonOpts, DaemonOutcome};
pub use engine::{AutoscalePolicy, Daemon, DaemonStatus, ServiceStatus};
pub use pod::PodSpec;

use parva_obs::{Row, TraceEvent, TraceSink};

/// A gauge-only sink collecting each row as its canonical JSON line.
///
/// This is the daemon's byte-gate artifact: gauge lines appended across a
/// suspend/resume must concatenate to exactly the lines an uninterrupted
/// run writes. Trace events are dropped (`ENABLED = false` keeps the
/// engine's span bookkeeping off the hot path); live trace streaming goes
/// through [`parva_obs::StreamSink`] instead.
#[derive(Debug, Default)]
pub struct GaugeLog {
    /// Canonical JSON gauge lines, in emission order.
    pub lines: Vec<String>,
}

impl GaugeLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All lines joined with trailing newlines — the `gauges.jsonl` body.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for GaugeLog {
    const ENABLED: bool = false;

    fn emit(&mut self, _ev: TraceEvent) {}

    fn next_sample_us(&self) -> u64 {
        u64::MAX
    }

    fn sample(&mut self, row: Row) {
        self.lines.push(row.to_json());
    }

    fn advance_sampler(&mut self) {}
}
