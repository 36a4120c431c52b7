//! The trace event model and the sink trait the simulation layers
//! instrument against.

use crate::Row;

/// Chrome `trace_event` phase of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A complete span (`ph: "X"`): `[ts_us, ts_us + dur_us)`.
    Complete,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

impl Phase {
    /// The single-character phase code used by the Chrome trace format.
    #[must_use]
    pub fn code(self) -> char {
        match self {
            Phase::Complete => 'X',
            Phase::Instant => 'i',
        }
    }
}

/// One typed argument value attached to a trace event or a metrics row.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float — rendered via [`crate::fmt_f64`] for byte-stable output.
    F64(f64),
    /// String — JSON-escaped on export.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl ArgValue {
    /// Render as a JSON value fragment.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append [`to_json`](Self::to_json)'s fragment to `out`.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            ArgValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(v) => crate::write_f64(out, *v),
            ArgValue::Str(s) => {
                out.push('"');
                crate::escape_into(out, s);
                out.push('"');
            }
            ArgValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    /// Render as a bare CSV cell (no quoting needed for our field set;
    /// strings containing commas/quotes are quoted per RFC 4180).
    #[must_use]
    pub fn to_csv(&self) -> String {
        match self {
            ArgValue::Str(s) if s.contains(',') || s.contains('"') || s.contains('\n') => {
                format!("\"{}\"", s.replace('"', "\"\""))
            }
            ArgValue::Str(s) => s.clone(),
            other => other.to_json(),
        }
    }
}

/// One structured trace event in simulation time.
///
/// `ts_us`/`dur_us` are integer *simulation* microseconds — never host
/// clocks — which is what makes exported traces byte-identical across
/// runs. `pid` groups events by layer (see [`crate::pid_name`]); `tid`
/// is the track within the layer (server index, node id, region index…).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (the span label in Perfetto).
    pub name: &'static str,
    /// Category, used by trace viewers for filtering.
    pub cat: &'static str,
    /// Span or instant.
    pub ph: Phase,
    /// Start time, simulation microseconds.
    pub ts_us: u64,
    /// Duration, simulation microseconds (0 for instants).
    pub dur_us: u64,
    /// Track group — one per simulation layer.
    pub pid: u32,
    /// Track within the group.
    pub tid: u32,
    /// Typed key/value payload (`args` in the Chrome format).
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    /// A complete span covering `[ts_us, ts_us + dur_us)`.
    #[must_use]
    pub fn span(name: &'static str, cat: &'static str, ts_us: u64, dur_us: u64) -> Self {
        TraceEvent {
            name,
            cat,
            ph: Phase::Complete,
            ts_us,
            dur_us,
            pid: crate::PID_SERVE,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// A point-in-time marker.
    #[must_use]
    pub fn instant(name: &'static str, cat: &'static str, ts_us: u64) -> Self {
        TraceEvent {
            name,
            cat,
            ph: Phase::Instant,
            ts_us,
            dur_us: 0,
            pid: crate::PID_SERVE,
            tid: 0,
            args: Vec::new(),
        }
    }

    /// Set the layer track group.
    #[must_use]
    pub fn pid(mut self, pid: u32) -> Self {
        self.pid = pid;
        self
    }

    /// Set the track within the layer.
    #[must_use]
    pub fn tid(mut self, tid: u32) -> Self {
        self.tid = tid;
        self
    }

    /// Attach an unsigned-integer argument.
    #[must_use]
    pub fn arg_u64(mut self, key: &'static str, v: u64) -> Self {
        self.args.push((key, ArgValue::U64(v)));
        self
    }

    /// Attach a float argument.
    #[must_use]
    pub fn arg_f64(mut self, key: &'static str, v: f64) -> Self {
        self.args.push((key, ArgValue::F64(v)));
        self
    }

    /// Attach a string argument.
    #[must_use]
    pub fn arg_str(mut self, key: &'static str, v: impl Into<String>) -> Self {
        self.args.push((key, ArgValue::Str(v.into())));
        self
    }

    /// Attach a boolean argument.
    #[must_use]
    pub fn arg_bool(mut self, key: &'static str, v: bool) -> Self {
        self.args.push((key, ArgValue::Bool(v)));
        self
    }
}

/// The observer the simulation layers are generic over.
///
/// The hot loop guards every emission with `if S::ENABLED { … }`; with
/// [`crate::NullSink`] (`ENABLED = false`) those blocks — including the
/// construction of the [`TraceEvent`] itself — are dead code the
/// optimizer removes, so tracing support costs nothing when off.
///
/// The sampler contract: `next_sample_us` names the next simulation time
/// (µs) at which the layer should call [`TraceSink::sample`] with a
/// gauge row; each `sample` call advances the boundary. `u64::MAX`
/// disables sampling.
pub trait TraceSink {
    /// Whether this sink records anything. Monomorphization constant —
    /// branch on it, never on runtime state, in hot code.
    const ENABLED: bool;

    /// Record one trace event.
    fn emit(&mut self, ev: TraceEvent);

    /// Next simulation time (µs) at which gauge rows are due;
    /// `u64::MAX` = never.
    fn next_sample_us(&self) -> u64 {
        u64::MAX
    }

    /// Record one gauge row sampled at the boundary previously returned
    /// by [`TraceSink::next_sample_us`]. A boundary may carry several
    /// rows (an aggregate tick plus per-service rows); the layer calls
    /// [`TraceSink::advance_sampler`] once all of them are delivered.
    fn sample(&mut self, row: Row);

    /// Move the sampling boundary to the next tick.
    fn advance_sampler(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_fields() {
        let ev = TraceEvent::span("execute", "batch", 100, 50)
            .pid(crate::PID_FLEET)
            .tid(7)
            .arg_u64("size", 4)
            .arg_f64("ratio", 0.5)
            .arg_str("svc", "bert")
            .arg_bool("ok", true);
        assert_eq!(ev.ph.code(), 'X');
        assert_eq!(ev.pid, crate::PID_FLEET);
        assert_eq!(ev.tid, 7);
        assert_eq!(ev.args.len(), 4);
        let inst = TraceEvent::instant("arrival", "request", 9);
        assert_eq!(inst.ph.code(), 'i');
        assert_eq!(inst.dur_us, 0);
    }

    #[test]
    fn arg_values_render_as_json() {
        assert_eq!(ArgValue::U64(3).to_json(), "3");
        assert_eq!(ArgValue::I64(-2).to_json(), "-2");
        assert_eq!(ArgValue::F64(1.25).to_json(), "1.25");
        assert_eq!(ArgValue::Str("a\"b".into()).to_json(), "\"a\\\"b\"");
        assert_eq!(ArgValue::Bool(false).to_json(), "false");
    }

    #[test]
    fn csv_cells_quote_only_when_needed() {
        assert_eq!(ArgValue::Str("plain".into()).to_csv(), "plain");
        assert_eq!(ArgValue::Str("a,b".into()).to_csv(), "\"a,b\"");
        assert_eq!(ArgValue::Str("q\"q".into()).to_csv(), "\"q\"\"q\"");
        assert_eq!(ArgValue::F64(2.5).to_csv(), "2.5");
    }
}
