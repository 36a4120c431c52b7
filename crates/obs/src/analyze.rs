//! Offline trace analytics: parse exported traces back in and recompute
//! the numbers the simulation reported.
//!
//! This is the read side of the observability loop. The write side
//! ([`crate::Recorder`], [`crate::StreamSink`]) renders spans and gauge
//! rows with byte-stable, shortest-round-trip formatting; this module
//! reads those bytes back straight into typed events ([`ParsedEvent`],
//! [`GaugeRow`]) through the one reader per row, which pulls from the JSON
//! text itself ([`serde_json::Reader`]); only `args` payloads and gauge
//! fields become [`Value`]s. A row that does not read from its text is
//! read again from its parsed tree (a [`serde::Cursor`]) by the same
//! reader, so its error is the syntax error, if any, before the shape
//! error. It then independently re-derives per-service /
//! per-class SLO attainment and latency distributions from the request
//! spans alone ([`recompute_serving`]). Because every float was written
//! shortest-round-trip and parsed back correctly-rounded, the recomputed
//! numbers can be compared against the run's JSON report with **exact**
//! equality — divergence means the trace and the report genuinely
//! disagree, i.e. the instrumentation lies. `parvactl trace audit` gates
//! CI on that comparison.
//!
//! Also here: roll-ups for humans — [`summarize`] (per-phase span
//! breakdowns, top-k slowest requests) and [`diff`] (two runs compared
//! span-count / duration / attainment-wise).

use parva_des::LatencyHistogram;
use serde::{Kind, Number, Source, Value};

/// One trace event parsed back from an exported trace (Chrome document
/// or JSONL). Metadata rows (`ph: "M"`) are dropped at parse time.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Event name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Phase code (`'X'` span, `'i'` instant).
    pub ph: char,
    /// Start, simulation µs.
    pub ts_us: u64,
    /// Duration, simulation µs (0 for instants).
    pub dur_us: u64,
    /// Track group (layer).
    pub pid: u32,
    /// Track within the layer.
    pub tid: u32,
    /// The `args` payload, insertion order.
    pub args: Vec<(String, Value)>,
}

impl ParsedEvent {
    /// Span end, simulation µs (`ts + dur`; equals `ts` for instants).
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.ts_us.saturating_add(self.dur_us)
    }

    /// Look an argument up by key.
    #[must_use]
    pub fn arg(&self, key: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// An argument as `u64`, if present and integral.
    #[must_use]
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.arg(key).and_then(value_u64)
    }

    /// An argument as `f64`, if present and numeric.
    #[must_use]
    pub fn arg_f64(&self, key: &str) -> Option<f64> {
        self.arg(key).and_then(value_f64)
    }

    /// An argument as `bool`, if present and boolean.
    #[must_use]
    pub fn arg_bool(&self, key: &str) -> Option<bool> {
        self.arg(key).and_then(|v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// An argument as `&str`, if present and a string.
    #[must_use]
    pub fn arg_str(&self, key: &str) -> Option<&str> {
        self.arg(key).and_then(|v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }
}

/// A [`Value`] as `u64` (integers only — floats are never silently
/// truncated).
#[must_use]
pub fn value_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(i) => u64::try_from(*i).ok(),
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}

/// A [`Value`] as `f64` (any numeric shape).
#[must_use]
pub fn value_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// A reader of one exported JSON document into `Self`, generic over the
/// [`Source`] it pulls from. `args` is a scratch list the reader may use
/// to size each event's `args` exactly.
trait Exported: Sized {
    fn read<S: Source>(src: &mut S, args: &mut Vec<(String, Value)>) -> Result<Self, String>;
}

/// Read `text` as a `T` straight from the text; if that fails, parse it
/// whole and read the tree, so a syntax error anywhere in it (put in
/// context by `syntax`) is reported before any shape error.
fn read_exported<T: Exported>(
    text: &str,
    args: &mut Vec<(String, Value)>,
    syntax: impl FnOnce(serde_json::Error) -> String,
) -> Result<T, String> {
    let mut reader = serde_json::Reader::new(text);
    if let Ok(read) = T::read(&mut reader, args) {
        if reader.end().is_ok() {
            return Ok(read);
        }
    }
    let tree: Value = serde_json::from_str(text).map_err(syntax)?;
    T::read(&mut serde::Cursor::new(&tree), args)
}

fn source_err(e: serde::Error) -> String {
    e.0
}

/// `f` of a string value, or `None` (the value skipped) for any other
/// kind.
fn read_str_as<S: Source, T>(
    src: &mut S,
    f: impl FnOnce(&str) -> T,
) -> Result<Option<T>, serde::Error> {
    if src.peek()? == Kind::Str {
        return src.read_str().map(|s| Some(f(s)));
    }
    src.skip_value().map(|()| None)
}

/// A value as `u64` if it is a non-negative integer (see [`value_u64`]),
/// `None` (the value skipped) otherwise.
fn read_u64<S: Source>(src: &mut S) -> Result<Option<u64>, serde::Error> {
    if src.peek()? != Kind::Number {
        return src.skip_value().map(|()| None);
    }
    Ok(match src.read_number()? {
        Number::Int(i) => u64::try_from(i).ok(),
        Number::UInt(u) => Some(u),
        Number::Float(_) => None,
    })
}

/// One trace event, each field from its key's first occurrence; a
/// metadata row (`ph: "M"`) reads as `None`.
impl Exported for Option<ParsedEvent> {
    fn read<S: Source>(src: &mut S, args: &mut Vec<(String, Value)>) -> Result<Self, String> {
        if src.peek().map_err(source_err)? != Kind::Map {
            let v = src.read_value().map_err(source_err)?;
            return Err(format!("trace event is not an object: {v:?}"));
        }
        // Outer `Some` once the key was seen; inner `None` when its value
        // was of another kind.
        let mut ph: Option<Option<char>> = None;
        let mut name: Option<Option<String>> = None;
        let mut cat: Option<Option<String>> = None;
        let mut ints: [Option<Option<u64>>; 4] = [None; 4]; // ts, dur, pid, tid
        let mut event_args: Option<Vec<(String, Value)>> = None;
        let mut read_fields = || -> Result<(), serde::Error> {
            src.begin_map()?;
            while let Some(key) = src.next_key()? {
                let slot = match key {
                    "ph" => 0,
                    "name" => 1,
                    "cat" => 2,
                    "ts" => 3,
                    "dur" => 4,
                    "pid" => 5,
                    "tid" => 6,
                    "args" => 7,
                    _ => usize::MAX,
                };
                match slot {
                    0 if ph.is_none() => {
                        ph = Some(read_str_as(src, |s| s.chars().next().unwrap_or('?'))?);
                    }
                    1 if name.is_none() => name = Some(read_str_as(src, str::to_owned)?),
                    2 if cat.is_none() => cat = Some(read_str_as(src, str::to_owned)?),
                    3..=6 if ints[slot - 3].is_none() => ints[slot - 3] = Some(read_u64(src)?),
                    7 if event_args.is_none() => {
                        if src.peek()? != Kind::Map {
                            src.skip_value()?;
                            event_args = Some(Vec::new());
                            continue;
                        }
                        args.clear();
                        src.begin_map()?;
                        while let Some(key) = src.next_key()? {
                            let key = key.to_owned();
                            args.push((key, src.read_value()?));
                        }
                        // The event keeps exactly its own entries; the
                        // scratch list keeps its capacity for the next.
                        let mut own = Vec::with_capacity(args.len());
                        own.append(args);
                        event_args = Some(own);
                    }
                    _ => src.skip_value()?,
                }
            }
            Ok(())
        };
        read_fields().map_err(source_err)?;
        let Some(Some(ph)) = ph else {
            return Err("trace event without a \"ph\" phase".into());
        };
        if ph == 'M' {
            return Ok(None); // metadata (process_name / thread_name)
        }
        let Some(Some(name)) = name else {
            return Err("trace event without a \"name\"".into());
        };
        let [ts, dur, pid, tid] = ints.map(Option::flatten);
        let ts_us = ts.ok_or_else(|| format!("event \"{name}\" without an integer \"ts\""))?;
        Ok(Some(ParsedEvent {
            name,
            cat: cat.flatten().unwrap_or_default(),
            ph,
            ts_us,
            dur_us: dur.unwrap_or(0),
            pid: pid.unwrap_or(0) as u32,
            tid: tid.unwrap_or(0) as u32,
            args: event_args.unwrap_or_default(),
        }))
    }
}

/// The Chrome trace document: the events of its first `traceEvents`
/// array, metadata rows dropped.
impl Exported for Vec<ParsedEvent> {
    fn read<S: Source>(src: &mut S, args: &mut Vec<(String, Value)>) -> Result<Self, String> {
        const NO_EVENTS: &str = "trace document without a \"traceEvents\" array";
        if src.peek().map_err(source_err)? != Kind::Map {
            return Err("trace document is not an object".into());
        }
        let mut events = None;
        src.begin_map().map_err(source_err)?;
        while let Some(key) = src.next_key().map_err(source_err)? {
            if key != "traceEvents" || events.is_some() {
                src.skip_value().map_err(source_err)?;
                continue;
            }
            if src.peek().map_err(source_err)? != Kind::Seq {
                return Err(NO_EVENTS.into());
            }
            let mut list = Vec::new();
            src.begin_seq().map_err(source_err)?;
            while src.next_item().map_err(source_err)? {
                list.extend(Option::<ParsedEvent>::read(src, args)?);
            }
            events = Some(list);
        }
        events.ok_or_else(|| NO_EVENTS.into())
    }
}

/// Parse an exported trace — either the Chrome document
/// (`{"displayTimeUnit":…,"traceEvents":[…]}`) or line-delimited JSON —
/// into typed events, dropping metadata rows.
///
/// # Errors
/// Malformed JSON or events missing required fields.
pub fn parse_trace(text: &str) -> Result<Vec<ParsedEvent>, String> {
    let trimmed = text.trim_start();
    let mut args = Vec::new();
    if trimmed.starts_with("{\"displayTimeUnit\"") || trimmed.starts_with("{\"traceEvents\"") {
        return read_exported(trimmed, &mut args, |e| format!("trace JSON: {e}"));
    }
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: Option<ParsedEvent> =
            read_exported(line, &mut args, |e| format!("trace line {}: {e}", i + 1))?;
        out.extend(event);
    }
    Ok(out)
}

/// One gauge row parsed back from a metrics JSONL export.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeRow {
    /// The row's fields, insertion order.
    pub fields: Vec<(String, Value)>,
}

impl GaugeRow {
    /// Look a field up by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A field as `&str`.
    #[must_use]
    pub fn str_of(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(|v| match v {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// A field as `u64`.
    #[must_use]
    pub fn u64_of(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(value_u64)
    }

    /// A field as `f64`.
    #[must_use]
    pub fn f64_of(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(value_f64)
    }

    /// A field as `bool`.
    #[must_use]
    pub fn bool_of(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(|v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// The row kind (`"tick"`, `"service"`, `"tenant"`, `"fleet"`,
    /// `"federation"`, `"region"`, `"billing"`), empty when absent.
    #[must_use]
    pub fn kind(&self) -> &str {
        self.str_of("kind").unwrap_or("")
    }
}

/// Parse a metrics JSONL export into gauge rows.
///
/// # Errors
/// Malformed JSON or non-object lines.
pub fn parse_metrics(text: &str) -> Result<Vec<GaugeRow>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("metrics line {}: {e}", i + 1))?;
        let Value::Map(fields) = v else {
            return Err(format!("metrics line {} is not an object", i + 1));
        };
        out.push(GaugeRow { fields });
    }
    Ok(out)
}

/// Per-service serving counters recomputed from request spans alone.
#[derive(Debug, Clone)]
pub struct ServiceRecount {
    /// Service id (the spans' `service` argument).
    pub service_id: u64,
    /// Arrivals inside the measurement window, rejected included.
    pub offered: u64,
    /// In-window arrivals rejected at the tenant admission gate (the
    /// `rejected: true` instants; always 0 without tenant quotas).
    pub rejected: u64,
    /// Requests whose completion landed inside the window.
    pub completed: u64,
    /// In-window completions within the SLO.
    pub completed_within_slo: u64,
    /// In-window latency distribution, rebuilt sample by sample.
    pub latency: LatencyHistogram,
    /// In-window `timeout` instants (resilience policy; 0 without one).
    pub timeouts: u64,
    /// In-window `retry` instants.
    pub retries: u64,
    /// In-window `shed` instants.
    pub shed: u64,
    /// In-window `hedge` instants.
    pub hedges: u64,
    /// In-window `hedge-win` instants.
    pub hedge_wins: u64,
}

impl ServiceRecount {
    /// Request-level SLO attainment — the same formula as the report's
    /// `request_compliance_rate` (in-SLO completions over offered, 1.0
    /// when nothing was offered), so the comparison is apples to apples.
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            (self.completed_within_slo as f64 / self.offered as f64).min(1.0)
        }
    }
}

/// Per-(service, class) counters recomputed from request spans.
#[derive(Debug, Clone)]
pub struct ClassRecount {
    /// Owning service id.
    pub service_id: u64,
    /// Class index within the service.
    pub class: u64,
    /// Arrivals inside the measurement window.
    pub offered: u64,
    /// In-window completions.
    pub completed: u64,
    /// In-window completions within the SLO.
    pub completed_within_slo: u64,
    /// In-window latency distribution (network term included).
    pub latency: LatencyHistogram,
}

impl ClassRecount {
    /// Request-level SLO attainment of the class (see
    /// [`ServiceRecount::attainment`]).
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            (self.completed_within_slo as f64 / self.offered as f64).min(1.0)
        }
    }
}

/// Per-tenant counters recomputed from tenant-tagged arrivals and request
/// spans. Tenant-free traces (no `tenant` span argument anywhere) produce
/// no rows, mirroring the report's omitted `tenants` rollup.
#[derive(Debug, Clone)]
pub struct TenantRecount {
    /// Tenant id (the events' `tenant` argument; 0 = unbound services).
    pub tenant: u64,
    /// In-window arrivals across the tenant's services, rejected included.
    pub offered: u64,
    /// Arrivals admitted past the quota gate (`offered - rejected`).
    pub admitted: u64,
    /// Arrivals rejected at ingress (the `rejected: true` instants).
    pub rejected: u64,
    /// In-window completions.
    pub completed: u64,
    /// In-window completions within the SLO.
    pub completed_within_slo: u64,
    /// In-window latency distribution merged across the tenant's services.
    pub latency: LatencyHistogram,
}

impl TenantRecount {
    /// Attainment against *offered* load — the report's
    /// `TenantReport::attainment` formula, where rejected requests count
    /// as misses (1.0 when nothing was offered).
    #[must_use]
    pub fn attainment(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            (self.completed_within_slo as f64 / self.offered as f64).min(1.0)
        }
    }
}

/// Serving accounting recomputed from a trace, independent of the
/// simulator: the audit's half of the comparison.
#[derive(Debug, Clone)]
pub struct ServingRecount {
    /// Measurement window start, µs (from the `window` meta instant).
    pub window_start_us: u64,
    /// Measurement window end, µs (exclusive).
    pub window_end_us: u64,
    /// Per-service counters, ordered by service id.
    pub services: Vec<ServiceRecount>,
    /// Per-(service, class) counters, service-major order.
    pub classes: Vec<ClassRecount>,
    /// Per-tenant counters, ordered by tenant id; empty for tenant-free
    /// traces.
    pub tenants: Vec<TenantRecount>,
}

impl ServingRecount {
    /// The recount for one service, if any of its spans were seen.
    #[must_use]
    pub fn service(&self, id: u64) -> Option<&ServiceRecount> {
        self.services.iter().find(|s| s.service_id == id)
    }

    /// The recount for one (service, class) pair.
    #[must_use]
    pub fn class(&self, id: u64, class: u64) -> Option<&ClassRecount> {
        self.classes
            .iter()
            .find(|c| c.service_id == id && c.class == class)
    }

    /// The recount for one tenant, if any tenant-tagged events were seen.
    #[must_use]
    pub fn tenant(&self, id: u64) -> Option<&TenantRecount> {
        self.tenants.iter().find(|t| t.tenant == id)
    }

    /// Offered-weighted overall attainment (the report's
    /// `overall_request_compliance_rate` formula).
    #[must_use]
    pub fn overall_attainment(&self) -> f64 {
        let offered: u64 = self.services.iter().map(|s| s.offered).sum();
        if offered == 0 {
            return 1.0;
        }
        let within: u64 = self
            .services
            .iter()
            .map(|s| s.completed_within_slo)
            .sum::<u64>();
        (within as f64 / offered as f64).min(1.0)
    }
}

/// Find-or-create the recount row for `id`, returning its index.
fn tenant_at(id: u64, tenants: &mut Vec<TenantRecount>) -> usize {
    if let Some(i) = tenants.iter().position(|t| t.tenant == id) {
        return i;
    }
    tenants.push(TenantRecount {
        tenant: id,
        offered: 0,
        admitted: 0,
        rejected: 0,
        completed: 0,
        completed_within_slo: 0,
        latency: LatencyHistogram::new(),
    });
    tenants.len() - 1
}

/// Find-or-create the recount row for `id`, returning its index.
fn service_at(id: u64, services: &mut Vec<ServiceRecount>) -> usize {
    if let Some(i) = services.iter().position(|s| s.service_id == id) {
        return i;
    }
    services.push(ServiceRecount {
        service_id: id,
        offered: 0,
        rejected: 0,
        completed: 0,
        completed_within_slo: 0,
        latency: LatencyHistogram::new(),
        timeouts: 0,
        retries: 0,
        shed: 0,
        hedges: 0,
        hedge_wins: 0,
    });
    services.len() - 1
}

/// Find-or-create the recount row for `(id, class)`, returning its index.
fn class_at(id: u64, class: u64, classes: &mut Vec<ClassRecount>) -> usize {
    if let Some(i) = classes
        .iter()
        .position(|c| c.service_id == id && c.class == class)
    {
        return i;
    }
    classes.push(ClassRecount {
        service_id: id,
        class,
        offered: 0,
        completed: 0,
        completed_within_slo: 0,
        latency: LatencyHistogram::new(),
    });
    classes.len() - 1
}

/// Recompute the serving report's accounting from request spans.
///
/// Replays the exact window discipline of the event loop: `offered`
/// counts `arrival` instants with `ts ∈ [start, end)` (quota-rejected
/// arrivals included — they carry `rejected: true` and count as offered
/// but never complete); `completed` / `completed_within_slo` / latency
/// count `request` spans whose *end* (`ts + dur` — the completion time)
/// lands in the window, regardless of when the request arrived. Events
/// carrying a `tenant` argument additionally aggregate into per-tenant
/// rows, mirroring the report's `tenants` rollup. Latencies are
/// re-recorded through the same [`LatencyHistogram`] the simulator uses,
/// so quantiles compare exactly, not approximately.
///
/// # Errors
/// A trace without the `window` meta instant (not a serve-layer trace).
pub fn recompute_serving(events: &[ParsedEvent]) -> Result<ServingRecount, String> {
    let window = events
        .iter()
        .find(|e| e.name == "window" && e.cat == "meta")
        .ok_or("trace has no \"window\" meta event — not a serve-layer trace")?;
    let start_us = window
        .arg_u64("start_us")
        .ok_or("window event without start_us")?;
    let end_us = window
        .arg_u64("end_us")
        .ok_or("window event without end_us")?;

    let mut services: Vec<ServiceRecount> = Vec::new();
    let mut classes: Vec<ClassRecount> = Vec::new();
    let mut tenants: Vec<TenantRecount> = Vec::new();

    for ev in events {
        // Resilience instants (timeouts, retries, sheds, hedges) recount
        // against the report's per-service counters with the engine's
        // window gate: the counters only increment at `ts ∈ [start, end)`.
        if ev.cat == "resilience" && ev.ph == 'i' {
            if ev.ts_us < start_us || ev.ts_us >= end_us {
                continue;
            }
            let id = ev
                .arg_u64("service")
                .ok_or_else(|| format!("{} at ts={} missing service", ev.name, ev.ts_us))?;
            let si = service_at(id, &mut services);
            match ev.name.as_str() {
                "timeout" => services[si].timeouts += 1,
                "retry" => services[si].retries += 1,
                "shed" => services[si].shed += 1,
                "hedge" => services[si].hedges += 1,
                "hedge-win" => services[si].hedge_wins += 1,
                _ => {}
            }
            continue;
        }
        if ev.cat != "request" {
            continue;
        }
        if ev.name == "arrival" && ev.ph == 'i' {
            if ev.ts_us < start_us || ev.ts_us >= end_us {
                continue;
            }
            let (Some(id), Some(class)) = (ev.arg_u64("service"), ev.arg_u64("class")) else {
                return Err(format!("arrival at ts={} missing service/class", ev.ts_us));
            };
            let si = service_at(id, &mut services);
            services[si].offered += 1;
            let ci = class_at(id, class, &mut classes);
            classes[ci].offered += 1;
            if ev.arg_bool("rejected") == Some(true) {
                services[si].rejected += 1;
            }
            if let Some(tid) = ev.arg_u64("tenant") {
                let ti = tenant_at(tid, &mut tenants);
                tenants[ti].offered += 1;
                if ev.arg_bool("rejected") == Some(true) {
                    tenants[ti].rejected += 1;
                } else {
                    tenants[ti].admitted += 1;
                }
            }
        } else if ev.name == "request" && ev.ph == 'X' {
            // The completion time is the span's end; the report counts a
            // request in the window its completion lands in.
            let done_us = ev.end_us();
            if done_us < start_us || done_us >= end_us {
                continue;
            }
            let (Some(id), Some(class)) = (ev.arg_u64("service"), ev.arg_u64("class")) else {
                return Err(format!("request at ts={} missing service/class", ev.ts_us));
            };
            let lat_ms = ev
                .arg_f64("latency_ms")
                .ok_or_else(|| format!("request at ts={} missing latency_ms", ev.ts_us))?;
            let ok = ev
                .arg_bool("ok")
                .ok_or_else(|| format!("request at ts={} missing ok", ev.ts_us))?;
            let si = service_at(id, &mut services);
            services[si].completed += 1;
            services[si].completed_within_slo += u64::from(ok);
            services[si].latency.record_ms(lat_ms);
            let ci = class_at(id, class, &mut classes);
            classes[ci].completed += 1;
            classes[ci].completed_within_slo += u64::from(ok);
            classes[ci].latency.record_ms(lat_ms);
            if let Some(tid) = ev.arg_u64("tenant") {
                let ti = tenant_at(tid, &mut tenants);
                tenants[ti].completed += 1;
                tenants[ti].completed_within_slo += u64::from(ok);
                tenants[ti].latency.record_ms(lat_ms);
            }
        }
    }
    services.sort_by_key(|s| s.service_id);
    classes.sort_by_key(|c| (c.service_id, c.class));
    tenants.sort_by_key(|t| t.tenant);
    Ok(ServingRecount {
        window_start_us: start_us,
        window_end_us: end_us,
        services,
        classes,
        tenants,
    })
}

/// Aggregate over all spans sharing one `(cat, name)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Category.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: u64,
    /// Longest single span, µs.
    pub max_us: u64,
}

/// Count of instants sharing one `(cat, name)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantStat {
    /// Category.
    pub cat: String,
    /// Instant name.
    pub name: String,
    /// Number of instants.
    pub count: u64,
}

/// One of the slowest request spans in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowRequest {
    /// Service id.
    pub service: u64,
    /// Ingress class.
    pub class: u64,
    /// Serving track (server index).
    pub server: u32,
    /// Arrival time, µs.
    pub ts_us: u64,
    /// End-to-end latency, ms (network term included).
    pub latency_ms: f64,
    /// Whether it met the SLO.
    pub ok: bool,
}

/// The roll-up `parvactl trace summary` renders.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// Total parsed events (metadata excluded).
    pub events: u64,
    /// Span aggregates, `(cat, name)` order — the per-phase breakdown
    /// (`batch/batch-form`, `batch/execute`, `request/request`,
    /// `recovery/…`).
    pub spans: Vec<SpanStat>,
    /// Instant counts, `(cat, name)` order.
    pub instants: Vec<InstantStat>,
    /// Top-k slowest request spans, slowest first.
    pub slowest: Vec<SlowRequest>,
}

/// Roll a parsed trace up into per-phase aggregates and the top-`k`
/// slowest requests.
#[must_use]
pub fn summarize(events: &[ParsedEvent], top_k: usize) -> TraceSummary {
    let mut spans: Vec<SpanStat> = Vec::new();
    let mut instants: Vec<InstantStat> = Vec::new();
    let mut requests: Vec<SlowRequest> = Vec::new();
    for ev in events {
        if ev.ph == 'X' {
            match spans
                .iter_mut()
                .find(|s| s.cat == ev.cat && s.name == ev.name)
            {
                Some(s) => {
                    s.count += 1;
                    s.total_us += ev.dur_us;
                    s.max_us = s.max_us.max(ev.dur_us);
                }
                None => spans.push(SpanStat {
                    cat: ev.cat.clone(),
                    name: ev.name.clone(),
                    count: 1,
                    total_us: ev.dur_us,
                    max_us: ev.dur_us,
                }),
            }
            if ev.name == "request" && ev.cat == "request" {
                if let Some(latency_ms) = ev.arg_f64("latency_ms") {
                    requests.push(SlowRequest {
                        service: ev.arg_u64("service").unwrap_or(0),
                        class: ev.arg_u64("class").unwrap_or(0),
                        server: ev.tid,
                        ts_us: ev.ts_us,
                        latency_ms,
                        ok: ev.arg_bool("ok").unwrap_or(false),
                    });
                }
            }
        } else {
            match instants
                .iter_mut()
                .find(|s| s.cat == ev.cat && s.name == ev.name)
            {
                Some(s) => s.count += 1,
                None => instants.push(InstantStat {
                    cat: ev.cat.clone(),
                    name: ev.name.clone(),
                    count: 1,
                }),
            }
        }
    }
    spans.sort_by(|a, b| (&a.cat, &a.name).cmp(&(&b.cat, &b.name)));
    instants.sort_by(|a, b| (&a.cat, &a.name).cmp(&(&b.cat, &b.name)));
    // Slowest first; arrival time breaks ties deterministically.
    requests.sort_by(|a, b| {
        b.latency_ms
            .partial_cmp(&a.latency_ms)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.ts_us.cmp(&b.ts_us))
    });
    requests.truncate(top_k);
    TraceSummary {
        events: events.len() as u64,
        spans,
        instants,
        slowest: requests,
    }
}

impl TraceSummary {
    /// Render the summary as an aligned text table.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{} event(s)\n", self.events);
        if !self.spans.is_empty() {
            out.push_str("\nspans (cat/name, count, total ms, mean ms, max ms):\n");
            for s in &self.spans {
                let mean = if s.count == 0 {
                    0.0
                } else {
                    s.total_us as f64 / s.count as f64 / 1000.0
                };
                let _ = writeln!(
                    out,
                    "  {:<24} {:>8}  {:>12.1}  {:>9.3}  {:>9.1}",
                    format!("{}/{}", s.cat, s.name),
                    s.count,
                    s.total_us as f64 / 1000.0,
                    mean,
                    s.max_us as f64 / 1000.0,
                );
            }
        }
        if !self.instants.is_empty() {
            out.push_str("\ninstants (cat/name, count):\n");
            for s in &self.instants {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>8}",
                    format!("{}/{}", s.cat, s.name),
                    s.count
                );
            }
        }
        if !self.slowest.is_empty() {
            out.push_str("\nslowest requests (latency ms, service, class, server, arrival ms):\n");
            for r in &self.slowest {
                let _ = writeln!(
                    out,
                    "  {:>9.2}  svc {:<3} cls {:<2} srv {:<3} @{:>10.1}  {}",
                    r.latency_ms,
                    r.service,
                    r.class,
                    r.server,
                    r.ts_us as f64 / 1000.0,
                    if r.ok { "ok" } else { "SLO MISS" },
                );
            }
        }
        out
    }
}

/// One `(cat, name)` compared across two traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// Category.
    pub cat: String,
    /// Event name.
    pub name: String,
    /// Count in trace A (spans + instants).
    pub count_a: u64,
    /// Count in trace B.
    pub count_b: u64,
    /// Summed span duration in A, µs.
    pub total_us_a: u64,
    /// Summed span duration in B, µs.
    pub total_us_b: u64,
}

/// The comparison `parvactl trace diff` renders.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// Events in trace A.
    pub events_a: u64,
    /// Events in trace B.
    pub events_b: u64,
    /// Per-`(cat, name)` rows, every name seen in either trace.
    pub rows: Vec<DiffRow>,
    /// Overall request attainment of A (serve traces only).
    pub attainment_a: Option<f64>,
    /// Overall request attainment of B (serve traces only).
    pub attainment_b: Option<f64>,
}

/// Compare two parsed traces: span/instant counts and summed durations
/// per `(cat, name)`, plus overall SLO attainment when both are
/// serve-layer traces.
#[must_use]
pub fn diff(a: &[ParsedEvent], b: &[ParsedEvent]) -> TraceDiff {
    let mut rows: Vec<DiffRow> = Vec::new();
    let tally = |events: &[ParsedEvent], rows: &mut Vec<DiffRow>, second: bool| {
        for ev in events {
            let at = rows
                .iter()
                .position(|r| r.cat == ev.cat && r.name == ev.name)
                .unwrap_or_else(|| {
                    rows.push(DiffRow {
                        cat: ev.cat.clone(),
                        name: ev.name.clone(),
                        count_a: 0,
                        count_b: 0,
                        total_us_a: 0,
                        total_us_b: 0,
                    });
                    rows.len() - 1
                });
            let row = &mut rows[at];
            if second {
                row.count_b += 1;
                row.total_us_b += ev.dur_us;
            } else {
                row.count_a += 1;
                row.total_us_a += ev.dur_us;
            }
        }
    };
    tally(a, &mut rows, false);
    tally(b, &mut rows, true);
    rows.sort_by(|x, y| (&x.cat, &x.name).cmp(&(&y.cat, &y.name)));
    TraceDiff {
        events_a: a.len() as u64,
        events_b: b.len() as u64,
        rows,
        attainment_a: recompute_serving(a).ok().map(|r| r.overall_attainment()),
        attainment_b: recompute_serving(b).ok().map(|r| r.overall_attainment()),
    }
}

impl TraceDiff {
    /// Render the diff as an aligned text table (rows that differ are
    /// marked with `*`).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("events: {} vs {}\n", self.events_a, self.events_b);
        if let (Some(a), Some(b)) = (self.attainment_a, self.attainment_b) {
            let _ = writeln!(
                out,
                "overall attainment: {:.4} vs {:.4} (delta {:+.4})",
                a,
                b,
                b - a
            );
        }
        out.push_str("\ncat/name                     count A  count B   total A ms   total B ms\n");
        for r in &self.rows {
            let marker = if r.count_a != r.count_b || r.total_us_a != r.total_us_b {
                '*'
            } else {
                ' '
            };
            let _ = writeln!(
                out,
                "{marker} {:<26} {:>8} {:>8} {:>12.1} {:>12.1}",
                format!("{}/{}", r.cat, r.name),
                r.count_a,
                r.count_b,
                r.total_us_a as f64 / 1000.0,
                r.total_us_b as f64 / 1000.0,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace_jsonl, TraceEvent, PID_SERVE};

    /// A tiny synthetic serve trace: window [1000, 5000), two services.
    fn synthetic_trace() -> Vec<TraceEvent> {
        let req = |svc: u64, cls: u64, ts: u64, dur: u64, lat: f64, ok: bool| {
            TraceEvent::span("request", "request", ts, dur)
                .pid(PID_SERVE)
                .tid(0)
                .arg_u64("service", svc)
                .arg_u64("class", cls)
                .arg_f64("latency_ms", lat)
                .arg_bool("ok", ok)
        };
        let arr = |svc: u64, cls: u64, ts: u64| {
            TraceEvent::instant("arrival", "request", ts)
                .pid(PID_SERVE)
                .arg_u64("service", svc)
                .arg_u64("class", cls)
        };
        vec![
            TraceEvent::instant("window", "meta", 0)
                .pid(PID_SERVE)
                .arg_u64("start_us", 1000)
                .arg_u64("end_us", 5000),
            arr(0, 0, 500),  // before the window: not offered
            arr(0, 0, 1200), // offered
            arr(0, 0, 2000), // offered
            arr(1, 0, 3000), // offered
            arr(1, 0, 5000), // at end: not offered
            // Arrived pre-window, completed in-window: counted.
            req(0, 0, 500, 800, 1.3, true),
            req(0, 0, 1200, 500, 0.5, true),
            // Completed at exactly end: excluded.
            req(0, 0, 2000, 3000, 3.0, false),
            req(1, 0, 3000, 1500, 9.5, false),
        ]
    }

    fn parsed() -> Vec<ParsedEvent> {
        parse_trace(&trace_jsonl(&synthetic_trace())).unwrap()
    }

    #[test]
    fn parse_trace_reads_both_formats() {
        let evs = synthetic_trace();
        let from_jsonl = parse_trace(&trace_jsonl(&evs)).unwrap();
        let from_doc = parse_trace(&crate::chrome_trace_json(&evs)).unwrap();
        // The document adds metadata rows; the parser drops them, so both
        // roads parse to the same events.
        assert_eq!(from_jsonl, from_doc);
        assert_eq!(from_jsonl.len(), evs.len());
        assert_eq!(from_jsonl[0].name, "window");
        assert_eq!(from_jsonl[0].arg_u64("end_us"), Some(5000));
        let req = from_jsonl.iter().find(|e| e.name == "request").unwrap();
        assert_eq!(req.ph, 'X');
        assert_eq!(req.arg_f64("latency_ms"), Some(1.3));
        assert_eq!(req.arg_bool("ok"), Some(true));
        assert_eq!(req.end_us(), 1300);
    }

    #[test]
    fn recompute_replays_the_window_discipline() {
        let r = recompute_serving(&parsed()).unwrap();
        assert_eq!(r.window_start_us, 1000);
        assert_eq!(r.window_end_us, 5000);
        let s0 = r.service(0).unwrap();
        // Arrivals at 1200 and 2000 count; 500 is pre-window.
        assert_eq!(s0.offered, 2);
        // Completions at 1300 and 1700 count; the span ending exactly at
        // 5000 is out of the half-open window.
        assert_eq!(s0.completed, 2);
        assert_eq!(s0.completed_within_slo, 2);
        assert_eq!(s0.latency.count(), 2);
        let s1 = r.service(1).unwrap();
        assert_eq!(s1.offered, 1);
        assert_eq!(s1.completed, 1);
        assert_eq!(s1.completed_within_slo, 0);
        assert!((s1.attainment() - 0.0).abs() < 1e-12);
        // Class rows mirror the service rows here (single class).
        assert_eq!(r.class(0, 0).unwrap().completed, 2);
        // Overall: 2 within / 3 offered.
        assert!((r.overall_attainment() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn recompute_aggregates_tenants() {
        // Tenant-free traces stay tenant-free: no phantom rows.
        assert!(recompute_serving(&parsed()).unwrap().tenants.is_empty());

        // A tenanted window: tenant 1 offers three (one over quota),
        // tenant 2 offers one that misses its SLO.
        let arr = |svc: u64, tenant: u64, ts: u64| {
            TraceEvent::instant("arrival", "request", ts)
                .pid(PID_SERVE)
                .arg_u64("service", svc)
                .arg_u64("class", 0)
                .arg_u64("tenant", tenant)
        };
        let req = |svc: u64, tenant: u64, ts: u64, dur: u64, lat: f64, ok: bool| {
            TraceEvent::span("request", "request", ts, dur)
                .pid(PID_SERVE)
                .tid(0)
                .arg_u64("service", svc)
                .arg_u64("class", 0)
                .arg_f64("latency_ms", lat)
                .arg_bool("ok", ok)
                .arg_u64("tenant", tenant)
        };
        let events = vec![
            TraceEvent::instant("window", "meta", 0)
                .pid(PID_SERVE)
                .arg_u64("start_us", 1000)
                .arg_u64("end_us", 5000),
            arr(0, 1, 1200),
            arr(0, 1, 1500),
            arr(0, 1, 1600).arg_bool("rejected", true),
            arr(1, 2, 2000),
            req(0, 1, 1200, 300, 2.0, true),
            req(1, 2, 2000, 500, 8.0, false),
        ];
        let r = recompute_serving(&parse_trace(&trace_jsonl(&events)).unwrap()).unwrap();
        assert_eq!(r.tenants.len(), 2);
        let t1 = r.tenant(1).unwrap();
        assert_eq!(
            (
                t1.offered,
                t1.admitted,
                t1.rejected,
                t1.completed,
                t1.completed_within_slo
            ),
            (3, 2, 1, 1, 1)
        );
        assert!((t1.attainment() - 1.0 / 3.0).abs() < 1e-12);
        let t2 = r.tenant(2).unwrap();
        assert_eq!(
            (t2.offered, t2.rejected, t2.completed_within_slo),
            (1, 0, 0)
        );
        assert_eq!(t2.latency.count(), 1);
        // The rejected arrival still counts in the service's offered load,
        // and is attributed to the service's own rejection counter too.
        assert_eq!(r.service(0).unwrap().offered, 3);
        assert_eq!(r.service(0).unwrap().rejected, 1);
        assert_eq!(r.service(1).unwrap().rejected, 0);
        assert!(r.tenant(3).is_none());
    }

    #[test]
    fn recompute_requires_the_window_event() {
        let evs: Vec<ParsedEvent> = parsed()
            .into_iter()
            .filter(|e| e.name != "window")
            .collect();
        assert!(recompute_serving(&evs).is_err());
    }

    #[test]
    fn summary_aggregates_and_ranks() {
        let s = summarize(&parsed(), 2);
        assert_eq!(s.events, 10);
        let req = s
            .spans
            .iter()
            .find(|x| x.name == "request")
            .expect("request span aggregate");
        assert_eq!(req.count, 4);
        assert_eq!(req.max_us, 3000);
        let arr = s
            .instants
            .iter()
            .find(|x| x.name == "arrival")
            .expect("arrival instant count");
        assert_eq!(arr.count, 5);
        // Top-2 slowest by latency: 9.5 then 3.0.
        assert_eq!(s.slowest.len(), 2);
        assert!((s.slowest[0].latency_ms - 9.5).abs() < 1e-12);
        assert!(!s.slowest[0].ok);
        let text = s.render();
        assert!(text.contains("request/request"));
        assert!(text.contains("SLO MISS"));
    }

    #[test]
    fn diff_reports_count_and_attainment_deltas() {
        let a = parsed();
        // Drop service 1's in-window traffic (its arrival and its SLO-miss
        // completion) from B.
        let b: Vec<ParsedEvent> = a
            .iter()
            .filter(|e| !(e.cat == "request" && e.ts_us == 3000))
            .cloned()
            .collect();
        let d = diff(&a, &b);
        assert_eq!(d.events_a, 10);
        assert_eq!(d.events_b, 8);
        let row = d.rows.iter().find(|r| r.name == "request").unwrap();
        assert_eq!(row.count_a, 4);
        assert_eq!(row.count_b, 3);
        // B lost its only SLO miss, so attainment rises.
        assert!(d.attainment_b.unwrap() > d.attainment_a.unwrap());
        assert!(d.render().contains("overall attainment"));
    }

    #[test]
    fn parse_metrics_reads_rows() {
        let rows = parse_metrics(
            "{\"run\":\"demo@7\",\"kind\":\"tick\",\"offered\":12,\"slo_attainment\":0.75}\n\
             {\"kind\":\"service\",\"service\":3}\n",
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kind(), "tick");
        assert_eq!(rows[0].str_of("run"), Some("demo@7"));
        assert_eq!(rows[0].u64_of("offered"), Some(12));
        assert!((rows[0].f64_of("slo_attainment").unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(rows[1].u64_of("service"), Some(3));
        assert!(parse_metrics("not json\n").is_err());
    }
}
