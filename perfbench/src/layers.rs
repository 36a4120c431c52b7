//! Per-layer figures of a traced pass, and the trace file.
//!
//! Every layer is measured from outside: spans the benchmark records
//! around its calls into the layer's public functions, the
//! `des::counters` and `SimCache` deltas over the pass, and the
//! figures the program hands back (orchestrator profile phases, trace and
//! checkpoint sizes). Layer spans sit directly under their op and never
//! nest, so the part of an op no layer span covers is the op's time in the
//! benchmark itself.

use crate::record::{PassOut, Span};
use parvagpu::obs::TraceEvent;
use std::collections::BTreeMap;

/// Every per-layer metric and its unit, in `BENCHMARK.json` order. The
/// figures are per traced pass: the run reports the median over traced
/// passes of each time and the mean over the traced rounds of work of
/// each count and size. A layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("core.configure_ms", "ms"),
    ("core.allocate_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.calls", "count"),
    ("profile.book_ms", "ms"),
    ("profile.book_builds", "count"),
    ("serve.run_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("des.loop_cpu_ms", "ms"),
    ("des.events", "count"),
    ("des.events_per_req", "ratio"),
    ("des.sims", "count"),
    ("des.peak_queue_depth", "count"),
    ("parvad.step_ms", "ms"),
    ("parvad.decide_ms", "ms"),
    ("parvad.submit_ms", "ms"),
    ("parvad.decisions", "count"),
    ("parvad.reconfigs", "count"),
    ("parvad.checkpoint_bytes", "bytes"),
    ("parvad.encode_ms", "ms"),
    ("parvad.decode_ms", "ms"),
    ("fleet.run_ms", "ms"),
    ("fleet.self_ms", "ms"),
    ("fleet.sims", "count"),
    ("fleet.cache_hits", "count"),
    ("fleet.cache_misses", "count"),
    ("fleet.cache_hit_ratio", "ratio"),
    ("fleet.schedule_ms", "ms"),
    ("fleet.plan_ms", "ms"),
    ("fleet.probe-fanout_ms", "ms"),
    ("fleet.merge_ms", "ms"),
    ("region.run_ms", "ms"),
    ("region.self_ms", "ms"),
    ("region.sims", "count"),
    ("region.event-apply_ms", "ms"),
    ("region.route_ms", "ms"),
    ("region.retarget_ms", "ms"),
    ("region.measure_ms", "ms"),
    ("region.follow-the-sun_ms", "ms"),
    ("obs.observed_run_ms", "ms"),
    ("obs.export_ms", "ms"),
    ("obs.audit_ms", "ms"),
    ("obs.trace_events", "count"),
    ("obs.trace_bytes", "bytes"),
    ("obs.gauge_rows", "count"),
    ("serde.report_encode_ms", "ms"),
    ("serde.report_bytes", "bytes"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// The registered metric name for `name`, if it is one.
fn key(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().map(|(k, _)| *k).find(|k| *k == name)
}

/// CPU a run span spent outside DES event loops, ms: process CPU over the
/// span minus the loop CPU the `des::counters` delta billed to it. Both
/// count every thread, so the fleet and region fan-out stays exact.
fn self_ms(s: &Span) -> f64 {
    s.cpu_ns.saturating_sub(s.des.loop_cpu_nanos) as f64 / 1e6
}

/// One traced pass's figure for each per-layer metric.
pub type Figures = BTreeMap<&'static str, f64>;

/// The per-layer figures of one traced pass, times read at the reference
/// host's speed. `book_ms` is the median profile-book build the benchmark
/// timed, already at that speed.
pub fn figures(p: &PassOut, book_ms: f64) -> Figures {
    let mut f: Figures = PER_LAYER.iter().map(|(k, _)| (*k, 0.0)).collect();
    let mut add = |k: &str, v: f64| {
        let k = key(k).unwrap_or_else(|| panic!("{k} is not a per-layer metric"));
        *f.get_mut(k).expect("every metric is pre-filled") += v;
    };
    for (k, v) in &p.counts {
        add(k, *v);
    }
    let (mut op_ms, mut covered_ms) = (0.0, 0.0);
    for s in &p.spans {
        if s.name == "op" {
            op_ms += s.ms();
            continue;
        }
        if s.parent.is_some() {
            covered_ms += s.ms();
        }
        if let Some(k) = PER_LAYER
            .iter()
            .map(|(k, _)| *k)
            .find(|k| k.strip_suffix("_ms") == Some(s.name))
        {
            add(k, s.ms());
        }
        if s.name.starts_with("core.") {
            add("core.calls", 1.0);
        }
        match s.name {
            "serve.run" => add("serve.self_ms", self_ms(s)),
            "fleet.run" => {
                add("fleet.self_ms", self_ms(s));
                add("fleet.sims", s.des.sims as f64);
            }
            "region.run" => {
                add("region.self_ms", self_ms(s));
                add("region.sims", s.des.sims as f64);
            }
            _ => {}
        }
    }
    add("des.loop_cpu_ms", p.des.loop_cpu_nanos as f64 / 1e6);
    add("des.events", p.des.events as f64);
    add("des.sims", p.des.sims as f64);
    add("des.peak_queue_depth", p.des.peak_queue_depth as f64);
    if p.offered > 0.0 && p.des.events > 0 {
        add("des.events_per_req", p.des.events as f64 / p.offered);
    }
    let (hits, misses) = p.cache;
    add("fleet.cache_hits", hits as f64);
    add("fleet.cache_misses", misses as f64);
    if hits + misses > 0 {
        add(
            "fleet.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }
    if op_ms > 0.0 {
        add(
            "bench.unattributed_frac",
            (op_ms - covered_ms).max(0.0) / op_ms,
        );
    }
    // Checkpoint decodes are the pass's timed JSON loads: each is read at
    // its own scale.
    let decode_ns: u64 = p.timed_loads.iter().map(|l| l.wall_ns).sum();
    let decode_scale = if decode_ns > 0 {
        let scaled: f64 = p
            .timed_loads
            .iter()
            .map(|l| l.wall_ns as f64 * p.scales.load(l.bytes))
            .sum();
        scaled / decode_ns as f64
    } else {
        p.scales.host
    };
    for (k, v) in f.iter_mut().filter(|(k, _)| k.ends_with("_ms")) {
        *v *= if *k == "parvad.decode_ms" {
            decode_scale
        } else {
            p.scales.host
        };
    }
    f.insert("profile.book_ms", book_ms);
    f
}

/// The spans of the traced passes as Chrome `trace_event` spans (one
/// track per pass, host microseconds since the benchmark started), each
/// carrying its op id, span id and parent span id.
pub fn trace_events(passes: &[PassOut]) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let mut id = 0u64;
    for (tid, p) in (0u32..).zip(passes) {
        let base = id;
        for s in &p.spans {
            id += 1;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let mut ev = TraceEvent::span(
                s.name,
                layer,
                s.start_ns / 1000,
                (s.end_ns - s.start_ns) / 1000,
            )
            .pid(0)
            .tid(tid)
            .arg_u64("op", s.op)
            .arg_u64("id", id);
            if let Some(parent) = s.parent {
                ev = ev.arg_u64("parent", base + parent as u64 + 1);
            }
            events.push(ev);
        }
    }
    events
}
