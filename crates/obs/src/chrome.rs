//! Exporters: Chrome/Perfetto `trace_event` JSON and line-delimited
//! JSON.
//!
//! Both renderings are hand-built strings with fixed field order, so a
//! given event list always produces byte-identical output, appended to
//! one buffer with no temporary per field. Timestamps and durations are
//! integer simulation microseconds — exactly the unit the Chrome trace
//! format expects for `ts`/`dur`.

use crate::trace::TraceEvent;
use std::fmt::Write as _;

fn write_args(out: &mut String, ev: &TraceEvent) {
    out.push_str("\"args\":{");
    for (i, (k, v)) in ev.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        crate::escape_into(out, k);
        out.push_str("\":");
        v.write_json(out);
    }
    out.push('}');
}

/// Render one event as its canonical JSON object — exactly the fragment
/// [`chrome_trace_json`] and [`trace_jsonl`] embed, so a streaming sink
/// writing these lines is byte-equivalent to the batch exporters.
#[must_use]
pub fn event_json(ev: &TraceEvent) -> String {
    let mut out = String::with_capacity(96);
    write_event(&mut out, ev);
    out
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"name\":\"");
    crate::escape_into(out, ev.name);
    out.push_str("\",\"cat\":\"");
    crate::escape_into(out, ev.cat);
    out.push_str("\",\"ph\":\"");
    out.push(ev.ph.code());
    let _ = write!(out, "\",\"ts\":{}", ev.ts_us);
    if ev.ph == crate::Phase::Complete {
        let _ = write!(out, ",\"dur\":{}", ev.dur_us);
    } else {
        // Instant events need a scope; "t" (thread) keeps them on their
        // track instead of full-height global markers.
        out.push_str(",\"s\":\"t\"");
    }
    let _ = write!(out, ",\"pid\":{},\"tid\":{},", ev.pid, ev.tid);
    write_args(out, ev);
    out.push('}');
}

/// Render a full Chrome `trace_event` JSON document:
/// `{"displayTimeUnit":"ms","traceEvents":[…]}` with `process_name`
/// metadata rows labeling each layer's track group and `thread_name`
/// rows labeling every track within it (server index, fleet interval,
/// region), so Perfetto shows named tracks instead of bare pids/tids.
/// Loadable directly in Perfetto / `chrome://tracing`.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut pids: Vec<u32> = Vec::new();
    let mut tracks: Vec<(u32, u32)> = Vec::new();
    for ev in events {
        if !pids.contains(&ev.pid) {
            pids.push(ev.pid);
        }
        if !tracks.contains(&(ev.pid, ev.tid)) {
            tracks.push((ev.pid, ev.tid));
        }
    }
    pids.sort_unstable();
    tracks.sort_unstable();

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for pid in pids {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            crate::json_escape(crate::pid_name(pid))
        );
    }
    for (pid, tid) in tracks {
        out.push(',');
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            crate::json_escape(&crate::tid_name(pid, tid))
        );
    }
    for ev in events {
        if !first {
            out.push(',');
        }
        first = false;
        write_event(&mut out, ev);
    }
    out.push_str("]}");
    out
}

/// Render events as line-delimited JSON, one event object per line
/// (trailing newline when non-empty). Same field order as the Chrome
/// export, minus the document wrapper and metadata.
#[must_use]
pub fn trace_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        write_event(&mut out, ev);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceEvent, PID_FLEET, PID_SERVE};

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::span("execute", "batch", 100, 50)
                .pid(PID_SERVE)
                .tid(2)
                .arg_u64("size", 4),
            TraceEvent::instant("probe", "decision", 0)
                .pid(PID_FLEET)
                .arg_str("kind", "miss"),
        ]
    }

    #[test]
    fn chrome_document_shape() {
        let doc = chrome_trace_json(&sample_events());
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(doc.ends_with("]}"));
        // Metadata first, one per pid, in pid order.
        assert!(doc.contains(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"serve\"}}"
        ));
        assert!(doc.contains("\"args\":{\"name\":\"fleet\"}"));
        // The complete event carries ts+dur; the instant carries a scope.
        assert!(doc.contains(
            "{\"name\":\"execute\",\"cat\":\"batch\",\"ph\":\"X\",\"ts\":100,\
             \"dur\":50,\"pid\":1,\"tid\":2,\"args\":{\"size\":4}}"
        ));
        assert!(doc.contains(
            "{\"name\":\"probe\",\"cat\":\"decision\",\"ph\":\"i\",\"ts\":0,\
             \"s\":\"t\",\"pid\":2,\"tid\":0,\"args\":{\"kind\":\"miss\"}}"
        ));
    }

    #[test]
    fn chrome_metadata_names_tracks() {
        let doc = chrome_trace_json(&sample_events());
        // One thread_name row per distinct (pid, tid), in sorted order,
        // labeled via `tid_name`.
        assert!(doc.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\
             \"args\":{\"name\":\"server 2\"}}"
        ));
        assert!(doc.contains(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"baseline\"}}"
        ));
        // Metadata precedes the first real event.
        let meta = doc.find("\"thread_name\"").unwrap();
        let first_ev = doc.find("\"execute\"").unwrap();
        assert!(meta < first_ev);
    }

    #[test]
    fn event_json_matches_jsonl_lines() {
        let evs = sample_events();
        let jsonl = trace_jsonl(&evs);
        for (line, ev) in jsonl.lines().zip(&evs) {
            assert_eq!(line, event_json(ev));
        }
    }

    #[test]
    fn chrome_export_is_deterministic() {
        let evs = sample_events();
        assert_eq!(chrome_trace_json(&evs), chrome_trace_json(&evs));
    }

    #[test]
    fn jsonl_is_one_event_per_line() {
        let txt = trace_jsonl(&sample_events());
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"name\":\"execute\""));
        assert!(lines[1].starts_with("{\"name\":\"probe\""));
        assert!(txt.ends_with('\n'));
        assert_eq!(trace_jsonl(&[]), "");
    }

    #[test]
    fn empty_trace_still_renders_a_document() {
        assert_eq!(
            chrome_trace_json(&[]),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
