//! The observability pipeline audits itself, end to end: for **every**
//! registered built-in spec, stream a run to shards, then let
//! `parvactl trace audit` independently recompute the report's
//! accounting from the raw trace/metrics stream — with **exact** float
//! equality. Plus: audits catch doctored reports, `summary` and `diff`
//! render, and `tail` replays a finalized stream losslessly.
//!
//! CI runs the same audit through the binary for each spec and each
//! `examples/specs` file (see the observability job), so this suite is
//! the in-tree mirror of that gate.

use parvagpu::cli::{
    run_spec_with, run_trace_audit, run_trace_diff, run_trace_summary, run_trace_tail, ObsPaths,
};
use parvagpu::scenarios::builtin_specs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory of this process's own, removed on drop: tests run in
/// parallel and several stream the same spec, so no two calls may share a
/// directory.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir()
            .join("parva-trace-analytics-it")
            .join(format!(
                "{label}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Streamed {
    dir: ScratchDir,
    shards: String,
    report: String,
}

/// Stream one registered spec at quick scale into a fresh temp dir.
fn stream(name: &str) -> Streamed {
    stream_as(name, name)
}

/// Stream one spec (a registered name or spec JSON) at quick scale into
/// a fresh temp dir named after `label`; returns the shard dir and the
/// report JSON path.
fn stream_as(label: &str, input: &str) -> Streamed {
    let dir = ScratchDir::new(label);
    let shards = dir.0.join("shards").to_string_lossy().into_owned();
    let obs = ObsPaths {
        stream: Some(shards.clone()),
        ..ObsPaths::default()
    };
    let out = run_spec_with(input, true, true, &obs)
        .unwrap_or_else(|e| panic!("{label} streamed run failed: {e}"));
    let report = dir.0.join("report.json").to_string_lossy().into_owned();
    std::fs::write(&report, &out.stdout).unwrap();
    Streamed {
        dir,
        shards,
        report,
    }
}

/// `trace audit` passes — exactly, no tolerance — for every registered
/// spec across all three engines, then for every on-disk example spec,
/// as CI's audit step does: `tenant_fleet.json` is the only tenanted
/// fleet spec, so it is where fleet billing rows, `tenant_name`
/// included, get audited.
#[test]
fn audit_matches_report_for_every_registered_spec() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/specs");
    let examples = std::fs::read_dir(dir).unwrap().map(|entry| {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_string_lossy();
        (
            format!("spec-{stem}"),
            std::fs::read_to_string(&path).unwrap(),
        )
    });
    let builtins = builtin_specs()
        .into_iter()
        .map(|s| (s.name.clone(), s.name));
    for (label, input) in builtins.chain(examples) {
        let s = stream_as(&label, &input);
        let msg = run_trace_audit(&s.shards, &s.report, None, None)
            .unwrap_or_else(|e| panic!("audit of '{label}' diverged:\n{e}"));
        assert!(msg.contains("all match"), "{label}: {msg}");
        assert!(msg.contains("exact"), "{label}: {msg}");
    }
}

/// A report whose numbers were tampered with cannot pass the audit.
#[test]
fn audit_rejects_doctored_reports() {
    let s = stream("quickstart");
    let original = std::fs::read_to_string(&s.report).unwrap();
    // Inflate the first per-service "offered" counter by a digit.
    let doctored = original.replacen("\"offered\":", "\"offered\":7", 1);
    assert_ne!(doctored, original);
    let bad = s.dir.0.join("doctored.json");
    std::fs::write(&bad, doctored).unwrap();
    let err = run_trace_audit(&s.shards, bad.to_str().unwrap(), None, None)
        .expect_err("doctored report must fail the audit");
    assert!(err.contains("diverged"), "{err}");
    assert!(err.contains("offered"), "{err}");
}

/// A quota-capped serve run audits exactly — the per-service and
/// per-tenant rejection counters are recounted from the `rejected: true`
/// arrival instants — and tampering with a rejection counter is caught.
#[test]
fn audit_recounts_quota_rejections_and_catches_tampering() {
    let spec = r#"{
      "name": "tenant_serve_probe",
      "description": "one quota-capped tenant, one free",
      "seed": 11,
      "window": {"warmup_s": 0.5, "duration_s": 2.0, "drain_s": 0.5},
      "arrivals": null,
      "workload": {"Services": [
        {"model": "ResNet-50", "rate_rps": 800.0, "slo_ms": 200.0},
        {"model": "BERT-large", "rate_rps": 50.0, "slo_ms": 6000.0}
      ]},
      "mode": {"Serve": {"scheduler": "parvagpu", "ingress": []}},
      "tenants": [
        {"id": 1, "name": "capped", "quota_rps": 100.0, "services": [0]},
        {"id": 2, "name": "free", "services": [1]}
      ]
    }"#;
    let scratch = ScratchDir::new("tenant_serve_probe");
    let dir = &scratch.0;
    let shards = dir.join("shards").to_string_lossy().into_owned();
    let obs = ObsPaths {
        stream: Some(shards.clone()),
        ..ObsPaths::default()
    };
    let out = run_spec_with(spec, true, true, &obs).unwrap();
    // The quota actually bit: the capped tenant's rejections show up in
    // the report (so the tampering below flips a non-zero counter).
    assert!(out.stdout.contains("\"rejected\":"), "{}", out.stdout);
    assert!(out.stdout.contains("\"tenants\":"), "{}", out.stdout);
    let report = dir.join("report.json").to_string_lossy().into_owned();
    std::fs::write(&report, &out.stdout).unwrap();
    let msg = run_trace_audit(&shards, &report, None, None).unwrap();
    assert!(msg.contains("all match"), "{msg}");
    assert!(msg.contains("exact"), "{msg}");
    // Inflate the first rejection counter by a digit: the audit's
    // independent recount from the arrival instants must disagree.
    let doctored = out.stdout.replacen("\"rejected\":", "\"rejected\":9", 1);
    assert_ne!(doctored, out.stdout);
    let bad = dir.join("doctored.json");
    std::fs::write(&bad, doctored).unwrap();
    let err = run_trace_audit(&shards, bad.to_str().unwrap(), None, None)
        .expect_err("doctored rejection counter must fail the audit");
    assert!(err.contains("diverged"), "{err}");
    assert!(err.contains("rejected"), "{err}");
}

/// An explicit tolerance forgives small float drift but not counter
/// tampering.
#[test]
fn tolerance_relaxes_floats_only() {
    let s = stream("single_node_mps");
    // Huge tolerance: still passes (it's already exact).
    let msg = run_trace_audit(&s.shards, &s.report, None, Some(0.5)).unwrap();
    assert!(msg.contains("tolerance 0.5"), "{msg}");
}

/// `summary` renders phase breakdowns and slowest requests for a serve
/// trace, and `diff` of two different specs reports population deltas.
#[test]
fn summary_and_diff_render() {
    let a = stream("quickstart");
    let b = stream("llm");
    let summary = run_trace_summary(&a.shards, 5).unwrap();
    assert!(summary.contains("request"), "{summary}");
    assert!(summary.contains("recomputed SLO attainment"), "{summary}");
    let diff = run_trace_diff(&a.shards, &b.shards).unwrap();
    assert!(diff.contains("request"), "{diff}");
}

/// Tailing a finalized shard directory replays exactly the lines the
/// stream wrote, both lanes.
#[test]
fn tail_replays_a_finalized_stream_losslessly() {
    let s = stream("fleet_chaos");
    for lane in ["trace", "metrics"] {
        let mut lines = Vec::new();
        run_trace_tail(&s.shards, lane, 1, None, &mut |l| lines.push(l.to_string())).unwrap();
        let concat =
            parvagpu::obs::read_concat_shards(std::path::Path::new(&s.shards), lane).unwrap();
        assert_eq!(
            lines,
            concat.lines().map(str::to_string).collect::<Vec<_>>(),
            "{lane} lane replay drift"
        );
    }
}

/// The tree route the analyzer's reader must match: each line, or the
/// document, parsed whole into a `Value` tree and each event picked out of
/// it field by field.
mod tree_route {
    use parvagpu::obs::analyze::{value_u64, ParsedEvent};
    use serde::Value;

    fn parse_one_event(v: &Value) -> Result<Option<ParsedEvent>, String> {
        let map = v
            .as_map()
            .ok_or_else(|| format!("trace event is not an object: {v:?}"))?;
        let field = |key: &str| serde::find_field(map, key);
        let ph = match field("ph") {
            Some(Value::Str(s)) => s.chars().next().unwrap_or('?'),
            _ => return Err("trace event without a \"ph\" phase".into()),
        };
        if ph == 'M' {
            return Ok(None);
        }
        let name = match field("name") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("trace event without a \"name\"".into()),
        };
        let cat = match field("cat") {
            Some(Value::Str(s)) => s.clone(),
            _ => String::new(),
        };
        let ts_us = field("ts")
            .and_then(value_u64)
            .ok_or_else(|| format!("event \"{name}\" without an integer \"ts\""))?;
        let dur_us = field("dur").and_then(value_u64).unwrap_or(0);
        let pid = field("pid").and_then(value_u64).unwrap_or(0) as u32;
        let tid = field("tid").and_then(value_u64).unwrap_or(0) as u32;
        let args = match field("args") {
            Some(Value::Map(m)) => m.clone(),
            _ => Vec::new(),
        };
        Ok(Some(ParsedEvent {
            name,
            cat,
            ph,
            ts_us,
            dur_us,
            pid,
            tid,
            args,
        }))
    }

    pub fn parse_trace(text: &str) -> Result<Vec<ParsedEvent>, String> {
        let trimmed = text.trim_start();
        let mut out = Vec::new();
        if trimmed.starts_with("{\"displayTimeUnit\"") || trimmed.starts_with("{\"traceEvents\"") {
            let doc: Value =
                serde_json::from_str(trimmed).map_err(|e| format!("trace JSON: {e}"))?;
            let map = doc.as_map().ok_or("trace document is not an object")?;
            let events = serde::find_field(map, "traceEvents")
                .and_then(Value::as_seq)
                .ok_or("trace document without a \"traceEvents\" array")?;
            for ev in events {
                out.extend(parse_one_event(ev)?);
            }
        } else {
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let v: Value =
                    serde_json::from_str(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
                out.extend(parse_one_event(&v)?);
            }
        }
        Ok(out)
    }
}

/// `parse_trace` reads every registered spec's quick JSONL and Chrome
/// traces into exactly the events the tree route rebuilds, and reads
/// broken, reordered and duplicated variants of them with the same events
/// or the same error.
#[test]
fn parse_trace_matches_the_tree_route_on_every_registered_spec() {
    use parvagpu::obs::analyze::parse_trace;
    for spec in builtin_specs() {
        let (_, rec) = spec.quick().run_observed().unwrap();
        for text in [rec.trace_jsonl(), rec.chrome_trace()] {
            let events = parse_trace(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(!events.is_empty(), "{}", spec.name);
            assert_eq!(Ok(events), tree_route::parse_trace(&text), "{}", spec.name);
        }
    }
    let (_, rec) = parvagpu::scenarios::spec_by_name("quickstart")
        .unwrap()
        .quick()
        .run_observed()
        .unwrap();
    let (jsonl, chrome) = (rec.trace_jsonl(), rec.chrome_trace());
    let edits: [(&str, &str); 12] = [
        ("\"ph\":\"X\"", "\"ph\":7"),
        ("\"ph\":\"X\"", "\"ph\":\"X\",\"ph\":\"M\""),
        ("\"ph\":\"i\"", "\"ph\":3,\"ph\":\"i\""),
        ("\"ph\":\"X\"", "\"ph\":\"\""),
        ("\"ts\":", "\"ts\":-"),
        ("\"ts\":", "\"ts\":1.5,\"ts\":"),
        ("\"name\":", "\"nome\":"),
        ("\"name\":", "\"name\":\"first\",\"name\":"),
        ("\"args\":{", "\"args\":7,\"args\":{"),
        ("\"pid\":", "\"pid\":\"x\",\"pid\":"),
        ("\"cat\":", "\"zz\":[{}],\"cat\":"),
        (",\"tid\":", ",}"),
    ];
    let mut variants: Vec<String> = edits
        .iter()
        .flat_map(|(from, to)| [jsonl.replacen(from, to, 1), chrome.replacen(from, to, 1)])
        .collect();
    variants.push(jsonl[..jsonl.len() - 9].to_string());
    variants.push(format!("{jsonl}[1]\n"));
    variants.push(chrome.replacen("\"traceEvents\":[", "\"traceEvents\":{", 1));
    variants.push(chrome.replacen("\"traceEvents\":", "\"traceEvents\":0,\"traceEvents\":", 1));
    variants.push(chrome.replacen("\"traceEvents\"", "\"otherEvents\"", 1));
    variants.push(chrome.replacen("]}", "],\"traceEvents\":7}", 1));
    for text in &variants {
        assert_eq!(
            parse_trace(text),
            tree_route::parse_trace(text),
            "{}",
            &text[..text.len().min(200)]
        );
    }
}
