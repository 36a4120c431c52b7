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

struct Streamed {
    dir: std::path::PathBuf,
    shards: String,
    report: String,
}

/// Stream one registered spec at quick scale into a fresh temp dir.
fn stream(name: &str) -> Streamed {
    stream_as(name, name)
}

/// Stream one spec (a registered name or spec JSON) at quick scale into
/// a fresh temp dir named `label`; returns the shard dir and the report
/// JSON path.
fn stream_as(label: &str, input: &str) -> Streamed {
    let dir = std::env::temp_dir()
        .join("parva-trace-analytics-it")
        .join(label);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let shards = dir.join("shards").to_string_lossy().into_owned();
    let obs = ObsPaths {
        stream: Some(shards.clone()),
        ..ObsPaths::default()
    };
    let out = run_spec_with(input, true, true, &obs)
        .unwrap_or_else(|e| panic!("{label} streamed run failed: {e}"));
    let report = dir.join("report.json").to_string_lossy().into_owned();
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
    let bad = s.dir.join("doctored.json");
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
    let dir = std::env::temp_dir()
        .join("parva-trace-analytics-it")
        .join("tenant_serve_probe");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
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
