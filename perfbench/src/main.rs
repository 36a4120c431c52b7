//! `perfbench`: the benchmark of record.
//!
//! ```text
//! perfbench --workload <table4|federation|parvad|traced|plan> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread, one op in flight: the workload is set up
//! [`SETUP_REPS`] times, then runs a fixed number of rounds sized by
//! `--seconds`, round *k* on inputs seeded by `mix(seed, k)`, and cycles
//! through them again until `--seconds` have passed, every op's output
//! checked. Runs of two calibration kernels between passes let every time
//! be read at the reference host's speed (see `calib`). With `--trace 0`
//! it prints the end-to-end metrics; with
//! `--trace 1` it runs each round untraced and then recording spans,
//! prints the per-layer metrics, and writes the spans to
//! `traces/<workload>-<seed>.json` in this package (Chrome `trace_event`,
//! read by `parvactl trace summary`). The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `perfbench/README.md` defines every metric and records which layer
//! should move which metric on which workload.

mod calib;
mod clock;
mod layers;
mod record;
mod stats;
mod workloads;

use record::{Ctx, PassOut};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{
    federation::Federation, parvad::Parvad, plan::Plan, table4::Table4, traced::Traced, Workload,
};

#[global_allocator]
static ALLOC: clock::CountingAlloc = clock::CountingAlloc;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// The seed every set-up warms up on, whatever `--seed` is: set-up builds
/// the same state on the same inputs for every seed, so `setup_s` follows
/// the program rather than a sample path.
const SETUP_SEED: u64 = 0;
/// Bytes per MB.
const MB: f64 = 1024.0 * 1024.0;
/// Fewest rounds of work a run makes.
const MIN_ROUNDS: usize = 3;

/// Every end-to-end metric and its unit, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 10] = [
    ("wall_s", "s"),
    ("sim_req_per_cpu_s", "req/CPU-s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("slo_attainment", "ratio"),
    ("gpus", "GPUs"),
    ("checkpoint_save_ms", "ms"),
    ("checkpoint_resume_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let number = |flag: &str| {
        value(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")?.clone(),
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1) as f64,
        trace: number("--trace")? != 0,
    })
}

fn main() {
    let origin = Instant::now();
    let image_mb = clock::status_mb("VmRSS");
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <table4|federation|parvad|traced|plan> \
             --seed <n> --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let result = match args.workload.as_str() {
        "table4" => run::<Table4>(&args, origin, image_mb),
        "federation" => run::<Federation>(&args, origin, image_mb),
        "parvad" => run::<Parvad>(&args, origin, image_mb),
        "traced" => run::<Traced>(&args, origin, image_mb),
        "plan" => run::<Plan>(&args, origin, image_mb),
        other => Err(format!("unknown workload {other:?}")),
    };
    match result {
        Ok(last_line) => println!("{last_line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Ops that errored, panicked or failed their check, over ops attempted.
fn op_fail_frac<'a>(passes: impl IntoIterator<Item = &'a PassOut>) -> f64 {
    let (attempted, failed) = passes
        .into_iter()
        .fold((0, 0), |(a, f), p| (a + p.attempted, f + p.failed));
    failed as f64 / attempted.max(1) as f64
}

/// The median over `passes` of a per-pass figure.
fn median_over(passes: &[PassOut], figure: impl Fn(&PassOut) -> f64) -> f64 {
    stats::median(&passes.iter().map(figure).collect::<Vec<_>>())
}

/// Set up, run the passes, print the report; returns the JSON result line.
/// `image_mb` is the resident set at start-up, before any work.
fn run<W: Workload>(args: &Args, origin: Instant, image_mb: f64) -> Result<String, String> {
    let round_seed = |round: u64| stats::mix(args.seed, round);
    let mut ctx = Ctx::new(origin);
    // Every set-up and pass sits between two runs of the calibration
    // kernels, which give it its scales: its times are read at the
    // reference host's speed, whatever other tenants do to this one.
    let mut calibration = calib::Calibration::start();
    let (mut setup_s, mut book_ms) = (Vec::new(), Vec::new());
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        ctx.begin_pass(false);
        let t0 = Instant::now();
        let w = W::setup(SETUP_SEED, &mut ctx)?;
        let secs = t0.elapsed().as_secs_f64();
        let out = ctx.end_pass();
        let scales = calibration.close();
        if out.failed > 0 {
            return Err("the warm-up op failed".into());
        }
        setup_s.push(secs * scales.host);
        book_ms.extend(out.book_ms.iter().map(|ms| ms * scales.host));
        workload = Some(w);
    }
    let setup_heap_mb = clock::live_heap() as f64 / MB;
    let mut w = workload.expect("SETUP_REPS > 0");
    let mut pass = |tracing: bool, round: u64| {
        ctx.begin_pass(tracing);
        w.pass(&mut ctx, round_seed(round));
        let mut out = ctx.end_pass();
        out.scales = calibration.close();
        out
    };

    // Rounds 0..rounds are the run's work: a count fixed by `--seconds`
    // and the nominal pass time, so the digest and the modelled figures
    // repeat exactly. They take about half of `--seconds` on the reference
    // host; passes then cycle through the same rounds until `--seconds`
    // have passed, so a slow stretch of the host costs passes, not run
    // time, and every repeat must reproduce its round's outputs. With
    // tracing, each round runs untraced then traced on the same inputs,
    // so warm-up and host drift weigh on both sides of the trace-overhead
    // ratio alike, and the two must produce the same bytes.
    let rounds = ((args.seconds / (2.0 * W::PASS_S)).round() as usize).max(MIN_ROUNDS);
    let start = Instant::now();
    let (mut untraced, mut traced): (Vec<PassOut>, Vec<PassOut>) = (Vec::new(), Vec::new());
    let mut repeated = true;
    while untraced.len() <= rounds || start.elapsed().as_secs_f64() < args.seconds {
        let k = untraced.len();
        let u = pass(false, (k % rounds) as u64);
        if k >= rounds {
            repeated &= u.digest == untraced[k % rounds].digest;
        }
        if args.trace {
            let t = pass(true, (k % rounds) as u64);
            repeated &= t.digest == u.digest;
            traced.push(t);
        }
        untraced.push(u);
    }
    let hwm_mb = clock::status_mb("VmHWM");

    let checks = || untraced.iter().chain(&traced);
    let attempted: u64 = checks().map(|p| p.attempted).sum();
    let failed: u64 = checks().map(|p| p.failed).sum();
    let work = &untraced[..rounds];
    let digest = parvagpu::daemon::checkpoint::fnv1a64(
        &work
            .iter()
            .flat_map(|p| p.digest.to_le_bytes())
            .collect::<Vec<_>>(),
    );

    // Each timing is read per pass (per set-up) at the reference host's
    // speed, JSON loads at their own scales and the rest at the host
    // scale, and the median over passes reported. The modelled figures use
    // the rounds of work.
    let sum = |f: fn(&PassOut) -> f64| work.iter().map(f).sum::<f64>();
    let ops: Vec<Vec<f64>> = untraced
        .iter()
        .map(|p| p.op_ms.iter().map(|ms| ms * p.scales.host).collect())
        .collect();
    let tail = stats::chunked_tail(ops.iter().map(Vec::as_slice));
    let e2e = [
        median_over(&untraced, PassOut::wall_s),
        1.0 / median_over(&untraced, |p| p.cpu_s() / p.offered),
        stats::median(&ops.iter().map(|o| stats::median(o)).collect::<Vec<_>>()),
        tail.value,
        stats::median(&setup_s),
        // The resident set a typical pass needs: the program image, the
        // heap the set-up left live, and how far the heap grew during the
        // pass at its highest, median over passes. VmHWM would instead
        // follow the one deepest backlog any round reaches, plus whatever
        // the allocator kept from earlier passes (printed below).
        image_mb
            + setup_heap_mb
            + stats::median(
                &untraced
                    .iter()
                    .map(|p| p.peak_heap as f64)
                    .collect::<Vec<_>>(),
            ) / MB,
        sum(|p| p.within_slo) / sum(|p| p.offered),
        sum(|p| p.gpus) / work.len() as f64,
        median_over(&untraced, |p| stats::mean(&p.save_ms) * p.scales.host),
        median_over(&untraced, PassOut::resume_ms),
    ];

    let mut text = format!(
        "perfbench {} seed {}: {} untraced + {} traced passes, {} setups\n",
        args.workload,
        args.seed,
        untraced.len(),
        traced.len(),
        SETUP_REPS
    );
    for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
        let _ = writeln!(text, "  {name:<22} {v:>14.6} {unit}");
    }
    let _ = writeln!(
        text,
        "  op_ms_tail is p{} of {} ops ({} beyond), the median over {} runs of passes; \
         other timings are the median over {} passes; op_fail_frac {} ({failed} of {attempted})",
        tail.percentile,
        tail.count,
        tail.beyond,
        tail.chunks,
        untraced.len(),
        op_fail_frac(checks())
    );
    let kernels = calibration.last();
    let _ = writeln!(
        text,
        "  timings are read at the reference host's speed: the median pass ran at {:.3}x it, \
         {:.3}x on the JSON kernel (the kernels last took {:.3} ms and {:.3} ms against {} ms \
         and {} ms)",
        median_over(&untraced, |p| p.scales.host),
        median_over(&untraced, |p| p.scales.json),
        kernels.event_loop,
        kernels.json,
        calib::REFERENCE_MS,
        calib::JSON_REFERENCE_MS
    );
    let _ = writeln!(
        text,
        "  digest {digest:016x} over {rounds} rounds ({})",
        if repeated {
            "every repeated and traced pass reproduced its round's outputs"
        } else {
            "A REPEATED OR TRACED PASS CHANGED ITS ROUND'S OUTPUTS"
        }
    );
    let _ = writeln!(
        text,
        "  peak_rss_mb is the {image_mb:.3} MB program image, the {setup_heap_mb:.3} MB heap \
         left by set-up and the median pass's heap growth; VmHWM at exit {hwm_mb:.3} MB"
    );
    let signed_zeros = untraced[0].signed_zero_outputs;
    if signed_zeros > 0 {
        let _ = writeln!(
            text,
            "  {signed_zeros} output(s) per pass carry -0, which the vendored JSON parser reads \
             back as 0 (tolerated by the round-trip check)"
        );
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        book_ms.extend(checks().flat_map(|p| p.book_ms.iter().map(move |ms| ms * p.scales.host)));
        let book_ms = stats::median(&book_ms);
        let timings: Vec<_> = traced.iter().map(|p| layers::figures(p, book_ms)).collect();
        let counts = &timings[..rounds];
        let overhead =
            median_over(&traced, PassOut::wall_s) / median_over(&untraced, PassOut::wall_s);
        let mut m = Vec::new();
        for (name, unit) in layers::PER_LAYER {
            let across = |passes: &[layers::Figures]| -> Vec<f64> {
                passes.iter().map(|f| f[name]).collect()
            };
            // Times vary from pass to pass with the host; counts and
            // sizes are fixed for each round, so they are read over the
            // rounds of work and repeat exactly at a fixed seed.
            let v = match name {
                "bench.trace_overhead" => overhead,
                "des.peak_queue_depth" => across(counts).into_iter().fold(0.0, f64::max),
                _ if unit == "ms" || name.starts_with("bench.") => stats::median(&across(&timings)),
                _ => stats::mean(&across(counts)),
            };
            let _ = writeln!(text, "  {name:<26} {v:>14.6} {unit}");
            m.push((name, v, unit));
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
        let path = format!("{dir}/{}-{}.json", args.workload, args.seed);
        let trace = parvagpu::obs::chrome_trace_json(&layers::trace_events(&traced[..rounds]));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace))
            .map_err(|e| format!("writing {path}: {e}"))?;
        let _ = writeln!(text, "  spans written to {path}");
        m
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((n, u), v)| (*n, v, *u))
            .collect()
    };
    let _ = writeln!(text, "provenance {}", provenance(args.seed));
    print!("{text}");

    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = failed == 0 && repeated && finite;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    Ok(line)
}

/// Where the numbers came from: commit, toolchain, host and seed.
fn provenance(seed: u64) -> String {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let fan_out = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // Only the repository's own history names the commit: a bare source
    // tree must not report whatever repository happens to enclose it.
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let commit = if std::path::Path::new(repo).join(".git").exists() {
        command("git", &["-C", repo, "rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let esc = parvagpu::obs::json_escape;
    format!(
        "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": \"{}\", \"cpu\": \"{}\", \
         \"seed\": {seed}, \"available_parallelism\": {fan_out}}}",
        esc(&commit),
        esc(&command("rustc", &["--version"])),
        esc(&command("nproc", &[])),
        esc(&cpu),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn load(path: &str) -> Value {
        let text = std::fs::read_to_string(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")))
            .unwrap_or_else(|e| panic!("{path}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        serde::find_field(v.as_map().expect("an object"), key).unwrap_or_else(|| panic!("{key}"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn names_and_units(v: &Value) -> Vec<(&str, &str)> {
        v.as_seq()
            .expect("a list")
            .iter()
            .map(|m| (text(field(m, "name")), text(field(m, "unit"))))
            .collect()
    }

    const WORKLOADS: [&str; 5] = ["table4", "federation", "parvad", "traced", "plan"];

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_and_workloads_printed() {
        let doc = load("../BENCHMARK.json");
        assert_eq!(names_and_units(field(&doc, "end_to_end")), END_TO_END);
        assert_eq!(names_and_units(field(&doc, "per_layer")), layers::PER_LAYER);
        let workloads: Vec<&str> = field(&doc, "workloads")
            .as_seq()
            .expect("a list")
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn layer_table_names_only_known_metrics_and_workloads() {
        let doc = load("layers.json");
        let strings = |l: &Value, key: &str| -> Vec<String> {
            field(l, key)
                .as_seq()
                .expect("a list")
                .iter()
                .map(|v| text(v).to_string())
                .collect()
        };
        let mut covered = Vec::new();
        for l in field(&doc, "layers").as_seq().expect("a list") {
            for m in strings(l, "metrics") {
                assert!(layers::PER_LAYER.iter().any(|(k, _)| *k == m), "{m}");
                covered.push(m);
            }
            for m in strings(l, "should_move") {
                assert!(END_TO_END.iter().any(|(k, _)| *k == m), "{m}");
            }
            for key in ["works_in", "predicts_no_change_on"] {
                for w in strings(l, key) {
                    assert!(WORKLOADS.contains(&w.as_str()), "{w}");
                }
            }
        }
        for (k, _) in layers::PER_LAYER {
            assert!(covered.iter().any(|c| c == k), "{k} belongs to no layer");
        }
    }
}
