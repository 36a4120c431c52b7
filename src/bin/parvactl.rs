//! `parvactl` — command-line front-end to the ParvaGPU scheduler.
//!
//! ```text
//! parvactl plan <services.json> [--scheduler NAME]
//! parvactl simulate <services.json> [--scheduler NAME] [--seconds N] [--seed N]
//! parvactl compare <services.json>
//! parvactl cost <services.json> [--scheduler NAME]
//! parvactl feasibility <model-name>
//! parvactl scenarios
//! parvactl fleet [services.json] [--seed N] [--intervals N] [--nodes N] [--json] [--analytic-recovery]
//! parvactl region [services.json] [--seed N] [--intervals N] [--json]
//! parvactl run <name|spec.json> [--json] [--quick]
//!              [--trace out.json] [--metrics out.jsonl|out.csv] [--profile out.json]
//!              [--stream DIR]
//! parvactl run --list [--names] [--json]
//! parvactl daemon [services.json] [--resume ckpt.json] [--seed N] [--epoch-ms N]
//!                 [--decide-every N] [--listen ADDR] [--epochs N] [--out DIR]
//!                 [--checkpoint FILE --checkpoint-at N [--halt]] [--stream DIR]
//!                 [--throttle-ms N]
//! parvactl submit <pod.json> [--addr HOST:PORT]
//! parvactl status [--addr HOST:PORT] [--json]
//! parvactl scale <service-id> <multiplier> [--addr HOST:PORT]
//! parvactl drain [--addr HOST:PORT]
//! parvactl trace audit <trace.json|shard-dir> <report.json> [--metrics FILE] [--tolerance X]
//! parvactl trace summary <trace.json|shard-dir> [--top K]
//! parvactl trace diff <a> <b>
//! parvactl trace tail <shard-dir> [--lane trace|metrics] [--poll-ms N] [--max-polls N]
//! ```
//!
//! `run` executes a declarative scenario spec: a registered name (see
//! `--list`) or a JSON file describing the whole experiment — service
//! mix, GPU slice, fleet pools, regions, drills, windows, seeds. One
//! schema covers everything from a single-GPU serving run to a
//! multi-region chaos federation; see README "Running scenarios".
//!
//! Observability flags turn the run into an *observed* one (same report,
//! property-tested behavior-neutral): `--trace` writes a Chrome/Perfetto
//! `trace_event` JSON timeline, `--metrics` a gauge time series (CSV if
//! the path ends `.csv`, else JSONL), `--profile` the orchestrator
//! self-profile (host clocks; the one non-deterministic artifact). With
//! `--json`, the report JSON is stdout-only — headers and artifact notes
//! go to stderr — so pipelines stay machine-pure.
//!
//! `--stream DIR` streams instead of buffering: spans and gauge rows are
//! retired to rotating `trace-*.jsonl` / `metrics-*.jsonl` shards in
//! `DIR` as they land (live-tailable via `parvactl trace tail`), with
//! rotation/retention policy taken from the spec's
//! `observability.streaming` block. With retention off, the concatenated
//! shards are byte-identical to the batch export of the same spec.
//!
//! `trace` is the offline analytics suite over those artifacts:
//! `audit` independently recomputes a report's SLO attainment, latency
//! quantiles and recovery rows from the raw stream and exits nonzero on
//! any divergence; `summary` prints per-phase span breakdowns and the
//! top-k slowest requests; `diff` compares two runs; `tail` follows a
//! live shard directory.
//!
//! `fleet` and `region` report DES-*measured* recovery by default: weight
//! copies and MIG re-flashes ride the serving simulator's event queue, so
//! disruption dips and recovery latencies are measured against live
//! traffic. `--analytic-recovery` reverts `fleet` to the closed-form
//! estimates.
//!
//! `daemon` runs the `parvad` control plane: the serving DES streamed in
//! epochs with a closed-loop observed-demand autoscaler, suspendable to a
//! checksummed checkpoint (`--checkpoint/--checkpoint-at`, `--halt` to
//! simulate the kill) and resumable bit-identically (`--resume`). With
//! `--listen` it serves an HTTP/JSON control socket that `submit`,
//! `status`, `scale` and `drain` talk to (default address
//! `127.0.0.1:7474`; with `--out` the bound address also lands in
//! `DIR/endpoint`).
//!
//! `services.json` is a JSON array of `{"model", "rate_rps", "slo_ms"}`
//! objects; see `parvagpu::cli` for the full format.

use parvagpu::cli;

fn usage() -> ! {
    eprintln!(
        "usage:\n  parvactl plan <services.json> [--scheduler NAME]\n  \
         parvactl simulate <services.json> [--scheduler NAME] [--seconds N] [--seed N]\n  \
         parvactl compare <services.json>\n  \
         parvactl cost <services.json> [--scheduler NAME]\n  \
         parvactl feasibility <model-name>\n  parvactl scenarios\n  \
         parvactl fleet [services.json] [--seed N] [--intervals N] [--nodes N] [--json] \
         [--analytic-recovery]\n  \
         parvactl region [services.json] [--seed N] [--intervals N] [--json]\n  \
         parvactl run <name|spec.json> [--json] [--quick] [--trace FILE] \
         [--metrics FILE] [--profile FILE] [--stream DIR]\n  \
         parvactl run --list [--names] [--json]\n  \
         parvactl daemon [services.json] [--resume CKPT] [--seed N] [--epoch-ms N] \
         [--decide-every N] [--listen ADDR] [--epochs N] [--out DIR] \
         [--checkpoint FILE --checkpoint-at N [--halt]] [--stream DIR] [--throttle-ms N]\n  \
         parvactl submit <pod.json> [--addr HOST:PORT]\n  \
         parvactl status [--addr HOST:PORT] [--json]\n  \
         parvactl scale <service-id> <multiplier> [--addr HOST:PORT]\n  \
         parvactl drain [--addr HOST:PORT]\n  \
         parvactl trace audit <trace.json|shard-dir> <report.json> [--metrics FILE] \
         [--tolerance X]\n  \
         parvactl trace summary <trace.json|shard-dir> [--top K]\n  \
         parvactl trace diff <a> <b>\n  \
         parvactl trace tail <shard-dir> [--lane trace|metrics] [--poll-ms N] \
         [--max-polls N]\n\n\
         schedulers: parvagpu (default), single, unoptimized, gslice, gpulet, igniter, \
         paris-elsa, mig-serving"
    );
    std::process::exit(2);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Flag `name`'s value parsed as `T` (`None` when the flag is absent). A
/// missing or malformed value is a usage error: it exits 2 naming the flag.
fn num<T>(args: &[String], name: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    cli::parse_flag(args, name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

fn daemon_addr(args: &[String]) -> String {
    flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7474".into())
}

fn read_json(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let scheduler = flag(&args, "--scheduler").unwrap_or_else(|| "parvagpu".into());

    let result = match command.as_str() {
        "plan" => {
            let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
                usage()
            };
            cli::run_plan(&read_json(path), &scheduler)
        }
        "simulate" => {
            let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
                usage()
            };
            let seconds = num(&args, "--seconds").unwrap_or(10.0);
            let seed = num(&args, "--seed").unwrap_or(42);
            cli::run_simulate(&read_json(path), &scheduler, seconds, seed)
        }
        "compare" => {
            let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
                usage()
            };
            cli::run_compare(&read_json(path))
        }
        "cost" => {
            let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
                usage()
            };
            cli::run_cost(&read_json(path), &scheduler)
        }
        "feasibility" => {
            let Some(model) = args.get(1) else { usage() };
            cli::run_feasibility(model)
        }
        "scenarios" => Ok(cli::run_scenarios()),
        "fleet" => {
            let json = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .map(|p| read_json(p));
            let seed = num(&args, "--seed").unwrap_or(42);
            let intervals = num(&args, "--intervals").unwrap_or(8);
            let nodes = num(&args, "--nodes").unwrap_or(2);
            cli::run_fleet(
                json.as_deref(),
                seed,
                intervals,
                nodes,
                args.iter().any(|a| a == "--json"),
                args.iter().any(|a| a == "--analytic-recovery"),
            )
        }
        "region" => {
            let json = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .map(|p| read_json(p));
            let seed = num(&args, "--seed").unwrap_or(42);
            let intervals = num(&args, "--intervals").unwrap_or(8);
            cli::run_region(
                json.as_deref(),
                seed,
                intervals,
                args.iter().any(|a| a == "--json"),
            )
        }
        "run" => {
            if args.iter().any(|a| a == "--list") {
                if args.iter().any(|a| a == "--json") {
                    cli::list_specs_json()
                } else {
                    Ok(cli::list_specs(args.iter().any(|a| a == "--names")))
                }
            } else {
                let Some(arg) = args.get(1).filter(|p| !p.starts_with("--")) else {
                    usage()
                };
                // A path on disk is read as spec JSON; anything else is
                // looked up in the registry by name.
                let input = if std::path::Path::new(arg).is_file() {
                    read_json(arg)
                } else {
                    arg.clone()
                };
                let obs = cli::ObsPaths {
                    trace: flag(&args, "--trace"),
                    metrics: flag(&args, "--metrics"),
                    profile: flag(&args, "--profile"),
                    stream: flag(&args, "--stream"),
                };
                cli::run_spec_with(
                    &input,
                    args.iter().any(|a| a == "--json"),
                    args.iter().any(|a| a == "--quick"),
                    &obs,
                )
                .map(|out| {
                    eprint!("{}", out.stderr);
                    out.stdout
                })
            }
        }
        "daemon" => {
            let services_json = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .map(|p| read_json(p));
            cli::run_daemon_cmd(&cli::DaemonCliOpts {
                services_json,
                resume: flag(&args, "--resume"),
                seed: num(&args, "--seed").unwrap_or(42),
                epoch_ms: num(&args, "--epoch-ms").unwrap_or(500),
                decide_every: num(&args, "--decide-every").unwrap_or(0),
                listen: flag(&args, "--listen"),
                epochs: num(&args, "--epochs"),
                out: flag(&args, "--out"),
                checkpoint: flag(&args, "--checkpoint"),
                checkpoint_at: num(&args, "--checkpoint-at"),
                halt_at_checkpoint: args.iter().any(|a| a == "--halt"),
                stream: flag(&args, "--stream"),
                throttle_ms: num(&args, "--throttle-ms").unwrap_or(0),
            })
        }
        "submit" => {
            let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
                usage()
            };
            cli::run_daemon_submit(&daemon_addr(&args), &read_json(path))
        }
        "status" => cli::run_daemon_status(&daemon_addr(&args), args.iter().any(|a| a == "--json")),
        "scale" => {
            let (Some(service), Some(multiplier)) = (
                args.get(1).and_then(|s| s.parse().ok()),
                args.get(2).and_then(|s| s.parse().ok()),
            ) else {
                usage()
            };
            cli::run_daemon_scale(&daemon_addr(&args), service, multiplier)
        }
        "drain" => cli::run_daemon_drain(&daemon_addr(&args)),
        "trace" => {
            let Some(sub) = args.get(1) else { usage() };
            match sub.as_str() {
                "audit" => {
                    let (Some(trace), Some(report)) = (args.get(2), args.get(3)) else {
                        usage()
                    };
                    let tolerance = num(&args, "--tolerance");
                    let metrics = flag(&args, "--metrics");
                    cli::run_trace_audit(trace, report, metrics.as_deref(), tolerance)
                }
                "summary" => {
                    let Some(trace) = args.get(2).filter(|p| !p.starts_with("--")) else {
                        usage()
                    };
                    let top = num(&args, "--top").unwrap_or(10);
                    cli::run_trace_summary(trace, top)
                }
                "diff" => {
                    let (Some(a), Some(b)) = (args.get(2), args.get(3)) else {
                        usage()
                    };
                    cli::run_trace_diff(a, b)
                }
                "tail" => {
                    let Some(dir) = args.get(2).filter(|p| !p.starts_with("--")) else {
                        usage()
                    };
                    let lane = flag(&args, "--lane").unwrap_or_else(|| "trace".into());
                    let poll_ms = num(&args, "--poll-ms").unwrap_or(200);
                    let max_polls = num(&args, "--max-polls");
                    // Stream lines as they land; the accumulated result
                    // is empty so the final `print!` adds nothing. Write
                    // errors (e.g. a closed `| head` pipe) end the tail
                    // quietly instead of panicking.
                    use std::io::Write as _;
                    let mut stdout = std::io::stdout();
                    cli::run_trace_tail(dir, &lane, poll_ms, max_polls, &mut |line| {
                        let _ = writeln!(stdout, "{line}");
                    })
                    .map(|()| String::new())
                }
                _ => usage(),
            }
        }
        _ => usage(),
    };

    match result {
        Ok(out) => {
            // Not `print!`: a downstream `| head` that closed the pipe
            // must end the program quietly, not panic it.
            use std::io::Write as _;
            let _ = std::io::stdout().write_all(out.as_bytes());
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
