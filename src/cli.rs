//! Library support for the `parvactl` command-line tool.
//!
//! All logic lives here (testable); `src/bin/parvactl.rs` is a thin shell.
//! The input format is a JSON array of service descriptions:
//!
//! ```json
//! [
//!   {"model": "ResNet-50",    "rate_rps": 829.0, "slo_ms": 205.0},
//!   {"model": "MobileNetV2",  "rate_rps": 677.0, "slo_ms": 167.0}
//! ]
//! ```

use crate::prelude::*;
use serde::Deserialize;

/// One service as described in the CLI's JSON input.
#[derive(Debug, Clone, Deserialize)]
pub struct ServiceInput {
    /// Model name (the paper's display names; punctuation-insensitive).
    pub model: String,
    /// Offered request rate, req/s.
    pub rate_rps: f64,
    /// SLO latency, ms.
    pub slo_ms: f64,
    /// Optional explicit id (defaults to the array position).
    #[serde(default)]
    pub id: Option<u32>,
}

/// Parse the CLI's JSON service list.
///
/// # Errors
/// Returns a human-readable message for malformed JSON, unknown models or
/// invalid rates/SLOs.
pub fn parse_services(json: &str) -> Result<Vec<ServiceSpec>, String> {
    let inputs: Vec<ServiceInput> =
        serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
    if inputs.is_empty() {
        return Err("service list is empty".into());
    }
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let model = Model::parse(&input.model)
                .ok_or_else(|| format!("unknown model '{}' (entry {i})", input.model))?;
            let spec = ServiceSpec::new(
                input.id.unwrap_or(i as u32),
                model,
                input.rate_rps,
                input.slo_ms,
            );
            if !spec.is_valid() {
                return Err(format!(
                    "entry {i}: rate and SLO must be positive finite numbers"
                ));
            }
            Ok(spec)
        })
        .collect()
}

/// The value that follows flag `name` in `args`, parsed as `T`; `Ok(None)`
/// when the flag is absent.
///
/// # Errors
/// Names the flag when it is the last argument (no value) or its value
/// does not parse as `T`.
pub fn parse_flag<T>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|e| format!("{name}: invalid value '{value}' ({e})"))
}

/// The one canonical scheduler table: normalized key → constructor.
/// [`make_scheduler`] and [`scheduler_name_is_known`] both read it, so
/// the accepted-name set and the constructable set cannot drift apart.
#[allow(clippy::type_complexity)]
const SCHEDULERS: [(&str, fn(&ProfileBook) -> Box<dyn Scheduler>); 12] = [
    ("parvagpu", |b| Box::new(ParvaGpu::new(b))),
    ("parva", |b| Box::new(ParvaGpu::new(b))),
    ("parvagpusingle", |b| {
        Box::new(crate::core::ParvaGpuSingle::new(b))
    }),
    ("single", |b| Box::new(crate::core::ParvaGpuSingle::new(b))),
    ("parvagpuunoptimized", |b| {
        Box::new(crate::core::ParvaGpuUnoptimized::new(b))
    }),
    ("unoptimized", |b| {
        Box::new(crate::core::ParvaGpuUnoptimized::new(b))
    }),
    ("gslice", |_| Box::new(crate::baselines::Gslice::new())),
    ("gpulet", |_| Box::new(Gpulet::new())),
    ("igniter", |_| Box::new(IGniter::new())),
    ("migserving", |b| Box::new(MigServing::new(b))),
    (
        "pariselsa",
        |_| Box::new(crate::baselines::ParisElsa::new()),
    ),
    ("paris", |_| Box::new(crate::baselines::ParisElsa::new())),
];

/// Normalize a user-supplied scheduler name to a table key.
fn scheduler_key(name: &str) -> String {
    name.to_lowercase().replace(['-', '_'], "")
}

/// Is `name` a scheduler [`make_scheduler`] would accept? Cheap (no
/// profile book needed) — what spec validation uses to vet names.
#[must_use]
pub fn scheduler_name_is_known(name: &str) -> bool {
    let key = scheduler_key(name);
    SCHEDULERS.iter().any(|(k, _)| *k == key)
}

/// Build a scheduler by CLI name.
///
/// # Errors
/// Lists the valid names on mismatch.
pub fn make_scheduler(name: &str, book: &ProfileBook) -> Result<Box<dyn Scheduler>, String> {
    let key = scheduler_key(name);
    SCHEDULERS
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, ctor)| ctor(book))
        .ok_or_else(|| {
            format!(
                "unknown scheduler '{name}' (expected one of: parvagpu, single, \
                 unoptimized, gslice, gpulet, igniter, paris-elsa, mig-serving)"
            )
        })
}

/// `parvactl plan`: schedule and render the deployment.
///
/// # Errors
/// Propagates parse and scheduling failures as display strings.
pub fn run_plan(json: &str, scheduler_name: &str) -> Result<String, String> {
    let specs = parse_services(json)?;
    let book = ProfileBook::builtin();
    let sched = make_scheduler(scheduler_name, &book)?;
    let deployment = sched.schedule(&specs).map_err(|e| e.to_string())?;
    let mut out = format!(
        "{}: {} GPU(s), external fragmentation {:.1}%\n",
        sched.name(),
        deployment.gpu_count(),
        external_fragmentation(&deployment) * 100.0
    );
    match &deployment {
        Deployment::Mig(d) => {
            for (i, gpu) in d.gpus().iter().enumerate() {
                out.push_str(&format!("GPU {i}: {gpu}\n"));
                for ps in d.segments_on(i) {
                    out.push_str(&format!("   {}\n", ps.segment));
                }
            }
        }
        Deployment::Mps(d) => {
            for (i, gpu) in d.gpus.iter().enumerate() {
                out.push_str(&format!("GPU {i}:\n"));
                for p in &gpu.partitions {
                    out.push_str(&format!(
                        "   svc#{} {} {:.0}% batch {} → {:.0} req/s @ {:.1} ms\n",
                        p.service_id,
                        p.model,
                        p.fraction * 100.0,
                        p.batch,
                        p.throughput_rps,
                        p.latency_ms
                    ));
                }
            }
        }
    }
    for s in &specs {
        out.push_str(&format!(
            "service #{}: capacity {:.0} req/s for offered {:.0} req/s\n",
            s.id,
            deployment.capacity_of(s.id),
            s.request_rate_rps
        ));
    }
    Ok(out)
}

/// `parvactl simulate`: schedule, serve, report quality metrics.
///
/// # Errors
/// Propagates parse and scheduling failures as display strings.
pub fn run_simulate(
    json: &str,
    scheduler_name: &str,
    seconds: f64,
    seed: u64,
) -> Result<String, String> {
    let specs = parse_services(json)?;
    let book = ProfileBook::builtin();
    let sched = make_scheduler(scheduler_name, &book)?;
    let deployment = sched.schedule(&specs).map_err(|e| e.to_string())?;
    let config = ServingConfig {
        duration_s: seconds.max(1.0),
        seed,
        ..ServingConfig::default()
    };
    let report = Simulation::new(&deployment, &specs).config(&config).run();
    let mut out = format!(
        "{}: {} GPU(s) | compliance {:.2}% | internal slack {:.1}% | fragmentation {:.1}%\n",
        sched.name(),
        deployment.gpu_count(),
        report.overall_compliance_rate() * 100.0,
        internal_slack(&report) * 100.0,
        external_fragmentation(&deployment) * 100.0
    );
    for (spec, svc) in specs.iter().zip(&report.services) {
        out.push_str(&format!(
            "service #{} {}: served {}/{} req, p99 {:.1} ms (SLO {:.0} ms), compliance {:.2}%\n",
            spec.id,
            spec.model,
            svc.completed,
            svc.offered,
            svc.latency.quantile_ms(0.99),
            spec.slo.latency_ms,
            svc.compliance_rate() * 100.0
        ));
    }
    Ok(out)
}

/// `parvactl compare`: all frameworks on one service set.
///
/// # Errors
/// Propagates parse failures as display strings.
pub fn run_compare(json: &str) -> Result<String, String> {
    let specs = parse_services(json)?;
    let book = ProfileBook::builtin();
    let mut out = format!(
        "{:<22} {:>6} {:>8} {:>12}\n",
        "framework", "GPUs", "frag %", "sched delay"
    );
    for name in [
        "gpulet",
        "igniter",
        "mig-serving",
        "unoptimized",
        "single",
        "parvagpu",
    ] {
        let sched = make_scheduler(name, &book)?;
        let start = std::time::Instant::now();
        match sched.schedule(&specs) {
            Ok(d) => {
                out.push_str(&format!(
                    "{:<22} {:>6} {:>8.1} {:>11.1?}\n",
                    sched.name(),
                    d.gpu_count(),
                    external_fragmentation(&d) * 100.0,
                    start.elapsed()
                ));
            }
            Err(e) => out.push_str(&format!("{:<22} cannot schedule: {e}\n", sched.name())),
        }
    }
    Ok(out)
}

/// `parvactl cost`: schedule, pack onto p4de nodes, price the fleet.
///
/// # Errors
/// Propagates parse and scheduling failures as display strings.
pub fn run_cost(json: &str, scheduler_name: &str) -> Result<String, String> {
    use crate::cluster::{pack, CostReport, NodeType, PricingPlan};
    let specs = parse_services(json)?;
    let book = ProfileBook::builtin();
    let sched = make_scheduler(scheduler_name, &book)?;
    let deployment = sched.schedule(&specs).map_err(|e| e.to_string())?;
    let plan = pack(&deployment, NodeType::P4DE_24XLARGE);
    let mut out = format!(
        "{}: {} GPU(s) → {} p4de.24xlarge node(s), {} idle GPU(s), {:.0}% GPU utilization\n",
        sched.name(),
        deployment.gpu_count(),
        plan.node_count(),
        plan.idle_gpus,
        plan.gpu_utilization() * 100.0
    );
    for pricing in [
        PricingPlan::OnDemand,
        PricingPlan::Reserved1Yr,
        PricingPlan::Reserved3Yr,
        PricingPlan::Spot,
    ] {
        let r = CostReport::from_plan(sched.name(), &plan, pricing);
        out.push_str(&format!(
            "  {:<12} ${:>9.2}/hour  ${:>11.0}/month\n",
            format!("{pricing:?}"),
            r.usd_per_hour,
            r.usd_per_month
        ));
    }
    Ok(out)
}

/// `parvactl feasibility`: the §V memory-feasibility matrix for a model on
/// every catalog GPU.
///
/// # Errors
/// Reports unknown model names.
pub fn run_feasibility(model_name: &str) -> Result<String, String> {
    use crate::mig::{GpuModel, InstanceProfile};
    use crate::perf::ComputeShare;
    let model = Model::parse(model_name).ok_or_else(|| format!("unknown model '{model_name}'"))?;
    let mut out = format!(
        "Memory feasibility of {} (batch 1, one process):\n",
        model.name()
    );
    for gpu in GpuModel::CATALOG {
        let smallest = InstanceProfile::ALL
            .iter()
            .copied()
            .find(|g| crate::perf::math::fits_memory_on(model, ComputeShare::Mig(*g), 1, 1, gpu));
        out.push_str(&format!(
            "  {:<12} smallest instance: {}\n",
            gpu.name,
            smallest.map_or("none".to_string(), |g| format!(
                "{} ({:.0} GiB)",
                g,
                gpu.instance_memory_gib(g)
            ))
        ));
    }
    Ok(out)
}

/// `parvactl fleet`: chaos-run a heterogeneous fleet (failures, spot
/// preemptions — warned and cold — scale-ups, load shifts) and render the
/// recovery report. Recovery is DES-simulated by default (weight copies
/// and MIG re-flashes riding the serving traffic, so dips and latencies
/// are measured); `analytic_recovery` falls back to the closed-form
/// blackout numbers only.
///
/// `json` optionally overrides the built-in demo service set; `json_out`
/// prints the full [`crate::fleet::FleetReport`] as JSON for scripting.
///
/// # Errors
/// Propagates parse, scheduling and fleet-exhaustion failures.
pub fn run_fleet(
    json: Option<&str>,
    seed: u64,
    intervals: usize,
    base_nodes: usize,
    json_out: bool,
    analytic_recovery: bool,
) -> Result<String, String> {
    use crate::fleet::{run_chaos, FleetConfig, FleetSpec};
    let specs = match json {
        Some(j) => parse_services(j)?,
        None => crate::fleet::demo_services(),
    };
    let book = ProfileBook::builtin();
    let config = FleetConfig {
        seed,
        intervals: intervals.max(1),
        des_recovery: !analytic_recovery,
        ..FleetConfig::default()
    };
    let report = run_chaos(
        &book,
        &specs,
        &FleetSpec::mixed_demo(base_nodes.max(1)),
        &config,
    )
    .map_err(|e| e.to_string())?;
    if json_out {
        serde_json::to_string(&report)
            .map(|s| s + "\n")
            .map_err(|e| e.to_string())
    } else {
        Ok(report.render())
    }
}

/// `parvactl region`: run the three-region federation through a scripted
/// region-evacuation + failback drill on top of the seeded chaos stream,
/// and render the federation report.
///
/// `json` optionally overrides the built-in global demo service set;
/// `json_out` prints the full [`crate::region::FederationReport`] as JSON
/// for scripting.
///
/// # Errors
/// Propagates parse, bootstrap and failback failures.
pub fn run_region(
    json: Option<&str>,
    seed: u64,
    intervals: usize,
    json_out: bool,
) -> Result<String, String> {
    use crate::region::{run_federation, EvacuationDrill, FederationConfig, FederationSpec};
    let services = match json {
        Some(j) => parse_services(j)?,
        None => crate::region::demo_services(),
    };
    let book = ProfileBook::builtin();
    let intervals = intervals.max(1);
    // The scripted drill needs one interval for the evacuation and a
    // later one for the failback; shorter runs are pure seeded chaos.
    let drill = (intervals >= 2).then(|| EvacuationDrill {
        region: 0,
        evacuate_at: intervals.div_ceil(3),
        failback_at: (2 * intervals).div_ceil(3).max(intervals.div_ceil(3) + 1),
    });
    let config = FederationConfig {
        seed,
        intervals,
        drill,
        ..FederationConfig::default()
    };
    let report = run_federation(
        &book,
        &services,
        &FederationSpec::three_region_demo(),
        &config,
    )
    .map_err(|e| e.to_string())?;
    if json_out {
        serde_json::to_string(&report)
            .map(|s| s + "\n")
            .map_err(|e| e.to_string())
    } else {
        Ok(report.render())
    }
}

/// Destination paths for `parvactl run`'s observability artifacts.
#[derive(Debug, Clone, Default)]
pub struct ObsPaths {
    /// Chrome/Perfetto `trace_event` JSON — load in `ui.perfetto.dev`
    /// (deterministic: byte-identical across runs of one spec).
    pub trace: Option<String>,
    /// Gauge time series; a `.csv` extension selects CSV, anything else
    /// line-delimited JSON (deterministic).
    pub metrics: Option<String>,
    /// Orchestrator self-profile JSON (host clocks — the one
    /// deliberately non-deterministic artifact).
    pub profile: Option<String>,
    /// Shard directory for a *streamed* run: spans and gauge rows are
    /// retired to rotating `trace-*.jsonl` / `metrics-*.jsonl` shards as
    /// they land instead of being buffered to run end. Exclusive with
    /// the batch artifacts above (one run drives one sink).
    pub stream: Option<String>,
}

impl ObsPaths {
    /// Does any batch artifact need an observed (recording) run?
    #[must_use]
    pub fn any(&self) -> bool {
        self.trace.is_some() || self.metrics.is_some() || self.profile.is_some()
    }
}

/// What a spec run prints where: the machine-readable report on stdout,
/// human narration (run header, artifact notes) on stderr — so
/// `parvactl run --json … | jq` always sees pure JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpecRunOutput {
    /// Report text for stdout (JSON in `--json` mode).
    pub stdout: String,
    /// Narration for stderr.
    pub stderr: String,
}

fn write_artifact(path: &str, body: &str, kind: &str, notes: &mut String) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
    notes.push_str(&format!("wrote {kind} to {path} ({} bytes)\n", body.len()));
    Ok(())
}

/// `parvactl run`: execute a declarative scenario spec — either a
/// registered built-in name or raw [`crate::scenarios::ScenarioSpec`]
/// JSON (the binary reads spec files and passes their text).
///
/// `--json` prints the tagged [`crate::scenarios::ScenarioReport`] for
/// scripting (deterministic per spec); `--quick` shrinks windows and
/// fleet intervals to CI scale without touching seeds.
///
/// # Errors
/// Unknown names, malformed spec JSON, and any engine failure, as
/// display strings.
pub fn run_spec(input: &str, json_out: bool, quick: bool) -> Result<String, String> {
    run_spec_with(input, json_out, quick, &ObsPaths::default()).map(|out| out.stdout)
}

/// [`run_spec`] with observability artifacts: when any [`ObsPaths`]
/// destination is set the spec runs *observed* — the same report
/// (observation is property-tested behavior-neutral), plus the trace /
/// metrics / self-profile files written to the given paths. Returns the
/// stdout/stderr split so `--json` output stays machine-pure.
///
/// # Errors
/// Everything [`run_spec`] raises, plus artifact write failures.
pub fn run_spec_with(
    input: &str,
    json_out: bool,
    quick: bool,
    obs: &ObsPaths,
) -> Result<SpecRunOutput, String> {
    let spec = match crate::scenarios::spec_by_name(input.trim()) {
        Some(spec) => spec,
        None => serde_json::from_str::<crate::scenarios::ScenarioSpec>(input).map_err(|e| {
            format!(
                "'{}' is not a registered spec (try `parvactl run --list`) and does not \
                 parse as spec JSON: {e}",
                input.chars().take(60).collect::<String>()
            )
        })?,
    };
    let spec = if quick { spec.quick() } else { spec };
    let mut notes = String::new();
    if obs.stream.is_some() && obs.any() {
        return Err(
            "--stream writes trace and metrics shards itself; drop --trace/--metrics/--profile"
                .into(),
        );
    }
    let report = if let Some(dir) = &obs.stream {
        let (report, stats) = spec.run_streamed(dir)?;
        notes.push_str(&format!(
            "streamed {} trace events + {} gauge rows to {dir} ({} trace / {} metrics shard(s){})\n",
            stats.trace_events,
            stats.gauge_rows,
            stats.trace_shards,
            stats.metrics_shards,
            if stats.dropped_shards > 0 {
                format!(", {} dropped by retention", stats.dropped_shards)
            } else {
                String::new()
            }
        ));
        report
    } else if obs.any() {
        let (report, rec) = spec.run_observed()?;
        if let Some(path) = &obs.trace {
            write_artifact(path, &rec.chrome_trace(), "trace", &mut notes)?;
        }
        if let Some(path) = &obs.metrics {
            let body = if path.ends_with(".csv") {
                rec.metrics_csv()
            } else {
                rec.metrics_jsonl()
            };
            write_artifact(path, &body, "metrics", &mut notes)?;
        }
        if let Some(path) = &obs.profile {
            write_artifact(
                path,
                &rec.profile_json(),
                "profile (non-deterministic)",
                &mut notes,
            )?;
        }
        report
    } else {
        spec.run()?
    };
    let header = format!("== {} ==\n{}\n", spec.name, spec.description);
    if json_out {
        let body = serde_json::to_string(&report)
            .map(|s| s + "\n")
            .map_err(|e| e.to_string())?;
        Ok(SpecRunOutput {
            stdout: body,
            stderr: header + &notes,
        })
    } else {
        Ok(SpecRunOutput {
            stdout: format!("{header}{}", report.render()),
            stderr: notes,
        })
    }
}

/// `parvactl run --list`: the spec registry. `names_only` prints bare
/// names (one per line, for shell loops).
#[must_use]
pub fn list_specs(names_only: bool) -> String {
    let mut out = String::new();
    if names_only {
        for name in crate::scenarios::spec_names() {
            out.push_str(&name);
            out.push('\n');
        }
    } else {
        out.push_str("registered scenario specs:\n");
        for spec in crate::scenarios::builtin_specs() {
            let kind = match spec.mode {
                crate::scenarios::Mode::Serve { .. } => "serve",
                crate::scenarios::Mode::Fleet { .. } => "fleet",
                crate::scenarios::Mode::Region { .. } => "region",
            };
            out.push_str(&format!(
                "  {:<18} [{kind:<6}] {}\n",
                spec.name, spec.description
            ));
        }
    }
    out
}

/// `parvactl run --list --json`: the registry as a machine-readable array.
///
/// # Errors
/// JSON encoding failures (none in practice).
pub fn list_specs_json() -> Result<String, String> {
    use serde::Value;
    let entries: Vec<Value> = crate::scenarios::builtin_specs()
        .iter()
        .map(|spec| {
            let kind = match spec.mode {
                crate::scenarios::Mode::Serve { .. } => "serve",
                crate::scenarios::Mode::Fleet { .. } => "fleet",
                crate::scenarios::Mode::Region { .. } => "region",
            };
            Value::Map(vec![
                ("name".to_string(), Value::Str(spec.name.clone())),
                ("kind".to_string(), Value::Str(kind.to_string())),
                (
                    "description".to_string(),
                    Value::Str(spec.description.clone()),
                ),
            ])
        })
        .collect();
    serde_json::to_string(&Value::Seq(entries))
        .map(|s| s + "\n")
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// `parvactl daemon` & clients — the parvad control plane.
// ---------------------------------------------------------------------------

/// Options for `parvactl daemon` (the host side).
#[derive(Debug, Clone, Default)]
pub struct DaemonCliOpts {
    /// Initial catalogue as CLI services JSON (`None`: a small builtin
    /// two-service catalogue). Ignored with `resume`.
    pub services_json: Option<String>,
    /// Resume from this checkpoint instead of booting fresh.
    pub resume: Option<String>,
    /// Engine seed (fresh boots only).
    pub seed: u64,
    /// Epoch length, ms (fresh boots only).
    pub epoch_ms: u64,
    /// Autoscale decision cadence, epochs (0 = policy default).
    pub decide_every: u64,
    /// Control-socket bind address.
    pub listen: Option<String>,
    /// Stop after this many total epochs.
    pub epochs: Option<u64>,
    /// Artifact directory.
    pub out: Option<String>,
    /// Scheduled checkpoint path.
    pub checkpoint: Option<String>,
    /// Epoch at which to write the scheduled checkpoint.
    pub checkpoint_at: Option<u64>,
    /// Exit right after the scheduled checkpoint.
    pub halt_at_checkpoint: bool,
    /// Live `StreamSink` shard directory.
    pub stream: Option<String>,
    /// Wall-clock pause between epochs, ms.
    pub throttle_ms: u64,
}

/// The builtin daemon catalogue (small, fast, deterministic).
#[must_use]
pub fn default_daemon_catalogue() -> Vec<ServiceSpec> {
    vec![
        ServiceSpec::new(1, Model::ResNet50, 400.0, 40.0),
        ServiceSpec::new(2, Model::MobileNetV2, 300.0, 30.0),
    ]
}

/// `parvactl daemon`: boot (or resume) a daemon and drive it to completion.
///
/// # Errors
/// Boot/resume, socket or artifact failures, as strings.
pub fn run_daemon_cmd(opts: &DaemonCliOpts) -> Result<String, String> {
    let mut daemon = match &opts.resume {
        Some(path) => parvad::load_checkpoint::<parvad::Daemon>(std::path::Path::new(path))?,
        None => {
            let specs = match &opts.services_json {
                Some(json) => parse_services(json)?,
                None => default_daemon_catalogue(),
            };
            let mut policy = parvad::AutoscalePolicy::default();
            if opts.decide_every > 0 {
                policy.decide_every = opts.decide_every;
            }
            parvad::Daemon::new(
                &specs,
                ArrivalProcess::Poisson,
                opts.seed,
                opts.epoch_ms.max(1) * 1000,
                policy,
            )?
        }
    };
    let outcome = parvad::run_daemon(
        &mut daemon,
        &parvad::DaemonOpts {
            listen: opts.listen.clone(),
            epochs: opts.epochs,
            out_dir: opts.out.as_ref().map(Into::into),
            checkpoint_at: opts.checkpoint_at,
            checkpoint_path: opts.checkpoint.as_ref().map(Into::into),
            halt_at_checkpoint: opts.halt_at_checkpoint,
            stream_dir: opts.stream.as_ref().map(Into::into),
            throttle_ms: opts.throttle_ms,
        },
    )?;
    let mut out = format!(
        "parvad: {} epochs completed{}{}\n",
        outcome.epochs,
        if outcome.checkpointed {
            ", checkpoint written"
        } else {
            ""
        },
        if outcome.drained { ", drained" } else { "" },
    );
    if let Some(addr) = outcome.bound_addr {
        out.push_str(&format!("control socket was {addr}\n"));
    }
    Ok(out)
}

/// `parvactl submit <pod.json> --addr A`: admit a pod over the socket.
///
/// # Errors
/// Connection failures or a non-200 daemon response.
pub fn run_daemon_submit(addr: &str, pod_json: &str) -> Result<String, String> {
    // Validate client-side first for a friendlier error than a 400.
    let pod: parvad::PodSpec =
        serde_json::from_str(pod_json).map_err(|e| format!("bad pod spec: {e}"))?;
    pod.validate()?;
    let (code, body) = parvad::http_request(addr, "POST", "/submit", Some(pod_json))?;
    if code == 200 {
        Ok(body + "\n")
    } else {
        Err(format!("daemon refused ({code}): {body}"))
    }
}

/// `parvactl status --addr A [--json]`: live daemon status.
///
/// # Errors
/// Connection failures or a non-200 daemon response.
pub fn run_daemon_status(addr: &str, json_out: bool) -> Result<String, String> {
    let (code, body) = parvad::http_request(addr, "GET", "/status", None)?;
    if code != 200 {
        return Err(format!("daemon error ({code}): {body}"));
    }
    if json_out {
        return Ok(body + "\n");
    }
    let status: parvad::DaemonStatus =
        serde_json::from_str(&body).map_err(|e| format!("bad status payload: {e}"))?;
    let mut out = format!(
        "epoch {}  sim {:.1} ms  {} GPUs  {} dark  {} decisions  {} reconfigs  \
         {} GPU-epochs{}\n",
        status.epoch,
        status.sim_ms,
        status.gpus,
        status.dark_servers,
        status.decisions,
        status.reconfigs,
        status.gpu_epochs,
        if status.draining { "  DRAINING" } else { "" },
    );
    out.push_str(&format!(
        "{:<14} {:>4} {:>9} {:>12} {:>12} {:>9} {:>11}\n",
        "pod", "id", "replicas", "est req/s", "plan req/s", "offered", "attainment"
    ));
    for s in &status.services {
        out.push_str(&format!(
            "{:<14} {:>4} {:>9} {:>12.1} {:>12.1} {:>9} {:>10.2}%\n",
            s.name,
            s.id,
            s.replicas,
            s.demand_est_rps,
            s.planned_rps,
            s.offered,
            s.slo_attainment * 100.0
        ));
    }
    Ok(out)
}

/// `parvactl scale <service> <multiplier> --addr A`: inject true demand.
///
/// # Errors
/// Connection failures or a non-200 daemon response.
pub fn run_daemon_scale(addr: &str, service: u32, multiplier: f64) -> Result<String, String> {
    let body = format!("{{\"service\":{service},\"multiplier\":{multiplier}}}");
    let (code, reply) = parvad::http_request(addr, "POST", "/scale", Some(&body))?;
    if code == 200 {
        Ok(reply + "\n")
    } else {
        Err(format!("daemon refused ({code}): {reply}"))
    }
}

/// `parvactl drain --addr A`: stop admissions and shut down gracefully.
///
/// # Errors
/// Connection failures or a non-200 daemon response.
pub fn run_daemon_drain(addr: &str) -> Result<String, String> {
    let (code, reply) = parvad::http_request(addr, "POST", "/drain", None)?;
    if code == 200 {
        Ok(reply + "\n")
    } else {
        Err(format!("daemon refused ({code}): {reply}"))
    }
}

// ---------------------------------------------------------------------------
// `parvactl trace` — offline analytics over exported traces and shard dirs.
// ---------------------------------------------------------------------------

/// Resolve a `parvactl trace` input path: a streamed shard directory
/// yields the concatenated trace lane plus the metrics lane; a plain
/// file yields its text (metrics must then come via `--metrics`).
fn load_trace_input(path: &str) -> Result<(String, Option<String>), String> {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        let trace = crate::obs::read_concat_shards(p, "trace")
            .map_err(|e| format!("cannot read trace shards in {path}: {e}"))?;
        let metrics = crate::obs::read_concat_shards(p, "metrics")
            .map_err(|e| format!("cannot read metrics shards in {path}: {e}"))?;
        Ok((trace, Some(metrics)))
    } else {
        std::fs::read_to_string(p)
            .map(|t| (t, None))
            .map_err(|e| format!("cannot read {path}: {e}"))
    }
}

/// Parse report JSON for the audit: the tagged
/// [`crate::scenarios::ScenarioReport`] (`parvactl run --json`), or the
/// raw per-engine reports (`parvactl fleet --json`, `parvactl region
/// --json`).
fn parse_report(text: &str) -> Result<crate::scenarios::ScenarioReport, String> {
    use crate::scenarios::ScenarioReport;
    let text = text.trim();
    if let Ok(r) = serde_json::from_str::<ScenarioReport>(text) {
        return Ok(r);
    }
    if let Ok(r) = serde_json::from_str::<ServingReport>(text) {
        return Ok(ScenarioReport::Serve(r));
    }
    if let Ok(r) = serde_json::from_str::<crate::fleet::FleetReport>(text) {
        return Ok(ScenarioReport::Fleet(r));
    }
    serde_json::from_str::<crate::region::FederationReport>(text)
        .map(ScenarioReport::Region)
        .map_err(|e| {
            format!("report JSON is not a scenario, serving, fleet or federation report: {e}")
        })
}

/// Comparison accumulator for `parvactl trace audit`. Every field pair
/// is one check; divergences collect as human-readable lines. Floats
/// compare *exactly* by default — both sides of the audit are written
/// with shortest-round-trip rendering and parsed back losslessly, so any
/// inequality is a real accounting divergence, not float noise. An
/// explicit tolerance relaxes that for hand-edited or cross-version
/// artifacts.
struct Audit {
    tolerance: Option<f64>,
    checks: usize,
    failures: Vec<String>,
}

impl Audit {
    fn new(tolerance: Option<f64>) -> Self {
        Audit {
            tolerance,
            checks: 0,
            failures: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }

    fn u64(&mut self, what: &str, recomputed: u64, reported: u64) {
        self.checks += 1;
        if recomputed != reported {
            self.fail(format!(
                "{what}: trace says {recomputed}, report says {reported}"
            ));
        }
    }

    fn str(&mut self, what: &str, recomputed: &str, reported: &str) {
        self.checks += 1;
        if recomputed != reported {
            self.fail(format!(
                "{what}: trace says '{recomputed}', report says '{reported}'"
            ));
        }
    }

    fn bool(&mut self, what: &str, recomputed: Option<bool>, reported: bool) {
        self.checks += 1;
        if recomputed != Some(reported) {
            self.fail(format!(
                "{what}: trace says {recomputed:?}, report says {reported}"
            ));
        }
    }

    #[allow(clippy::float_cmp)] // exact equality is the audit's point
    fn f64(&mut self, what: &str, recomputed: f64, reported: f64) {
        self.checks += 1;
        let ok = match self.tolerance {
            Some(t) => (recomputed - reported).abs() <= t,
            None => recomputed == reported,
        };
        if !ok {
            self.fail(format!(
                "{what}: trace says {recomputed}, report says {reported}"
            ));
        }
    }

    fn finish(self, what: &str) -> Result<String, String> {
        let mode = match self.tolerance {
            Some(t) => format!("tolerance {t}"),
            None => "exact".to_string(),
        };
        if self.failures.is_empty() {
            Ok(format!(
                "trace audit: {what} — {} checks, all match ({mode})\n",
                self.checks
            ))
        } else {
            Err(format!(
                "trace audit FAILED ({what}, {mode}): {} of {} checks diverged:\n  {}",
                self.failures.len(),
                self.checks,
                self.failures.join("\n  ")
            ))
        }
    }
}

/// Serve-mode audit: replay the trace's request spans through
/// [`crate::obs::analyze::recompute_serving`] and compare every counter,
/// attainment and latency quantile against the report.
fn audit_serve(trace: &str, report: &ServingReport, audit: &mut Audit) -> Result<(), String> {
    use crate::obs::analyze;
    let events = analyze::parse_trace(trace)?;
    let rc = analyze::recompute_serving(&events)?;
    for s in &report.services {
        let id = u64::from(s.service_id);
        let what = format!("service #{id}");
        match rc.service(id) {
            // A service with no spans at all must also have reported
            // nothing; otherwise the trace is missing its traffic.
            None => {
                audit.u64(&format!("{what} offered"), 0, s.offered);
                audit.u64(&format!("{what} rejected"), 0, s.rejected);
                audit.u64(&format!("{what} completed"), 0, s.completed);
                audit.u64(&format!("{what} timeouts"), 0, s.timeouts);
                audit.u64(&format!("{what} retries"), 0, s.retries);
                audit.u64(&format!("{what} shed"), 0, s.shed);
            }
            Some(r) => {
                audit.u64(&format!("{what} offered"), r.offered, s.offered);
                audit.u64(&format!("{what} rejected"), r.rejected, s.rejected);
                audit.u64(&format!("{what} completed"), r.completed, s.completed);
                // The resilience lifecycle counters recount from the
                // dedicated `resilience`-category instants (zero on both
                // sides for resilience-free runs).
                audit.u64(&format!("{what} timeouts"), r.timeouts, s.timeouts);
                audit.u64(&format!("{what} retries"), r.retries, s.retries);
                audit.u64(&format!("{what} shed"), r.shed, s.shed);
                audit.u64(&format!("{what} hedges"), r.hedges, s.hedges);
                audit.u64(&format!("{what} hedge wins"), r.hedge_wins, s.hedge_wins);
                audit.u64(
                    &format!("{what} within SLO"),
                    r.completed_within_slo,
                    s.completed_within_slo,
                );
                audit.f64(
                    &format!("{what} attainment"),
                    r.attainment(),
                    s.request_compliance_rate(),
                );
                audit.f64(
                    &format!("{what} p50 ms"),
                    r.latency.quantile_ms(0.5),
                    s.latency.quantile_ms(0.5),
                );
                audit.f64(
                    &format!("{what} p99 ms"),
                    r.latency.quantile_ms(0.99),
                    s.latency.quantile_ms(0.99),
                );
            }
        }
    }
    for id in rc.services.iter().map(|s| s.service_id) {
        if !report
            .services
            .iter()
            .any(|s| u64::from(s.service_id) == id)
        {
            audit.fail(format!(
                "service #{id} appears in the trace but not in the report"
            ));
        }
    }
    for c in &report.classes {
        let id = u64::from(c.service_id);
        let cls = c.class as u64;
        let what = format!("service #{id} class {cls}");
        match rc.class(id, cls) {
            None => audit.u64(&format!("{what} offered"), 0, c.offered),
            Some(r) => {
                audit.u64(&format!("{what} offered"), r.offered, c.offered);
                audit.u64(&format!("{what} completed"), r.completed, c.completed);
                audit.u64(
                    &format!("{what} within SLO"),
                    r.completed_within_slo,
                    c.completed_within_slo,
                );
                audit.f64(
                    &format!("{what} attainment"),
                    r.attainment(),
                    c.request_compliance_rate(),
                );
                audit.f64(
                    &format!("{what} p99 ms"),
                    r.latency.quantile_ms(0.99),
                    c.latency.quantile_ms(0.99),
                );
            }
        }
    }
    // Per-tenant recount: admission accounting (offered / admitted /
    // rejected) comes from the tagged arrival instants, completions from
    // the tagged request spans — the quota gate can't misreport without
    // the trace catching it.
    for t in &report.tenants {
        let id = u64::from(t.tenant);
        let what = if t.name.is_empty() {
            format!("tenant #{id}")
        } else {
            format!("tenant #{id} ({})", t.name)
        };
        match rc.tenant(id) {
            None => {
                audit.u64(&format!("{what} offered"), 0, t.offered);
                audit.u64(&format!("{what} completed"), 0, t.completed);
            }
            Some(r) => {
                audit.u64(&format!("{what} offered"), r.offered, t.offered);
                audit.u64(&format!("{what} admitted"), r.admitted, t.admitted);
                audit.u64(&format!("{what} rejected"), r.rejected, t.rejected);
                audit.u64(&format!("{what} completed"), r.completed, t.completed);
                audit.u64(
                    &format!("{what} within SLO"),
                    r.completed_within_slo,
                    t.completed_within_slo,
                );
                audit.f64(
                    &format!("{what} attainment"),
                    r.attainment(),
                    t.attainment(),
                );
                audit.f64(
                    &format!("{what} p50 ms"),
                    r.latency.quantile_ms(0.5),
                    t.latency.quantile_ms(0.5),
                );
                audit.f64(
                    &format!("{what} p99 ms"),
                    r.latency.quantile_ms(0.99),
                    t.latency.quantile_ms(0.99),
                );
            }
        }
    }
    // Tenant 0 is the unbound bucket (services outside every tenant): it
    // legitimately has no report row. Any other traced tenant must.
    for id in rc.tenants.iter().map(|t| t.tenant).filter(|&id| id != 0) {
        if !report.tenants.iter().any(|t| u64::from(t.tenant) == id) {
            audit.fail(format!(
                "tenant #{id} appears in the trace but not in the report"
            ));
        }
    }
    audit.f64(
        "overall attainment",
        rc.overall_attainment(),
        report.overall_request_compliance_rate(),
    );
    Ok(())
}

/// Billing audit shared by the fleet and region layers: the
/// `kind: "billing"` gauge rows must reproduce the report's
/// per-(interval, tenant) P&L ledger row for row — and a report without a
/// ledger must not have emitted any billing rows.
fn audit_billing(
    rows: &[crate::obs::analyze::GaugeRow],
    billing: Option<&crate::cluster::BillingReport>,
    audit: &mut Audit,
) {
    let gauges: Vec<_> = rows.iter().filter(|r| r.kind() == "billing").collect();
    let reported = billing.map_or(&[][..], |b| b.rows.as_slice());
    audit.u64(
        "billing gauge rows",
        gauges.len() as u64,
        reported.len() as u64,
    );
    for b in reported {
        let what = format!("interval {} tenant #{} billing", b.interval, b.tenant);
        let Some(row) = gauges.iter().find(|g| {
            g.u64_of("interval") == Some(b.interval as u64)
                && g.u64_of("tenant") == Some(u64::from(b.tenant))
        }) else {
            audit.fail(format!("{what}: no billing gauge row"));
            continue;
        };
        match row.str_of("tenant_name") {
            Some(name) => audit.str(&format!("{what} tenant_name"), name, &b.tenant_name),
            None => audit.fail(format!("{what}: no tenant_name")),
        }
        audit.u64(
            &format!("{what} offered"),
            row.u64_of("offered").unwrap_or(u64::MAX),
            b.offered,
        );
        audit.u64(
            &format!("{what} rejected"),
            row.u64_of("rejected").unwrap_or(u64::MAX),
            b.rejected,
        );
        audit.u64(
            &format!("{what} within SLO"),
            row.u64_of("completed_within_slo").unwrap_or(u64::MAX),
            b.completed_within_slo,
        );
        for (field, reported) in [
            ("revenue_usd", b.revenue_usd),
            ("cost_usd", b.cost_usd),
            ("margin_usd", b.margin_usd()),
        ] {
            audit.f64(
                &format!("{what} {field}"),
                row.f64_of(field).unwrap_or(f64::NAN),
                reported,
            );
        }
    }
}

/// Fleet-mode audit: the `kind: "fleet"` gauge rows must reproduce the
/// report's per-event recovery accounting row for row.
fn audit_fleet(
    metrics: &str,
    report: &crate::fleet::FleetReport,
    audit: &mut Audit,
) -> Result<(), String> {
    use crate::obs::analyze;
    let all = analyze::parse_metrics(metrics)?;
    let rows: Vec<_> = all.iter().filter(|r| r.kind() == "fleet").collect();
    audit.u64(
        "fleet gauge rows",
        rows.len() as u64,
        report.events.len() as u64 + 1,
    );
    let row_at = |interval: u64| rows.iter().find(|r| r.u64_of("interval") == Some(interval));
    match row_at(0) {
        None => audit.fail("no baseline (interval 0) fleet row".into()),
        Some(row) => {
            audit.str(
                "baseline event",
                row.str_of("event").unwrap_or(""),
                "baseline",
            );
            audit.f64(
                "baseline compliance",
                row.f64_of("compliance_before").unwrap_or(f64::NAN),
                report.baseline_compliance,
            );
            audit.f64(
                "baseline $/h",
                row.f64_of("usd_per_hour").unwrap_or(f64::NAN),
                report.baseline_usd_per_hour,
            );
        }
    }
    for e in &report.events {
        let what = format!("interval {}", e.interval);
        let Some(row) = row_at(e.interval as u64) else {
            audit.fail(format!("{what}: no fleet gauge row"));
            continue;
        };
        audit.str(
            &format!("{what} event"),
            row.str_of("event").unwrap_or(""),
            crate::fleet::event_label(&e.event),
        );
        for (field, reported) in [
            ("compliance_before", e.compliance_before),
            ("compliance_during", e.compliance_during),
            ("compliance_shadowed", e.compliance_shadowed),
            ("compliance_measured", e.compliance_measured),
            ("compliance_after", e.compliance_after),
            ("recovery_ms", e.simulated_recovery_ms),
            ("precopied_gib", e.precopied_gib),
            ("usd_per_hour", e.usd_per_hour),
        ] {
            audit.f64(
                &format!("{what} {field}"),
                row.f64_of(field).unwrap_or(f64::NAN),
                reported,
            );
        }
        audit.u64(
            &format!("{what} migrated_segments"),
            row.u64_of("migrated_segments").unwrap_or(u64::MAX),
            e.migration.migrated_segments as u64,
        );
        audit.u64(
            &format!("{what} nodes_in_service"),
            row.u64_of("nodes_in_service").unwrap_or(u64::MAX),
            e.nodes_in_service as u64,
        );
    }
    audit_billing(&all, report.billing.as_ref(), audit);
    Ok(())
}

/// Region-mode audit: the `kind: "federation"` rows must reproduce the
/// per-interval aggregates, the `kind: "region"` rows every region's
/// outcome (baseline included), and the `kind: "billing"` rows the
/// per-tenant P&L ledger.
fn audit_region(
    metrics: &str,
    report: &crate::region::FederationReport,
    audit: &mut Audit,
) -> Result<(), String> {
    use crate::obs::analyze;
    let all = analyze::parse_metrics(metrics)?;
    let fed: Vec<_> = all.iter().filter(|r| r.kind() == "federation").collect();
    let reg: Vec<_> = all.iter().filter(|r| r.kind() == "region").collect();
    let outcomes: Vec<&crate::region::IntervalOutcome> = std::iter::once(&report.baseline)
        .chain(report.intervals.iter())
        .collect();
    audit.u64(
        "federation gauge rows",
        fed.len() as u64,
        outcomes.len() as u64,
    );
    audit.u64(
        "region gauge rows",
        reg.len() as u64,
        outcomes.iter().map(|o| o.regions.len() as u64).sum(),
    );
    for o in outcomes {
        let what = format!("interval {}", o.interval);
        let Some(row) = fed
            .iter()
            .find(|r| r.u64_of("interval") == Some(o.interval as u64))
        else {
            audit.fail(format!("{what}: no federation gauge row"));
            continue;
        };
        audit.str(
            &format!("{what} event"),
            row.str_of("event").unwrap_or(""),
            &o.event.to_string(),
        );
        for (field, reported) in [
            ("global_compliance", o.global_compliance),
            ("spilled_rps", o.spilled_rps),
            ("unrouted_rps", o.unrouted_rps),
            ("usd_per_hour", o.usd_per_hour),
        ] {
            audit.f64(
                &format!("{what} {field}"),
                row.f64_of(field).unwrap_or(f64::NAN),
                reported,
            );
        }
        audit.u64(
            &format!("{what} forced_failovers"),
            row.u64_of("forced_failovers").unwrap_or(u64::MAX),
            o.forced_failovers.len() as u64,
        );
        for r in &o.regions {
            let what = format!("interval {} region {}", o.interval, r.name);
            let Some(row) = reg.iter().find(|g| {
                g.u64_of("interval") == Some(o.interval as u64)
                    && g.str_of("region") == Some(r.name.as_str())
            }) else {
                audit.fail(format!("{what}: no region gauge row"));
                continue;
            };
            audit.bool(&format!("{what} active"), row.bool_of("active"), r.active);
            for (field, reported) in [
                ("offered_rps", r.offered_rps),
                ("routed_in_rps", r.routed_in_rps),
                ("spill_in_rps", r.spill_in_rps),
                ("spill_out_rps", r.spill_out_rps),
                ("compliance", r.compliance),
                ("local_p99_ms", r.local_p99_ms),
                ("recovery_latency_ms", r.recovery_latency_ms),
                ("usd_per_hour", r.usd_per_hour),
            ] {
                audit.f64(
                    &format!("{what} {field}"),
                    row.f64_of(field).unwrap_or(f64::NAN),
                    reported,
                );
            }
            audit.u64(
                &format!("{what} migrated_segments"),
                row.u64_of("migrated_segments").unwrap_or(u64::MAX),
                r.migrated_segments as u64,
            );
            audit.u64(
                &format!("{what} nodes_in_service"),
                row.u64_of("nodes_in_service").unwrap_or(u64::MAX),
                r.nodes_in_service as u64,
            );
        }
    }
    audit_billing(&all, report.billing.as_ref(), audit);
    Ok(())
}

/// `parvactl trace audit`: replay a run's trace/metrics stream and
/// independently recompute the accounting its JSON report claims —
/// serve-mode SLO attainment and latency quantiles (per service, class
/// and tenant) from raw request spans, fleet/region recovery and
/// per-tenant billing rows from the gauge stream. Returns the
/// check summary on agreement; any divergence is an `Err` (nonzero exit
/// in the binary), making the observability pipeline self-auditing: a
/// report can't drift from what its own trace records.
///
/// `trace_path` may be a streamed shard directory (metrics lane included
/// automatically) or an exported trace file; `metrics_path` supplies the
/// gauge rows for fleet/region audits when the input is a plain file.
/// `tolerance` relaxes float comparisons from exact to `|a−b| ≤ tol`.
///
/// # Errors
/// Unreadable inputs, unparseable trace/report, or any audit divergence.
pub fn run_trace_audit(
    trace_path: &str,
    report_path: &str,
    metrics_path: Option<&str>,
    tolerance: Option<f64>,
) -> Result<String, String> {
    let (trace_text, dir_metrics) = load_trace_input(trace_path)?;
    let metrics_text = match metrics_path {
        Some(p) => Some(std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?),
        None => dir_metrics,
    };
    let report_text = std::fs::read_to_string(report_path)
        .map_err(|e| format!("cannot read {report_path}: {e}"))?;
    let need_metrics = || {
        metrics_text.as_deref().ok_or(
            "this audit recounts gauge rows: pass a shard directory or --metrics FILE".to_string(),
        )
    };
    let mut audit = Audit::new(tolerance);
    let what = match parse_report(&report_text)? {
        crate::scenarios::ScenarioReport::Serve(r) => {
            audit_serve(&trace_text, &r, &mut audit)?;
            "serve"
        }
        crate::scenarios::ScenarioReport::Fleet(r) => {
            audit_fleet(need_metrics()?, &r, &mut audit)?;
            "fleet"
        }
        crate::scenarios::ScenarioReport::Region(r) => {
            audit_region(need_metrics()?, &r, &mut audit)?;
            "region"
        }
    };
    audit.finish(what)
}

/// `parvactl trace summary`: per-phase span breakdown (count, total and
/// max duration per `(cat, name)`), instant counts, and the top-k
/// slowest requests; serve traces get their recomputed overall SLO
/// attainment appended.
///
/// # Errors
/// Unreadable or unparseable trace input.
pub fn run_trace_summary(trace_path: &str, top_k: usize) -> Result<String, String> {
    use crate::obs::analyze;
    let (text, _) = load_trace_input(trace_path)?;
    let events = analyze::parse_trace(&text)?;
    let mut out = analyze::summarize(&events, top_k).render();
    if let Ok(rc) = analyze::recompute_serving(&events) {
        out.push_str(&format!(
            "recomputed SLO attainment over [{} µs, {} µs): {:.4}\n",
            rc.window_start_us,
            rc.window_end_us,
            rc.overall_attainment()
        ));
    }
    Ok(out)
}

/// `parvactl trace diff`: span-population and attainment deltas between
/// two runs' traces (files or shard directories).
///
/// # Errors
/// Unreadable or unparseable trace input.
pub fn run_trace_diff(path_a: &str, path_b: &str) -> Result<String, String> {
    use crate::obs::analyze;
    let (text_a, _) = load_trace_input(path_a)?;
    let (text_b, _) = load_trace_input(path_b)?;
    let a = analyze::parse_trace(&text_a)?;
    let b = analyze::parse_trace(&text_b)?;
    Ok(analyze::diff(&a, &b).render())
}

/// `parvactl trace tail`: follow a live shard directory, emitting each
/// complete new line (trace events or gauge rows) as the producer
/// retires it, across shard rotations and retention deletions. Returns
/// when the stream is finalized (`stream.done`) and drained, or after
/// `max_polls` polls. Lines go through `emit` so the binary can stream
/// them to stdout while tests collect them.
///
/// # Errors
/// Shard-directory read failures.
pub fn run_trace_tail(
    dir: &str,
    lane: &str,
    poll_ms: u64,
    max_polls: Option<u64>,
    emit: &mut dyn FnMut(&str),
) -> Result<(), String> {
    let mut follower = crate::obs::TailFollower::new(dir, lane);
    let mut polls: u64 = 0;
    loop {
        // Check `done` *before* polling: lines appended between the poll
        // and the marker check would otherwise be droppable.
        let finished = follower.done();
        let lines = follower
            .poll()
            .map_err(|e| format!("cannot tail {dir}: {e}"))?;
        for line in &lines {
            emit(line);
        }
        if finished && lines.is_empty() {
            return Ok(());
        }
        polls += 1;
        if max_polls.is_some_and(|max| polls >= max) {
            return Ok(());
        }
        if lines.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
        }
    }
}

/// `parvactl scenarios`: render Table IV.
#[must_use]
pub fn run_scenarios() -> String {
    let mut out = String::from("Table IV scenarios (rate req/s @ SLO ms):\n");
    for sc in Scenario::ALL {
        out.push_str(&format!(
            "\n{sc} — total {:.0} req/s\n",
            sc.total_rate_rps()
        ));
        for s in sc.services() {
            out.push_str(&format!(
                "  {:<14} {:>6.0} @ {:>5.0}\n",
                s.model.name(),
                s.request_rate_rps,
                s.slo.latency_ms
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"[
        {"model": "ResNet-50", "rate_rps": 829.0, "slo_ms": 205.0},
        {"model": "mobilenetv2", "rate_rps": 677.0, "slo_ms": 167.0}
    ]"#;

    #[test]
    fn parse_good_input() {
        let specs = parse_services(GOOD).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].model, Model::ResNet50);
        assert_eq!(specs[1].model, Model::MobileNetV2);
        assert_eq!(specs[1].id, 1);
    }

    #[test]
    fn parse_flag_reads_good_values_and_names_bad_ones() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = args("fleet --seed 7 --ratio 0.5 --json");
        assert_eq!(parse_flag::<u64>(&a, "--seed"), Ok(Some(7)));
        assert_eq!(parse_flag::<f64>(&a, "--ratio"), Ok(Some(0.5)));
        assert_eq!(parse_flag::<u64>(&a, "--intervals"), Ok(None));

        let malformed = parse_flag::<u64>(&args("run --seed abc"), "--seed").unwrap_err();
        assert!(
            malformed.contains("--seed") && malformed.contains("abc"),
            "{malformed}"
        );
        let err = parse_flag::<u64>(&args("daemon --checkpoint-at 6x"), "--checkpoint-at");
        assert!(err.unwrap_err().contains("--checkpoint-at"));
        // A following flag is not a value.
        let err = parse_flag::<u64>(&args("fleet --seed --json"), "--seed");
        assert!(err.unwrap_err().contains("--seed"));

        let missing = parse_flag::<u64>(&args("fleet --seed"), "--seed").unwrap_err();
        assert_eq!(missing, "--seed needs a value");
    }

    #[test]
    fn parse_explicit_ids() {
        let json = r#"[{"model": "VGG-16", "rate_rps": 10.0, "slo_ms": 300.0, "id": 42}]"#;
        assert_eq!(parse_services(json).unwrap()[0].id, 42);
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!(parse_services("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(parse_services("[]").unwrap_err().contains("empty"));
        let bad_model = r#"[{"model": "GPT-9", "rate_rps": 1.0, "slo_ms": 1.0}]"#;
        assert!(parse_services(bad_model).unwrap_err().contains("GPT-9"));
        let bad_rate = r#"[{"model": "VGG-16", "rate_rps": -1.0, "slo_ms": 100.0}]"#;
        assert!(parse_services(bad_rate).unwrap_err().contains("positive"));
    }

    #[test]
    fn scheduler_lookup() {
        let book = ProfileBook::builtin();
        for name in [
            "parvagpu",
            "single",
            "unoptimized",
            "gpulet",
            "igniter",
            "MIG-serving",
        ] {
            assert!(make_scheduler(name, &book).is_ok(), "{name}");
        }
        assert!(make_scheduler("slurm", &book).is_err());
    }

    #[test]
    fn known_name_predicate_agrees_with_make_scheduler() {
        // Both functions read the same SCHEDULERS table, so agreement is
        // structural; spot-check both directions and the normalization.
        let book = ProfileBook::builtin();
        for (key, _) in super::SCHEDULERS {
            assert!(scheduler_name_is_known(key), "{key}");
            assert!(make_scheduler(key, &book).is_ok(), "{key}");
        }
        for bad in ["slurm", "", "parvagpu2", "mps"] {
            assert!(!scheduler_name_is_known(bad), "{bad}");
            assert!(make_scheduler(bad, &book).is_err(), "{bad}");
        }
        // Normalization matches too.
        assert!(scheduler_name_is_known("MIG-Serving"));
        assert!(scheduler_name_is_known("paris_elsa"));
    }

    #[test]
    fn plan_renders_deployment() {
        let out = run_plan(GOOD, "parvagpu").unwrap();
        assert!(out.contains("GPU 0"));
        assert!(out.contains("fragmentation 0.0%"));
    }

    #[test]
    fn simulate_reports_compliance() {
        let out = run_simulate(GOOD, "parvagpu", 2.0, 7).unwrap();
        assert!(out.contains("compliance 100.00%"), "{out}");
    }

    #[test]
    fn compare_lists_all_frameworks() {
        let out = run_compare(GOOD).unwrap();
        for name in ["gpulet", "iGniter", "MIG-serving", "ParvaGPU"] {
            assert!(out.contains(name), "{name} missing:\n{out}");
        }
    }

    #[test]
    fn scenarios_table_renders() {
        let out = run_scenarios();
        assert!(out.contains("S5"));
        assert!(out.contains("MobileNetV2"));
    }

    #[test]
    fn new_baseline_lookup() {
        let book = ProfileBook::builtin();
        for name in ["gslice", "paris-elsa", "paris"] {
            assert!(make_scheduler(name, &book).is_ok(), "{name}");
        }
    }

    #[test]
    fn fleet_chaos_renders_and_is_deterministic() {
        let a = run_fleet(None, 7, 3, 2, false, false).unwrap();
        let b = run_fleet(None, 7, 3, 2, false, false).unwrap();
        assert_eq!(a, b, "fleet chaos must be deterministic per seed");
        assert!(a.contains("chaos run"), "{a}");
        assert!(a.contains("all events recovered"), "{a}");
        assert!(a.contains("worst measured dip"), "{a}");
        assert!(run_fleet(Some("not json"), 1, 1, 1, false, false).is_err());
    }

    #[test]
    fn fleet_json_output_round_trips() {
        let out = run_fleet(None, 7, 3, 2, true, false).unwrap();
        let report: crate::fleet::FleetReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.seed, 7);
        assert_eq!(report.events.len(), 3);
    }

    #[test]
    fn fleet_analytic_fallback_runs() {
        let out = run_fleet(None, 7, 3, 2, true, true).unwrap();
        let report: crate::fleet::FleetReport = serde_json::from_str(&out).unwrap();
        // With the DES path off, every measured window equals the
        // analytic blackout window and no simulated latency is reported.
        for e in &report.events {
            assert_eq!(e.compliance_measured, e.compliance_during);
            assert_eq!(e.simulated_recovery_ms, 0.0);
        }
    }

    #[test]
    fn region_drill_renders_and_is_deterministic() {
        let a = run_region(None, 5, 4, false).unwrap();
        let b = run_region(None, 5, 4, false).unwrap();
        assert_eq!(a, b, "federation runs must be deterministic per seed");
        assert!(a.contains("federation run"), "{a}");
        assert!(a.contains("EVACUATE"), "drill must evacuate a region:\n{a}");
        assert!(run_region(Some("not json"), 1, 3, false).is_err());
    }

    #[test]
    fn region_json_output_round_trips() {
        let out = run_region(None, 5, 4, true).unwrap();
        let report: crate::region::FederationReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.seed, 5);
        assert_eq!(report.intervals.len(), 4);
        assert_eq!(report.region_names.len(), 3);
    }

    #[test]
    fn run_spec_by_name_is_deterministic_json() {
        let a = run_spec("quickstart", true, true).unwrap();
        let b = run_spec("quickstart", true, true).unwrap();
        assert_eq!(a, b, "spec runs must be deterministic");
        let report: crate::scenarios::ScenarioReport = serde_json::from_str(&a).unwrap();
        assert!(matches!(report, crate::scenarios::ScenarioReport::Serve(_)));
    }

    #[test]
    fn run_spec_accepts_raw_json_and_rejects_garbage() {
        let spec = crate::scenarios::spec_by_name("single_node_mps").unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let out = run_spec(&json, false, true).unwrap();
        assert!(out.contains("single_node_mps"), "{out}");
        let err = run_spec("definitely_not_registered", false, true).unwrap_err();
        assert!(err.contains("--list"), "{err}");
    }

    #[test]
    fn run_spec_renders_fleet_and_region_summaries() {
        let fleet = run_spec("fleet_chaos", false, true).unwrap();
        assert!(fleet.contains("chaos run"), "{fleet}");
        let region = run_spec("region_failover", false, true).unwrap();
        assert!(region.contains("federation run"), "{region}");
        assert!(region.contains("EVACUATE"), "{region}");
    }

    #[test]
    fn list_specs_covers_the_registry() {
        let listing = list_specs(false);
        let names = list_specs(true);
        for spec in crate::scenarios::builtin_specs() {
            assert!(listing.contains(&spec.name), "{} missing", spec.name);
            assert!(
                names.lines().any(|l| l == spec.name),
                "{} missing from --names",
                spec.name
            );
        }
    }

    #[test]
    fn resume_refuses_a_checksum_valid_state_that_breaks_an_invariant() {
        use serde::{Serialize, Value};
        let daemon = Daemon::new(
            &default_daemon_catalogue(),
            ArrivalProcess::Poisson,
            7,
            500_000,
            AutoscalePolicy::default(),
        )
        .unwrap();
        let dir = std::env::temp_dir().join("parva-cli-resume-invariants");
        std::fs::create_dir_all(&dir).unwrap();
        // Edit one field of the state, checksum it afresh (the file
        // verifies) and resume from it.
        let resume = |field: &str, edit: &dyn Fn(&mut Value)| {
            let mut state = daemon.to_value();
            let Value::Map(fields) = &mut state else {
                panic!("daemon state is a map")
            };
            let (_, value) = fields.iter_mut().find(|(k, _)| k == field).unwrap();
            edit(value);
            let path = dir.join(format!("{field}.json"));
            std::fs::write(&path, crate::daemon::encode_checkpoint(&state).unwrap()).unwrap();
            run_daemon_cmd(&DaemonCliOpts {
                resume: Some(path.display().to_string()),
                epochs: Some(2),
                ..DaemonCliOpts::default()
            })
        };
        let err = resume("epoch_us", &|v| *v = Value::UInt(0)).unwrap_err();
        assert!(err.contains("epoch_us > 0"), "{err}");
        let err = resume("names", &|v| {
            if let Value::Seq(names) = v {
                names.truncate(1);
            }
        })
        .unwrap_err();
        assert!(err.contains("must all have the same length"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_spec_with_writes_deterministic_artifacts() {
        let dir = std::env::temp_dir().join("parva-cli-obs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |n: &str| dir.join(n).to_string_lossy().into_owned();
        let obs = ObsPaths {
            trace: Some(path("trace.json")),
            metrics: Some(path("metrics.csv")),
            profile: Some(path("profile.json")),
            stream: None,
        };
        let a = run_spec_with("fleet_chaos", true, true, &obs).unwrap();
        let trace1 = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        let metrics1 = std::fs::read_to_string(dir.join("metrics.csv")).unwrap();
        let b = run_spec_with("fleet_chaos", true, true, &obs).unwrap();
        let trace2 = std::fs::read_to_string(dir.join("trace.json")).unwrap();
        let metrics2 = std::fs::read_to_string(dir.join("metrics.csv")).unwrap();
        // Byte-identical artifacts and identical reports across runs.
        assert_eq!(trace1, trace2);
        assert_eq!(metrics1, metrics2);
        assert_eq!(a.stdout, b.stdout);
        assert!(trace1.contains("\"traceEvents\""));
        // Rows lead with the stable run id (`name@seed`) so concatenated
        // multi-run exports stay attributable.
        assert!(metrics1.starts_with("run,kind,"), "{metrics1}");
        assert!(metrics1.contains("fleet_chaos@"), "{metrics1}");
        let profile = std::fs::read_to_string(dir.join("profile.json")).unwrap();
        assert!(profile.contains("\"deterministic\":false"), "{profile}");
        // Observation is behavior-neutral: same stdout as an unobserved run.
        let plain = run_spec("fleet_chaos", true, true).unwrap();
        assert_eq!(a.stdout, plain);
    }

    #[test]
    fn run_spec_with_json_keeps_stdout_machine_pure() {
        let dir = std::env::temp_dir().join("parva-cli-obs-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let obs = ObsPaths {
            trace: Some(dir.join("t.json").to_string_lossy().into_owned()),
            ..ObsPaths::default()
        };
        let out = run_spec_with("quickstart", true, true, &obs).unwrap();
        // stdout is exactly one JSON document; narration lives on stderr.
        serde_json::from_str::<crate::scenarios::ScenarioReport>(out.stdout.trim()).unwrap();
        assert!(out.stderr.contains("== quickstart =="), "{}", out.stderr);
        assert!(out.stderr.contains("wrote trace"), "{}", out.stderr);
        // Human mode keeps the header on stdout and notes on stderr.
        let human = run_spec_with("quickstart", false, true, &obs).unwrap();
        assert!(human.stdout.contains("== quickstart =="));
        assert!(!human.stdout.contains("wrote trace"));
        assert!(human.stderr.contains("wrote trace"));
    }

    #[test]
    fn obs_paths_any_reflects_fields() {
        assert!(!ObsPaths::default().any());
        assert!(ObsPaths {
            metrics: Some("m.jsonl".into()),
            ..ObsPaths::default()
        }
        .any());
    }

    #[test]
    fn streamed_run_audits_summarizes_and_tails() {
        let dir = std::env::temp_dir().join("parva-cli-stream-test");
        let _ = std::fs::remove_dir_all(&dir);
        let shard_dir = dir.join("shards").to_string_lossy().into_owned();
        std::fs::create_dir_all(&dir).unwrap();
        let obs = ObsPaths {
            stream: Some(shard_dir.clone()),
            ..ObsPaths::default()
        };
        let out = run_spec_with("quickstart", true, true, &obs).unwrap();
        assert!(out.stderr.contains("streamed"), "{}", out.stderr);
        let report_path = dir.join("report.json").to_string_lossy().into_owned();
        std::fs::write(&report_path, &out.stdout).unwrap();

        // The audit recomputes the report from the shards and agrees.
        let msg = run_trace_audit(&shard_dir, &report_path, None, None).unwrap();
        assert!(msg.contains("all match"), "{msg}");
        assert!(msg.contains("serve"), "{msg}");

        // A doctored report diverges: inflate a counter and re-audit.
        let doctored = out.stdout.replacen("\"offered\":", "\"offered\":9", 1);
        assert_ne!(doctored, out.stdout, "replacen must hit an offered field");
        let bad_path = dir.join("doctored.json").to_string_lossy().into_owned();
        std::fs::write(&bad_path, &doctored).unwrap();
        let err = run_trace_audit(&shard_dir, &bad_path, None, None).unwrap_err();
        assert!(err.contains("diverged"), "{err}");

        // Summary renders span stats and the recomputed attainment.
        let summary = run_trace_summary(&shard_dir, 3).unwrap();
        assert!(summary.contains("request"), "{summary}");
        assert!(summary.contains("recomputed SLO attainment"), "{summary}");

        // Self-diff shows identical populations.
        let diff = run_trace_diff(&shard_dir, &shard_dir).unwrap();
        assert!(diff.contains("request"), "{diff}");

        // Tailing the finalized directory drains exactly the trace lane.
        let mut lines = Vec::new();
        run_trace_tail(&shard_dir, "trace", 1, None, &mut |l| {
            lines.push(l.to_string());
        })
        .unwrap();
        let concat =
            crate::obs::read_concat_shards(std::path::Path::new(&shard_dir), "trace").unwrap();
        assert_eq!(lines.len(), concat.lines().count());
        assert!(!lines.is_empty());
    }

    #[test]
    fn streamed_fleet_run_audit_checks_gauge_rows() {
        let dir = std::env::temp_dir().join("parva-cli-stream-fleet-test");
        let _ = std::fs::remove_dir_all(&dir);
        let shard_dir = dir.join("shards").to_string_lossy().into_owned();
        std::fs::create_dir_all(&dir).unwrap();
        let obs = ObsPaths {
            stream: Some(shard_dir.clone()),
            ..ObsPaths::default()
        };
        let out = run_spec_with("fleet_chaos", true, true, &obs).unwrap();
        let report_path = dir.join("report.json").to_string_lossy().into_owned();
        std::fs::write(&report_path, &out.stdout).unwrap();
        let msg = run_trace_audit(&shard_dir, &report_path, None, None).unwrap();
        assert!(msg.contains("all match"), "{msg}");
        assert!(msg.contains("fleet"), "{msg}");
        // Without gauge rows (trace file alone) the fleet audit refuses.
        let trace_only = dir.join("trace.jsonl").to_string_lossy().into_owned();
        let text =
            crate::obs::read_concat_shards(std::path::Path::new(&shard_dir), "trace").unwrap();
        std::fs::write(&trace_only, text).unwrap();
        let err = run_trace_audit(&trace_only, &report_path, None, None).unwrap_err();
        assert!(err.contains("--metrics"), "{err}");
    }

    #[test]
    fn stream_is_exclusive_with_batch_artifacts() {
        let obs = ObsPaths {
            trace: Some("t.json".into()),
            stream: Some("shards".into()),
            ..ObsPaths::default()
        };
        let err = run_spec_with("quickstart", true, true, &obs).unwrap_err();
        assert!(err.contains("--stream"), "{err}");
    }

    #[test]
    fn cost_renders_pricing_ladder() {
        let out = run_cost(GOOD, "parvagpu").unwrap();
        assert!(out.contains("p4de.24xlarge"), "{out}");
        assert!(out.contains("OnDemand") && out.contains("Spot"));
    }

    #[test]
    fn feasibility_matrix_for_llm() {
        let out = run_feasibility("Guanaco-65B").unwrap();
        assert!(out.contains("A100-40GB") && out.contains("none"), "{out}");
        assert!(out.contains("B200-192GB"), "{out}");
        assert!(run_feasibility("GPT-9").is_err());
    }
}
