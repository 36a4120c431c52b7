//! `ScenarioSpec` — a declarative, serde-backed description of one whole
//! experiment.
//!
//! Every axis the simulators expose is a *field*, not a function
//! signature: the service mix (Table IV tables, explicit lists, or the
//! demo mixes), a GPU catalog slice, the scheduler, ingress splits,
//! recovery work, fleet pools with their chaos trace, a full multi-region
//! federation with drills and diurnal demand, windows and seeds.
//! [`ScenarioSpec::run`] dispatches to the serving / fleet / region engine
//! and returns a tagged [`ScenarioReport`] — so a new experiment is a JSON
//! file (`parvactl run spec.json`), not a new binary. This is the same
//! "configuration as first-class input" move the paper makes at the
//! Configurator/Allocator boundary (§III), applied at the platform
//! boundary.

use crate::prelude::*;
use parva_deploy::{SloClass, Tenant};
use parva_fleet::{ChaosProfile, FleetReport};
use parva_obs::{NullSink, Recorder, StreamConfig, StreamSink, StreamStats};
use parva_region::{EvacuationDrill, FederationReport, RttMatrix};
use parva_serve::{RecoverySpec, ResilienceSpec};
use serde::{Deserialize, Serialize};

/// One service in an explicit [`Workload::Services`] list — the same shape
/// the `parvactl` JSON service arrays use.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceEntry {
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

impl ServiceEntry {
    /// Resolve into a validated [`ServiceSpec`]; `position` supplies the
    /// default id.
    ///
    /// # Errors
    /// Unknown model names and non-positive rates/SLOs.
    pub fn to_spec(&self, position: usize) -> Result<ServiceSpec, String> {
        let model = Model::parse(&self.model)
            .ok_or_else(|| format!("unknown model '{}' (entry {position})", self.model))?;
        let spec = ServiceSpec::new(
            self.id.unwrap_or(position as u32),
            model,
            self.rate_rps,
            self.slo_ms,
        );
        if !spec.is_valid() {
            return Err(format!(
                "entry {position}: rate and SLO must be positive finite numbers"
            ));
        }
        Ok(spec)
    }
}

/// Where a scenario's service mix comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// A paper Table IV scenario, replicated `scale`-fold (0 and 1 both
    /// mean the plain table).
    Table {
        /// Which Table IV column set.
        scenario: Scenario,
        /// k-fold service replication (the Figs. 10–11 scalability axis).
        #[serde(default)]
        scale: u32,
    },
    /// An explicit service list.
    Services(Vec<ServiceEntry>),
    /// The four-service fleet-chaos demo mix
    /// ([`parva_fleet::demo_services`]).
    FleetDemo,
    /// The four-service global federation demo mix
    /// ([`parva_region::demo_services`]).
    RegionDemo,
}

impl Workload {
    /// Materialize the service specs.
    ///
    /// # Errors
    /// Propagates [`ServiceEntry::to_spec`] failures and empty lists.
    pub fn services(&self) -> Result<Vec<ServiceSpec>, String> {
        match self {
            Self::Table { scenario, scale } => Ok(scenario.scaled((*scale).max(1))),
            Self::Services(entries) => {
                if entries.is_empty() {
                    return Err("service list is empty".into());
                }
                let specs: Vec<ServiceSpec> = entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| e.to_spec(i))
                    .collect::<Result<_, _>>()?;
                // Ids key every report lookup; a collision (explicit ids
                // clashing with each other or with position defaults)
                // would silently shadow a service's metrics.
                let mut ids: Vec<u32> = specs.iter().map(|s| s.id).collect();
                ids.sort_unstable();
                if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
                    return Err(format!(
                        "duplicate service id {} (explicit ids must not collide with \
                         each other or with position-defaulted ids)",
                        dup[0]
                    ));
                }
                Ok(specs)
            }
            Self::FleetDemo => Ok(parva_fleet::demo_services()),
            Self::RegionDemo => Ok(parva_region::demo_services()),
        }
    }
}

/// Measurement-window shape, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Window {
    /// Warm-up excluded from measurement.
    pub warmup_s: f64,
    /// Measured duration.
    pub duration_s: f64,
    /// Post-window drain.
    pub drain_s: f64,
}

impl Default for Window {
    fn default() -> Self {
        Self {
            warmup_s: 2.0,
            duration_s: 10.0,
            drain_s: 5.0,
        }
    }
}

/// One ingress class of a per-service traffic split: `share` of the
/// service's rate enters with `network_ms` already spent against the SLO.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassSplit {
    /// Fraction of the service's offered rate (all splits should sum to
    /// ~1.0 to preserve the nominal load).
    pub share: f64,
    /// Network latency the class has paid before arrival, ms.
    pub network_ms: f64,
}

/// The fleet composition of a [`Mode::Fleet`] scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FleetSource {
    /// The mixed reserved/on-demand/spot demo fleet, sized by its base
    /// node count.
    MixedDemo {
        /// Reserved A100-80GB base nodes.
        base_nodes: usize,
    },
    /// Explicit node pools.
    Pools(FleetSpec),
}

impl FleetSource {
    /// Materialize the pool list this source describes — the exact spec
    /// `run()` hands the orchestrator (examples print it from here so the
    /// rendered topology can never drift from the simulated one).
    #[must_use]
    pub fn resolve(&self) -> FleetSpec {
        match self {
            Self::MixedDemo { base_nodes } => FleetSpec::mixed_demo((*base_nodes).max(1)),
            Self::Pools(spec) => spec.clone(),
        }
    }
}

/// The topology of a [`Mode::Region`] scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FederationSource {
    /// The built-in three-region (us-east / eu-west / ap-south) demo.
    ThreeRegionDemo,
    /// An explicit federation topology.
    Custom(FederationSpec),
}

impl FederationSource {
    /// Materialize the federation topology this source describes — the
    /// exact spec `run()` hands the orchestrator.
    #[must_use]
    pub fn resolve(&self) -> FederationSpec {
        match self {
            Self::ThreeRegionDemo => FederationSpec::three_region_demo(),
            Self::Custom(spec) => spec.clone(),
        }
    }

    /// Region count without cloning the topology.
    fn region_count(&self) -> usize {
        match self {
            Self::ThreeRegionDemo => 3,
            Self::Custom(spec) => spec.regions.len(),
        }
    }
}

/// Diurnal demand bounds of a region run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalSpec {
    /// Trough multiplier (local ~3 a.m.).
    pub low: f64,
    /// Peak multiplier (local ~3 p.m.).
    pub high: f64,
    /// Wall-clock hours the federation advances per interval.
    pub hours_per_interval: f64,
}

/// The observability block of a scenario spec: how an *observed* run
/// ([`ScenarioSpec::run_observed`], `parvactl run --trace/--metrics`)
/// samples its time-series gauges. Unobserved runs ignore the block
/// entirely, so adding it never perturbs a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct ObservabilitySpec {
    /// Gauge-sampling cadence in simulation milliseconds. Serve mode
    /// samples queue depth / in-flight batches / GPU busy fraction /
    /// per-service SLO attainment on this grid; fleet and region modes
    /// emit one row per chaos interval regardless. 0 disables the serve
    /// sampler (trace spans are unaffected).
    pub sample_every_ms: u64,
    /// Shard rotation/retention of *streamed* runs
    /// ([`ScenarioSpec::run_streamed`], `parvactl run --stream`).
    /// Batch-observed and unobserved runs ignore the block.
    pub streaming: StreamingSpec,
}

impl Default for ObservabilitySpec {
    fn default() -> Self {
        Self {
            sample_every_ms: 100,
            streaming: StreamingSpec::default(),
        }
    }
}

/// The streaming block of an [`ObservabilitySpec`]: how a streamed run's
/// [`StreamSink`] rotates and retains its shard files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct StreamingSpec {
    /// Lines per shard before rotation (0 = never rotate by count).
    pub shard_max_events: usize,
    /// Trace-lane sim-age per shard in simulation milliseconds (0 =
    /// never rotate by age).
    pub rotate_ms: u64,
    /// Newest shards kept per lane; 0 retains everything. Retention
    /// trades the shards-equal-batch-export guarantee for bounded disk.
    pub retain_shards: usize,
}

impl Default for StreamingSpec {
    fn default() -> Self {
        Self {
            shard_max_events: 4096,
            rotate_ms: 0,
            retain_shards: 0,
        }
    }
}

impl StreamingSpec {
    /// The sink-level [`StreamConfig`] this block describes.
    #[must_use]
    pub fn to_config(self) -> StreamConfig {
        StreamConfig {
            shard_max_events: self.shard_max_events,
            rotate_us: self.rotate_ms.saturating_mul(1_000),
            retain_shards: self.retain_shards,
        }
    }
}

/// One tenant in a scenario's `tenants` block: the operator-facing
/// contract ([`Tenant`]) plus the service ids it owns. Service ids refer
/// to the materialized workload (explicit `id`s or array positions for
/// [`Workload::Services`]; `0..n` for the table and demo mixes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant id; `0` is reserved for "untenanted" and rejected.
    pub id: u32,
    /// Display name used in reports, billing rows and gauge columns.
    #[serde(default)]
    pub name: String,
    /// Purchased service tier (reporting/grouping only).
    #[serde(default)]
    pub slo_class: SloClass,
    /// Admission quota across all the tenant's services, req/s; `0`
    /// means unlimited.
    #[serde(default)]
    pub quota_rps: f64,
    /// Weighted-fair spill share weight; non-positive means `1.0`.
    #[serde(default)]
    pub weight: f64,
    /// Billing rate, USD per 1000 requests completed within SLO.
    #[serde(default)]
    pub rate_usd_per_1k: f64,
    /// Service ids this tenant owns.
    #[serde(default)]
    pub services: Vec<u32>,
}

impl TenantSpec {
    /// The runtime [`Tenant`] contract this block describes.
    #[must_use]
    pub fn to_tenant(&self) -> Tenant {
        Tenant {
            id: self.id,
            name: self.name.clone(),
            slo_class: self.slo_class,
            quota_rps: self.quota_rps,
            weight: self.weight,
            usd_per_1k_requests: self.rate_usd_per_1k,
        }
    }
}

/// One spot market in a scenario's `spot_markets` block. In fleet mode
/// the first entry shapes the whole fleet; in region mode entry `r`
/// shapes region `r` (missing entries keep the historical market).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct SpotMarketSpec {
    /// Multiplier on the chaos stream's spot-preemption pressure: `1.0`
    /// reproduces the historical event mix bit-exactly, `0` turns
    /// preemptions and warnings off, `>1` widens their band.
    pub preemption_intensity: f64,
    /// Spot node-hours rent at `on-demand x discount` instead of the
    /// built-in spot multiplier; `None` keeps legacy prices bit-exactly.
    pub discount: Option<f64>,
}

impl Default for SpotMarketSpec {
    fn default() -> Self {
        Self {
            preemption_intensity: 1.0,
            discount: None,
        }
    }
}

impl SpotMarketSpec {
    /// The [`ChaosProfile`] this market describes.
    #[must_use]
    pub fn chaos_profile(&self) -> ChaosProfile {
        ChaosProfile::with_preemption_intensity(self.preemption_intensity)
    }
}

/// Which engine a scenario exercises, with that engine's axes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Mode {
    /// One scheduled deployment served in the DES.
    Serve {
        /// Scheduler name (see `parvactl`'s `--scheduler`); empty means
        /// `parvagpu`.
        #[serde(default)]
        scheduler: String,
        /// GPU catalog slice: profile and schedule on this
        /// [`GpuModel::CATALOG`] entry instead of the built-in A100-80GB
        /// book (e.g. `"H200-141GB"` to give LLMs MIG headroom).
        #[serde(default)]
        gpu: Option<String>,
        /// Per-service ingress split; empty means one local class per
        /// service at its full spec rate.
        #[serde(default)]
        ingress: Vec<ClassSplit>,
        /// Recovery work riding the event queue (dark GPUs, re-flash and
        /// PCIe contention, measured dips).
        #[serde(default)]
        recovery: Option<RecoverySpec>,
    },
    /// A heterogeneous fleet driven through the seeded chaos stream.
    Fleet {
        /// Pool composition.
        fleet: FleetSource,
        /// Disturbed intervals after the baseline.
        intervals: usize,
        /// Fall back to closed-form recovery estimates instead of the
        /// DES-measured path.
        #[serde(default)]
        analytic_recovery: bool,
    },
    /// A multi-region federation under chaos, drills and diurnal demand.
    Region {
        /// Region topology and RTTs.
        federation: FederationSource,
        /// Disturbed intervals after the baseline.
        intervals: usize,
        /// Scripted evacuation + failback; `None` leaves evacuations to
        /// the seeded stream.
        #[serde(default)]
        drill: Option<EvacuationDrill>,
        /// Diurnal demand bounds; `None` uses the federation defaults.
        #[serde(default)]
        diurnal: Option<DiurnalSpec>,
        /// Follow-the-sun cost optimizer: ship overnight demand to the
        /// cheapest SLO-feasible daytime region and report the USD delta
        /// in the federation's billing ledger. `None` keeps the run bit
        /// for bit identical to the pre-optimizer behavior.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        follow_the_sun: Option<parva_region::FollowTheSun>,
    },
}

/// A whole experiment as data. See the module docs and
/// [`crate::scenarios::builtin_specs`] for worked examples; `README.md`
/// documents the JSON schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Registry name (also the `parvactl run` handle).
    pub name: String,
    /// One-line human description.
    #[serde(default)]
    pub description: String,
    /// Master seed: serving sample paths and chaos streams derive from it.
    pub seed: u64,
    /// Serving-window shape (per interval for fleet/region modes).
    pub window: Window,
    /// Arrival-process shape; `None` means Poisson.
    #[serde(default)]
    pub arrivals: Option<ArrivalProcess>,
    /// The service mix.
    pub workload: Workload,
    /// The engine and its axes.
    pub mode: Mode,
    /// Gauge-sampling shape of observed runs (ignored otherwise).
    #[serde(default)]
    pub observability: ObservabilitySpec,
    /// Multi-tenancy: tenant contracts and their service bindings. Empty
    /// means the legacy single-tenant behavior, bit for bit.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub tenants: Vec<TenantSpec>,
    /// Spot markets (fleet: first entry; region: one per region). Empty
    /// keeps the historical chaos mix and prices, bit for bit.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub spot_markets: Vec<SpotMarketSpec>,
    /// Request-lifecycle resilience policy: per-class timeouts, budgeted
    /// retries with backoff, hedged requests, queue-depth load shedding
    /// and health-checked routing, applied inside every serving DES the
    /// scenario runs (all three modes). Absent keeps the request
    /// lifecycle and the report bit-identical to the pre-resilience
    /// behavior.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub resilience: Option<ResilienceSpec>,
    /// Fastpod-style serving pods (see [`parvad::PodSpec`]) admitted at
    /// boot, on top of the workload's services: each pod is validated
    /// (model footprint, quota/SM-cap consistency) and lowered to an
    /// appended `ServiceSpec` with the next free id, in every mode. Empty
    /// keeps specs and reports bit-identical to the pre-pod behavior.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub pods: Vec<parvad::PodSpec>,
}

/// What a scenario run produced, tagged by engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ScenarioReport {
    /// A single serving-DES run.
    Serve(ServingReport),
    /// A fleet chaos run.
    Fleet(FleetReport),
    /// A federation run.
    Region(FederationReport),
}

impl ScenarioReport {
    /// Human-readable summary of the run.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            Self::Serve(r) => {
                let mut out = format!(
                    "serving run: {:.1}s window | compliance {:.2}% | request compliance {:.2}%\n",
                    r.duration_s,
                    r.overall_compliance_rate() * 100.0,
                    r.overall_request_compliance_rate() * 100.0
                );
                for s in &r.services {
                    out.push_str(&format!(
                        "service #{}: served {}/{} req, p99 {:.1} ms, compliance {:.2}%\n",
                        s.service_id,
                        s.completed,
                        s.offered,
                        s.latency.quantile_ms(0.99),
                        s.compliance_rate() * 100.0
                    ));
                }
                if let Some(rec) = &r.recovery {
                    out.push_str(&format!(
                        "recovery: {} dark server(s), measured latency {:.0} ms, \
                         {:.1} GiB copied, {:.1} GiB pre-copied\n",
                        rec.dark_servers, rec.latency_ms, rec.copied_gib, rec.precopied_gib
                    ));
                }
                out
            }
            Self::Fleet(r) => r.render(),
            Self::Region(r) => r.render(),
        }
    }
}

impl ScenarioSpec {
    /// The derived serving configuration (shared by all modes).
    #[must_use]
    pub fn serving_config(&self) -> ServingConfig {
        ServingConfig {
            warmup_s: self.window.warmup_s,
            duration_s: self.window.duration_s,
            drain_s: self.window.drain_s,
            seed: self.seed,
            arrivals: self.arrivals.unwrap_or(ArrivalProcess::Poisson),
        }
    }

    /// Validate shape invariants without running anything.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("spec needs a name".into());
        }
        let w = &self.window;
        if !(w.warmup_s >= 0.0
            && w.duration_s > 0.0
            && w.drain_s >= 0.0
            && w.warmup_s.is_finite()
            && w.duration_s.is_finite()
            && w.drain_s.is_finite())
        {
            return Err(format!(
                "window must be finite with a positive duration (got {w:?})"
            ));
        }
        let services = self.workload.services()?;
        let mut tenant_ids: Vec<u32> = Vec::new();
        let mut owned: Vec<u32> = Vec::new();
        for t in &self.tenants {
            if !t.to_tenant().is_valid() {
                return Err(format!(
                    "tenant {} ({:?}) is invalid: ids must be non-zero and \
                     quota/weight/rate finite and non-negative",
                    t.id, t.name
                ));
            }
            if tenant_ids.contains(&t.id) {
                return Err(format!("duplicate tenant id {}", t.id));
            }
            tenant_ids.push(t.id);
            for sid in &t.services {
                if !services.iter().any(|s| s.id == *sid) {
                    return Err(format!(
                        "tenant {} ({:?}) claims service {sid}, which the workload \
                         does not define",
                        t.id, t.name
                    ));
                }
                if owned.contains(sid) {
                    return Err(format!("service {sid} is claimed by two tenants"));
                }
                owned.push(*sid);
            }
        }
        for (i, m) in self.spot_markets.iter().enumerate() {
            if !(m.preemption_intensity.is_finite() && m.preemption_intensity >= 0.0) {
                return Err(format!(
                    "spot market {i}: preemption_intensity must be finite and >= 0"
                ));
            }
            if let Some(d) = m.discount {
                if !(d.is_finite() && d > 0.0) {
                    return Err(format!(
                        "spot market {i}: discount must be finite and positive"
                    ));
                }
            }
        }
        if let Some(res) = &self.resilience {
            res.validate()?;
        }
        for (i, pod) in self.pods.iter().enumerate() {
            pod.validate()?;
            if self.pods[..i].iter().any(|p| p.name == pod.name) {
                return Err(format!("duplicate pod name {:?}", pod.name));
            }
            if pod.tenant != 0 && !tenant_ids.contains(&pod.tenant) {
                return Err(format!(
                    "pod {:?} names tenant {}, which the spec does not define",
                    pod.name, pod.tenant
                ));
            }
        }
        match &self.mode {
            Mode::Serve {
                scheduler,
                gpu,
                ingress,
                recovery,
            } => {
                if !self.spot_markets.is_empty() {
                    return Err(
                        "spot markets shape fleet/region chaos; serve mode has no fleet".into(),
                    );
                }
                if !crate::cli::scheduler_name_is_known(effective_scheduler(scheduler)) {
                    return Err(format!("unknown scheduler '{scheduler}'"));
                }
                if let Some(name) = gpu {
                    gpu_by_name(name)?;
                }
                // NaN and ±inf must fail too (an infinite rate share would
                // wedge the arrival process), so require the full finite
                // valid range and negate the whole predicate.
                if !ingress
                    .iter()
                    .all(|c| c.share >= 0.0 && c.share.is_finite() && c.network_ms >= 0.0)
                {
                    return Err("ingress splits need finite share >= 0 and network_ms >= 0".into());
                }
                if let Some(r) = recovery {
                    let finite = r.start_ms.is_finite()
                        && r.start_ms >= 0.0
                        && r.control_plane_ms.is_finite()
                        && r.control_plane_ms >= 0.0
                        && r.reflash_ms.is_finite()
                        && r.reflash_ms >= 0.0
                        && r.link_gib_per_s.is_finite()
                        && r.link_gib_per_s > 0.0
                        && r.ops
                            .iter()
                            .all(|o| o.copy_gib.is_finite() && o.copy_gib >= 0.0);
                    if !finite {
                        return Err(
                            "recovery spec needs finite non-negative timings, a positive \
                             link bandwidth and finite non-negative copy volumes"
                                .into(),
                        );
                    }
                }
            }
            Mode::Fleet {
                fleet, intervals, ..
            } => {
                if *intervals == 0 {
                    return Err("fleet scenarios need at least one interval".into());
                }
                if matches!(fleet, FleetSource::Pools(spec) if spec.pools.is_empty()) {
                    return Err("fleet needs at least one pool".into());
                }
                if self.spot_markets.len() > 1 {
                    return Err(format!(
                        "fleet mode has one spot market, got {} entries",
                        self.spot_markets.len()
                    ));
                }
            }
            Mode::Region {
                federation,
                intervals,
                drill,
                diurnal,
                follow_the_sun,
            } => {
                if *intervals == 0 {
                    return Err("region scenarios need at least one interval".into());
                }
                if let Some(fts) = follow_the_sun {
                    fts.validate()?;
                }
                if self.spot_markets.len() > federation.region_count() {
                    return Err(format!(
                        "{} spot markets for {} region(s)",
                        self.spot_markets.len(),
                        federation.region_count()
                    ));
                }
                if let FederationSource::Custom(fed) = federation {
                    fed.validate()?;
                }
                if let Some(d) = drill {
                    if d.failback_at <= d.evacuate_at {
                        return Err(format!(
                            "drill failback (interval {}) must come after the evacuation \
                             (interval {})",
                            d.failback_at, d.evacuate_at
                        ));
                    }
                    // Federation intervals are numbered 1..=intervals, so
                    // anything at 0 or past the end silently never fires.
                    if d.evacuate_at < 1 || d.evacuate_at > *intervals || d.failback_at > *intervals
                    {
                        return Err(format!(
                            "drill (evacuate at {}, failback at {}) lands outside the \
                             run's intervals 1..={} and would silently never fire",
                            d.evacuate_at, d.failback_at, intervals
                        ));
                    }
                    if d.region >= federation.region_count() {
                        return Err(format!(
                            "drill region {} does not exist (topology has {} region(s))",
                            d.region,
                            federation.region_count()
                        ));
                    }
                }
                if let Some(d) = diurnal {
                    if !(d.low > 0.0 && d.high >= d.low && d.hours_per_interval > 0.0) {
                        return Err(format!("invalid diurnal bounds {d:?}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// A CI-scale copy: shrunken serving windows, capped fleet intervals,
    /// same seeds — still fully deterministic, just cheap.
    #[must_use]
    pub fn quick(&self) -> Self {
        let mut spec = self.clone();
        spec.window.warmup_s = spec.window.warmup_s.min(0.5);
        spec.window.duration_s = spec.window.duration_s.min(2.0);
        spec.window.drain_s = spec.window.drain_s.min(0.5);
        if let Mode::Fleet { intervals, .. } = &mut spec.mode {
            *intervals = (*intervals).min(4);
        }
        spec
    }

    /// Run the scenario end to end.
    ///
    /// Deterministic: the same spec always produces the identical report
    /// (and identical JSON).
    ///
    /// # Errors
    /// Validation failures, scheduling failures, and fleet/region
    /// exhaustion, as display strings.
    pub fn run(&self) -> Result<ScenarioReport, String> {
        self.dispatch_sink(&mut NullSink, false)
            .map(|(report, _)| report)
    }

    /// The stable run identifier stamped onto the gauge rows of observed
    /// and streamed runs (`name@seed`), keeping concatenated multi-run
    /// metrics streams attributable.
    #[must_use]
    pub fn run_id(&self) -> String {
        format!("{}@{}", self.name, self.seed)
    }

    /// Run the scenario under a recording observer: the identical report
    /// (observation is property-tested behavior-neutral), plus a
    /// [`Recorder`] holding the engine's trace spans, the gauge rows
    /// sampled on the spec's [`ObservabilitySpec`] grid, and the
    /// orchestrator self-profile. The trace and metrics artifacts are
    /// deterministic — byte-identical across runs of the same spec; the
    /// profile reads host clocks and is exported separately.
    ///
    /// # Errors
    /// Same failures as [`ScenarioSpec::run`].
    pub fn run_observed(&self) -> Result<(ScenarioReport, Recorder), String> {
        let mut rec = Recorder::new(self.observability.sample_every_ms.saturating_mul(1_000))
            .with_run_id(self.run_id());
        let (report, profile) = self.dispatch_sink(&mut rec, true)?;
        if let Some(p) = profile {
            rec.profile.absorb(&p);
        }
        Ok((report, rec))
    }

    /// Run the scenario with a streaming observer: spans and gauge rows
    /// are rendered to their canonical JSON lines as they land and
    /// retired to rotating shard files under `dir` (see
    /// [`StreamSink`]), per the spec's [`StreamingSpec`] policy. The
    /// report is identical to [`ScenarioSpec::run`]; with retention off,
    /// the concatenated shards are byte-equivalent to the batch
    /// [`Recorder`] export of the same spec.
    ///
    /// # Errors
    /// Validation/engine failures plus shard-directory I/O failures.
    pub fn run_streamed(
        &self,
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(ScenarioReport, StreamStats), String> {
        let mut sink = StreamSink::create(
            dir,
            self.observability.sample_every_ms.saturating_mul(1_000),
            self.observability.streaming.to_config(),
        )
        .map_err(|e| format!("cannot open stream directory: {e}"))?
        .with_run_id(self.run_id());
        let (report, _) = self.dispatch_sink(&mut sink, false)?;
        let stats = sink.finish()?;
        Ok((report, stats))
    }

    /// Run the scenario under an arbitrary [`TraceSink`] — the one
    /// engine behind [`run`](Self::run) (null sink),
    /// [`run_observed`](Self::run_observed) (recorder) and
    /// [`run_streamed`](Self::run_streamed) (stream sink). Fleet and
    /// region modes return their orchestrator self-profile when
    /// `profile` is set; serve mode has none (its spans live in the
    /// trace itself).
    fn dispatch_sink<S: TraceSink>(
        &self,
        sink: &mut S,
        profile: bool,
    ) -> Result<(ScenarioReport, Option<SelfProfiler>), String> {
        self.validate()?;
        let mut services = self.workload.services()?;
        // Lower boot pods onto the tail of the catalogue: next free ids,
        // tenants taken from the pod annotations themselves.
        let next_id = services.iter().map(|s| s.id + 1).max().unwrap_or(0);
        for (offset, pod) in self.pods.iter().enumerate() {
            services.push(pod.to_service_spec(next_id + offset as u32)?);
        }
        // Bind each service to its owning tenant (validated above), and
        // materialize the runtime tenant contracts.
        for t in &self.tenants {
            for s in services.iter_mut().filter(|s| t.services.contains(&s.id)) {
                s.tenant = t.id;
            }
        }
        let tenants: Vec<Tenant> = self.tenants.iter().map(TenantSpec::to_tenant).collect();
        let serving = self.serving_config();
        match &self.mode {
            Mode::Serve {
                scheduler,
                gpu,
                ingress,
                recovery,
            } => {
                let book = match gpu {
                    Some(name) => {
                        let gpu = gpu_by_name(name)?;
                        let mut models: Vec<Model> = Vec::new();
                        for s in &services {
                            if !models.contains(&s.model) {
                                models.push(s.model);
                            }
                        }
                        ProfileBook::measure_on(
                            &models,
                            &crate::profile::SweepGrid::paper_default(),
                            gpu,
                        )
                    }
                    None => ProfileBook::builtin(),
                };
                let sched = crate::cli::make_scheduler(effective_scheduler(scheduler), &book)?;
                let deployment = sched.schedule(&services).map_err(|e| e.to_string())?;
                let classes: Vec<Vec<IngressClass>> = if ingress.is_empty() {
                    Vec::new()
                } else {
                    services
                        .iter()
                        .map(|s| {
                            ingress
                                .iter()
                                .map(|c| IngressClass {
                                    rate_rps: s.request_rate_rps * c.share,
                                    network_ms: c.network_ms,
                                })
                                .collect()
                        })
                        .collect()
                };
                let sim = Simulation::new(&deployment, &services)
                    .tenants(&tenants)
                    .ingress(&classes)
                    .recovery_opt(recovery.as_ref())
                    .resilience_opt(self.resilience.as_ref())
                    .config(&serving);
                let report = sim.run_with(sink);
                Ok((ScenarioReport::Serve(report), None))
            }
            Mode::Fleet {
                fleet,
                intervals,
                analytic_recovery,
            } => {
                let book = ProfileBook::builtin();
                let market = self.spot_markets.first();
                let config = FleetConfig {
                    seed: self.seed,
                    intervals: (*intervals).max(1),
                    serving,
                    des_recovery: !analytic_recovery,
                    tenants,
                    chaos: market.map_or_else(ChaosProfile::default, SpotMarketSpec::chaos_profile),
                    spot_discount: market.and_then(|m| m.discount),
                    resilience: self.resilience,
                    ..FleetConfig::default()
                };
                let fleet_spec = fleet.resolve();
                let (report, prof) = parva_fleet::run_chaos_sink(
                    &book,
                    &services,
                    &fleet_spec,
                    &config,
                    sink,
                    profile,
                )
                .map_err(|e| e.to_string())?;
                Ok((ScenarioReport::Fleet(report), profile.then_some(prof)))
            }
            Mode::Region {
                federation,
                intervals,
                drill,
                diurnal,
                follow_the_sun,
            } => {
                let book = ProfileBook::builtin();
                let mut config = FederationConfig {
                    seed: self.seed,
                    intervals: (*intervals).max(1),
                    serving,
                    drill: *drill,
                    follow_the_sun: *follow_the_sun,
                    tenants,
                    region_chaos: self
                        .spot_markets
                        .iter()
                        .map(SpotMarketSpec::chaos_profile)
                        .collect(),
                    spot_discounts: self.spot_markets.iter().map(|m| m.discount).collect(),
                    resilience: self.resilience,
                    ..FederationConfig::default()
                };
                if let Some(d) = diurnal {
                    config.diurnal_low = d.low;
                    config.diurnal_high = d.high;
                    config.hours_per_interval = d.hours_per_interval;
                }
                let topology = federation.resolve();
                let (report, prof) = parva_region::run_federation_sink(
                    &book, &services, &topology, &config, sink, profile,
                )
                .map_err(|e| e.to_string())?;
                Ok((ScenarioReport::Region(report), profile.then_some(prof)))
            }
        }
    }
}

/// Empty scheduler names mean the default ParvaGPU scheduler.
fn effective_scheduler(name: &str) -> &str {
    if name.is_empty() {
        "parvagpu"
    } else {
        name
    }
}

/// Look a GPU up in [`GpuModel::CATALOG`] by (case-insensitive) name.
fn gpu_by_name(name: &str) -> Result<GpuModel, String> {
    GpuModel::CATALOG
        .iter()
        .copied()
        .find(|g| g.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!(
                "unknown GPU '{name}' (catalog: {})",
                GpuModel::CATALOG
                    .iter()
                    .map(|g| g.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

/// Convenience RTT builder for hand-written federation specs.
#[must_use]
pub(crate) fn rtt_upper(regions: usize, upper: &[f64]) -> RttMatrix {
    RttMatrix::from_upper(regions, upper)
}
