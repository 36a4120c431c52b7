//! The federation control loop: one fleet orchestrator per region, a
//! geo-aware router between them, and region-scale chaos on top.
//!
//! Every interval the federation:
//!
//! 1. computes each region's offered demand (global service rates ×
//!    demand share × the region's sun-phased diurnal multiplier),
//! 2. injects one [`RegionEvent`] — a region-local fleet disturbance, a
//!    region evacuation (every node drains), or a failback,
//! 3. routes demand with [`crate::router`]: live regions serve locally,
//!    evacuated regions' demand spills cross-region with the RTT charged
//!    against the SLO,
//! 4. retargets every live region's fleet to its routed demand through
//!    the §III-F incremental path ([`FleetOrchestrator::retarget`]) —
//!    this is where evacuated services are re-placed in surviving
//!    regions; a region that cannot host its plan is rebalanced (its
//!    excess re-spills) or, after a capacity event, forced into failover,
//! 5. serves each region's routed load in the DES simulator with
//!    per-flow RTT ingress classes ([`parva_serve::Simulation::ingress`]),
//! 6. prices each region's surviving fleet at regional prices.

use crate::event::{next_region_event_with, RegionEvent};
use crate::report::{FederationReport, IntervalOutcome, RegionOutcome};
use crate::router::{
    inbound, route_demand_fair, route_from_fair, Demand, Flow, SPILL_MAX_SLO_FRACTION,
};
use crate::spec::FederationSpec;
use parva_cluster::{BillingReport, BillingRow, FollowTheSunRow};
use parva_deploy::{tenant_of, ServiceSpec, Tenant};
use parva_des::RngStream;
use parva_fleet::{
    emit_billing_gauges, ChaosProfile, FleetError, FleetOrchestrator, FleetPacking, RecoveryOutcome,
};
use parva_obs::{Row, SelfProfiler, TraceEvent, TraceSink, PID_REGION};
use parva_profile::ProfileBook;
use parva_scenarios::diurnal_multiplier;
use parva_serve::{
    IngressClass, RecoveryOp, RecoverySpec, ResilienceSpec, ServingConfig, ServingReport,
    Simulation,
};
use serde::{Deserialize, Serialize};

/// A scripted evacuation + failback exercise overlaid on the seeded
/// chaos stream — the deterministic scenario behind `parvactl region`.
/// Serde-visible so declarative scenario specs can script drills.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvacuationDrill {
    /// Region to drain.
    pub region: usize,
    /// Interval at which the evacuation fires.
    pub evacuate_at: usize,
    /// Interval at which the region fails back (must be later).
    pub failback_at: usize,
}

/// The follow-the-sun cost optimizer: instead of every region serving
/// its local trough, a region whose diurnal multiplier has dropped to
/// its overnight floor ships most of its demand to the **cheapest
/// SLO-feasible** daytime region (per service — a tight SLO that cannot
/// cross the ocean stays home). The parked region's fleet then shrinks
/// through the normal §III-F retarget, releasing whole nodes, while the
/// destination absorbs the trickle into capacity it is already renting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FollowTheSun {
    /// Diurnal multiplier at or below which a region counts as overnight
    /// and becomes a shift source (compare against the configured
    /// `diurnal_low`/`diurnal_high` band).
    pub night_threshold: f64,
    /// Fraction of an overnight region's demand shifted away, in (0, 1).
    /// A residual share must stay local: the §III-F incremental path
    /// updates services in place and cannot drop one to a zero rate, so
    /// full parking would leave the old allocation standing.
    pub shift_fraction: f64,
}

impl Default for FollowTheSun {
    fn default() -> Self {
        Self {
            night_threshold: 0.8,
            shift_fraction: 0.9,
        }
    }
}

impl FollowTheSun {
    /// Validate the optimizer parameters.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.night_threshold > 0.0 && self.night_threshold.is_finite()) {
            return Err(format!(
                "follow-the-sun night_threshold must be positive finite (got {})",
                self.night_threshold
            ));
        }
        if !(self.shift_fraction > 0.0 && self.shift_fraction < 1.0) {
            return Err(format!(
                "follow-the-sun shift_fraction must be in (0, 1) — a residual \
                 share must stay local to anchor the incremental retarget \
                 (got {})",
                self.shift_fraction
            ));
        }
        Ok(())
    }
}

/// Federation-run parameters.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Master seed: the event stream and every serving window derive from
    /// it.
    pub seed: u64,
    /// Number of disturbed intervals after the baseline.
    pub intervals: usize,
    /// Serving-window shape of each interval.
    pub serving: ServingConfig,
    /// Per-recovery replacement-node budget of each region's fleet.
    pub max_replacements_per_event: usize,
    /// Wall-clock hours the federation clock advances per interval (the
    /// diurnal curve is 24 h long).
    pub hours_per_interval: f64,
    /// Diurnal demand trough multiplier.
    pub diurnal_low: f64,
    /// Diurnal demand peak multiplier.
    pub diurnal_high: f64,
    /// Optional scripted evacuation exercise; `None` leaves evacuations
    /// to the seeded stream.
    pub drill: Option<EvacuationDrill>,
    /// Tenants sharing the federation. Empty = single-tenant legacy mode:
    /// routing, serving and the report are bit-identical to the pre-tenant
    /// code paths. Non-empty activates per-tenant admission quotas in
    /// every region's serving DES, tenant-weighted-fair spill routing,
    /// headroom-aware spill destination weights and the per-interval
    /// billing rollup.
    pub tenants: Vec<Tenant>,
    /// Per-region chaos shaping profiles for region-local fleet events
    /// (index = region; e.g. a region's spot-market preemption intensity).
    /// Empty — or any region beyond the slice — uses
    /// [`ChaosProfile::default`], the legacy stream.
    pub region_chaos: Vec<ChaosProfile>,
    /// Per-region spot-market discount overrides applied when pricing each
    /// region's surviving fleet (index = region; `None` keeps the builtin
    /// spot multiplier). Empty = no overrides anywhere.
    pub spot_discounts: Vec<Option<f64>>,
    /// Request-lifecycle resilience policy applied inside every region's
    /// serving DES (timeouts, budgeted retries, hedging, shedding,
    /// health-checked routing). `None` keeps the serving path and report
    /// bit-identical to the pre-resilience code.
    pub resilience: Option<ResilienceSpec>,
    /// The follow-the-sun cost optimizer. `None` keeps routing, serving
    /// and the report bit-identical to the pre-optimizer behavior.
    pub follow_the_sun: Option<FollowTheSun>,
}

impl FederationConfig {
    /// Validate the run parameters: positive finite diurnal bounds with
    /// `low <= high`, a positive finite interval clock, and a drill whose
    /// failback strictly follows its evacuation.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.diurnal_low > 0.0
            && self.diurnal_high >= self.diurnal_low
            && self.diurnal_high.is_finite())
        {
            return Err(format!(
                "diurnal bounds need 0 < low <= high (got {} .. {})",
                self.diurnal_low, self.diurnal_high
            ));
        }
        if !(self.hours_per_interval > 0.0 && self.hours_per_interval.is_finite()) {
            return Err(format!(
                "hours_per_interval must be positive finite (got {})",
                self.hours_per_interval
            ));
        }
        if let Some(drill) = &self.drill {
            if drill.failback_at <= drill.evacuate_at {
                return Err(format!(
                    "drill failback (interval {}) must come after the evacuation (interval {})",
                    drill.failback_at, drill.evacuate_at
                ));
            }
        }
        for t in &self.tenants {
            if !t.is_valid() {
                return Err(format!(
                    "tenant {} ({:?}) is invalid: ids must be non-zero and economics finite",
                    t.id, t.name
                ));
            }
        }
        let mut ids: Vec<u32> = self.tenants.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.tenants.len() {
            return Err("duplicate tenant ids".into());
        }
        if let Some(res) = &self.resilience {
            res.validate()?;
        }
        if let Some(fts) = &self.follow_the_sun {
            fts.validate()?;
        }
        Ok(())
    }
}

impl Default for FederationConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            intervals: 8,
            serving: ServingConfig {
                warmup_s: 0.5,
                duration_s: 3.0,
                drain_s: 1.0,
                ..ServingConfig::default()
            },
            max_replacements_per_event: parva_fleet::DEFAULT_MAX_REPLACEMENTS,
            hours_per_interval: 3.0,
            diurnal_low: 0.7,
            diurnal_high: 1.2,
            drill: Some(EvacuationDrill {
                region: 0,
                evacuate_at: 3,
                failback_at: 6,
            }),
            tenants: Vec::new(),
            region_chaos: Vec::new(),
            spot_discounts: Vec::new(),
            resilience: None,
            follow_the_sun: None,
        }
    }
}

/// Why a federation run aborted.
#[derive(Debug)]
pub enum FederationError {
    /// The topology failed validation.
    Spec(String),
    /// A region could not host its share of the baseline demand.
    Bootstrap {
        /// The failing region.
        region: usize,
        /// The underlying fleet failure.
        source: FleetError,
    },
    /// A failing-back region could not re-host its local demand.
    Failback {
        /// The failing region.
        region: usize,
        /// The underlying fleet failure.
        source: FleetError,
    },
}

impl std::fmt::Display for FederationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Spec(msg) => write!(f, "invalid federation spec: {msg}"),
            Self::Bootstrap { region, source } => {
                write!(f, "region {region} failed bootstrap: {source}")
            }
            Self::Failback { region, source } => {
                write!(f, "region {region} failed failback: {source}")
            }
        }
    }
}

impl std::error::Error for FederationError {}

/// One region's live state.
struct RegionState {
    /// `Some` while the region's fleet serves; `None` while evacuated.
    orchestrator: Option<FleetOrchestrator>,
    /// The region's local demand multiplier from the last
    /// [`parva_fleet::FleetEvent::LoadShift`] (1.0 = nominal).
    demand_factor: f64,
}

/// The living federation: per-region fleet orchestrators plus the glue.
pub struct Federation {
    spec: FederationSpec,
    book: ProfileBook,
    base_services: Vec<ServiceSpec>,
    regions: Vec<RegionState>,
    config: FederationConfig,
    /// Self-profiling spans around the interval phases (event-apply,
    /// route, retarget, measure). Disabled by default; host-clock
    /// readings, so excluded from the determinism guarantees.
    profiler: SelfProfiler,
}

/// Sum flow rates, collapsing the `-0.0` that `f64`'s empty-iterator
/// `Sum` identity produces (it renders as `-0` in reports).
fn sum_rates<'a>(flows: impl Iterator<Item = &'a Flow>) -> f64 {
    flows.map(|f| f.rate_rps).sum::<f64>() + 0.0
}

/// What one region did during an interval's recovery phase.
#[derive(Default, Clone)]
struct RecoveryRow {
    displaced: usize,
    reconfigured: usize,
    migrated: usize,
    replacements: usize,
    /// Recovery ops accumulated across the interval's retargets, lowered
    /// for the serving DES. Ops from an earlier retarget reference the
    /// deployment as it stood then; the darkening is by logical GPU, so a
    /// later `compact()` can shift which servers a stale op hits — an
    /// accepted approximation (the *amount* of dark capacity is right).
    ops: Vec<RecoveryOp>,
}

impl RecoveryRow {
    /// Fold one recovery outcome in. `prepared` marks its ops pre-staged:
    /// *planned* reconfiguration (diurnal retargets, announced
    /// evacuations) is bridged by §III-F shadow processes / cross-region
    /// pre-copy and pays only the control-plane delay live; unannounced
    /// capacity loss pays its full re-flash + weight-copy window.
    fn absorb(&mut self, o: &RecoveryOutcome, prepared: bool) {
        self.displaced += o.displaced_segments;
        self.reconfigured += o.reconfigured_gpus;
        self.migrated += o.migration.migrated_segments;
        self.replacements += o.replacement_nodes;
        self.ops
            .extend(o.migration.ops.iter().cloned().map(|mut op| {
                op.prepared = prepared;
                op
            }));
    }

    /// Lower the row into a DES recovery spec starting at the window
    /// start; `None` when the interval required no physical work.
    fn to_spec(&self, serving: &ServingConfig) -> Option<RecoverySpec> {
        if self.ops.is_empty() {
            return None;
        }
        Some(RecoverySpec::from_ops(
            self.ops.clone(),
            serving.warmup_s * 1_000.0,
        ))
    }
}

impl Federation {
    /// Plan every region's share of the baseline demand and anchor it on
    /// its fleet.
    ///
    /// # Errors
    /// [`FederationError::Spec`] for invalid topologies or run
    /// parameters, [`FederationError::Bootstrap`] when a region cannot
    /// host its share.
    pub fn bootstrap(
        book: &ProfileBook,
        services: &[ServiceSpec],
        spec: &FederationSpec,
        config: &FederationConfig,
    ) -> Result<Self, FederationError> {
        spec.validate().map_err(FederationError::Spec)?;
        config
            .validate()
            .map_err(|msg| FederationError::Spec(format!("config: {msg}")))?;
        let mut regions = Vec::with_capacity(spec.regions.len());
        let mut fed = Self {
            spec: spec.clone(),
            book: book.clone(),
            base_services: services.to_vec(),
            regions: Vec::new(),
            config: config.clone(),
            profiler: SelfProfiler::disabled(),
        };
        for (r, rs) in spec.regions.iter().enumerate() {
            let local = fed.local_demand(r, 0, 1.0);
            let orchestrator = FleetOrchestrator::bootstrap(book, &local, &rs.fleet)
                .map_err(|source| FederationError::Bootstrap { region: r, source })?
                .with_max_replacements(config.max_replacements_per_event);
            regions.push(RegionState {
                orchestrator: Some(orchestrator),
                demand_factor: 1.0,
            });
        }
        fed.regions = regions;
        Ok(fed)
    }

    /// Record self-profiling spans (wall/CPU clocks plus scope-safe DES
    /// counter deltas) around each [`Federation::step`] phase. Off by
    /// default: profiling reads host clocks.
    pub fn enable_profiling(&mut self) {
        self.profiler = SelfProfiler::enabled();
    }

    /// The phase profile collected so far (empty unless
    /// [`Federation::enable_profiling`] was called).
    #[must_use]
    pub fn profiler(&self) -> &SelfProfiler {
        &self.profiler
    }

    /// Region `r`'s sun-phased diurnal multiplier at `interval`.
    fn diurnal_of(&self, r: usize, interval: usize) -> f64 {
        let hour = interval as f64 * self.config.hours_per_interval;
        diurnal_multiplier(
            hour,
            self.config.diurnal_low,
            self.config.diurnal_high,
            self.spec.regions[r].diurnal_phase_hours,
        )
    }

    /// Region `r`'s local per-service demand at `interval`, scaled by
    /// `factor` (the region's load-shift state).
    fn local_demand(&self, r: usize, interval: usize, factor: f64) -> Vec<ServiceSpec> {
        let m = self.diurnal_of(r, interval);
        self.base_services
            .iter()
            .map(|s| {
                ServiceSpec::new(
                    s.id,
                    s.model,
                    s.request_rate_rps * self.spec.regions[r].demand_share * m * factor,
                    s.slo.latency_ms,
                )
                .with_tenant(s.tenant)
            })
            .collect()
    }

    /// Is region `r` currently serving?
    #[must_use]
    pub fn is_active(&self, r: usize) -> bool {
        self.regions[r].orchestrator.is_some()
    }

    /// Number of regions.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Per-region offered demand at `interval`.
    fn offered_at(&self, interval: usize) -> Vec<Vec<Demand>> {
        (0..self.regions.len())
            .map(|r| {
                self.local_demand(r, interval, self.regions[r].demand_factor)
                    .iter()
                    .map(|s| Demand {
                        service: s.id,
                        rate_rps: s.request_rate_rps,
                        slo_ms: s.slo.latency_ms,
                        tenant: s.tenant,
                    })
                    .collect()
            })
            .collect()
    }

    /// Capacity weight of each region for spill routing. Legacy mode (no
    /// tenants) weighs by alive GPUs; tenanted runs use capacity-aware
    /// spill admission — each destination is weighed by the headroom a
    /// spill burst could actually claim ([`FleetOrchestrator::spill_headroom`]:
    /// free alive slots plus the replacement budget), falling back to the
    /// alive-GPU weights when every region is fully packed so spill
    /// remains possible (honest overload beats dropped traffic).
    fn capacity_weights(&self) -> Vec<f64> {
        if !self.config.tenants.is_empty() {
            let headroom: Vec<f64> = self
                .regions
                .iter()
                .map(|r| {
                    r.orchestrator
                        .as_ref()
                        .map_or(0.0, FleetOrchestrator::spill_headroom)
                })
                .collect();
            if headroom.iter().any(|&w| w > 0.0) {
                return headroom;
            }
        }
        self.regions
            .iter()
            .map(|r| {
                r.orchestrator
                    .as_ref()
                    .map_or(0.0, |o| o.fleet().alive_slots().len() as f64)
            })
            .collect()
    }

    fn active_mask(&self) -> Vec<bool> {
        self.regions
            .iter()
            .map(|r| r.orchestrator.is_some())
            .collect()
    }

    /// Apply the follow-the-sun shift to a routed flow set: every local
    /// flow of an overnight region moves `shift_fraction` of its rate to
    /// the cheapest SLO-feasible daytime region (chosen per service — a
    /// tight SLO that cannot cross the ocean stays home). Returns the
    /// total shifted rate, req/s. No-op without the optimizer configured.
    fn apply_follow_the_sun(&self, interval: usize, flows: &mut Vec<Flow>) -> f64 {
        let Some(fts) = self.config.follow_the_sun else {
            return 0.0;
        };
        let night: Vec<bool> = (0..self.regions.len())
            .map(|r| self.is_active(r) && self.diurnal_of(r, interval) <= fts.night_threshold)
            .collect();
        let mut shifted = 0.0;
        let mut moved: Vec<Flow> = Vec::new();
        for f in flows.iter_mut() {
            if f.src != f.dst || !night[f.src] || f.rate_rps <= 0.0 {
                continue;
            }
            let slo = self.slo_of(f.service);
            let dst = (0..self.regions.len())
                .filter(|&d| d != f.src && self.is_active(d) && !night[d])
                .filter(|&d| self.spec.rtt.rtt_ms(f.src, d) <= slo * SPILL_MAX_SLO_FRACTION)
                .min_by(|&a, &b| {
                    self.spec.regions[a]
                        .pricing_multiplier
                        .partial_cmp(&self.spec.regions[b].pricing_multiplier)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            let Some(d) = dst else { continue };
            let rate = f.rate_rps * fts.shift_fraction;
            f.rate_rps -= rate;
            shifted += rate;
            moved.push(Flow {
                src: f.src,
                dst: d,
                service: f.service,
                rate_rps: rate,
                rtt_ms: self.spec.rtt.rtt_ms(f.src, d),
                tenant: f.tenant,
            });
        }
        flows.extend(moved);
        shifted
    }

    /// Price the federation as it would stand had this interval's
    /// follow-the-sun shift not happened: each live region's orchestrator
    /// is cloned, retargeted to its *unshifted* routed demand through the
    /// same §III-F path, and the resulting node packings are priced at
    /// regional prices. Serving is not re-simulated — the counterfactual
    /// is a pricing question, not a latency one. A scratch copy whose
    /// retarget fails keeps its actual deployment, under-counting the
    /// saving rather than inventing one.
    fn unshifted_usd_per_hour(&self, interval: usize, flows: &[Flow]) -> f64 {
        let mut total = 0.0;
        for (d, state) in self.regions.iter().enumerate() {
            let Some(orchestrator) = state.orchestrator.as_ref() else {
                continue;
            };
            let mut scratch = orchestrator.clone();
            let targets = self.targets_for(d, flows);
            if !targets.is_empty() {
                let _ = scratch.retarget(interval, &targets);
            }
            total += FleetPacking::derive_priced(
                scratch.deployment(),
                scratch.placement(),
                scratch.fleet(),
                self.spec.regions[d].pricing_multiplier,
                self.config.spot_discounts.get(d).copied().flatten(),
            )
            .usd_per_hour;
        }
        total
    }

    /// Drive one interval end-to-end. Interval numbers start at 1; the
    /// undisturbed interval 0 is produced by `Federation::baseline`.
    ///
    /// # Errors
    /// [`FederationError::Failback`] when a returning region cannot host
    /// its local demand even with the replacement budget.
    pub fn step(
        &mut self,
        interval: usize,
        event: RegionEvent,
    ) -> Result<IntervalOutcome, FederationError> {
        self.step_billed(interval, event)
            .map(|(outcome, _, _)| outcome)
    }

    /// [`Federation::step`] plus the interval's per-tenant billing rows
    /// (empty when the run has no tenants configured) and its
    /// follow-the-sun ledger entry (`None` when nothing shifted).
    ///
    /// # Errors
    /// [`FederationError::Failback`] when a returning region cannot host
    /// its local demand even with the replacement budget.
    fn step_billed(
        &mut self,
        interval: usize,
        event: RegionEvent,
    ) -> Result<(IntervalOutcome, Vec<BillingRow>, Option<FollowTheSunRow>), FederationError> {
        let mut recovery: Vec<RecoveryRow> = vec![RecoveryRow::default(); self.regions.len()];
        let mut forced_failovers: Vec<usize> = Vec::new();

        // 1. The event.
        let tok = self.profiler.begin("event-apply", "region");
        match &event {
            RegionEvent::Evacuation { region } => {
                if let Some(orchestrator) = self.regions[*region].orchestrator.as_mut() {
                    // An evacuation is announced, not sprung: the notice
                    // triggers cross-region weight pre-copy into the
                    // regions the geo router will spill to, so the
                    // survivors' retargets below absorb as *prepared* ops
                    // and pay only the control-plane delay live.
                    recovery[*region].displaced = orchestrator.evacuate();
                    self.regions[*region].orchestrator = None;
                }
            }
            RegionEvent::Failback { region } => {
                if self.regions[*region].orchestrator.is_none() {
                    let local =
                        self.local_demand(*region, interval, self.regions[*region].demand_factor);
                    let orchestrator = FleetOrchestrator::bootstrap(
                        &self.book,
                        &local,
                        &self.spec.regions[*region].fleet,
                    )
                    .map_err(|source| FederationError::Failback {
                        region: *region,
                        source,
                    })?
                    .with_max_replacements(self.config.max_replacements_per_event);
                    self.regions[*region].orchestrator = Some(orchestrator);
                }
            }
            RegionEvent::Local { region, event } => {
                if let Some(orchestrator) = self.regions[*region].orchestrator.as_mut() {
                    if let parva_fleet::FleetEvent::LoadShift { multiplier } = event {
                        // Demand, not capacity: the shift flows into this
                        // interval's offered load and the retarget below.
                        self.regions[*region].demand_factor = *multiplier;
                    } else {
                        // A two-minute warning pre-stages this region's
                        // recovery (weights + layouts) before the node
                        // dies; unannounced losses pay the full window.
                        let warned =
                            matches!(event, parva_fleet::FleetEvent::PreemptionWarning { .. });
                        match orchestrator.apply_capacity_event(interval, event) {
                            Ok(outcome) => recovery[*region].absorb(&outcome, warned),
                            Err(_) => {
                                // The fleet can no longer host its plan:
                                // cross-region failover.
                                recovery[*region].displaced += self.regions[*region]
                                    .orchestrator
                                    .as_mut()
                                    .map_or(0, |o| o.evacuate());
                                self.regions[*region].orchestrator = None;
                                forced_failovers.push(*region);
                            }
                        }
                    }
                }
            }
            RegionEvent::Quiet => {}
        }

        self.profiler.end(tok);
        let tok = self.profiler.begin("route", "region");

        // 2. Route demand across the surviving topology (tenant-weighted-
        //    fair when tenants are configured, the legacy geo split
        //    otherwise).
        let offered = self.offered_at(interval);
        let mut flows = route_demand_fair(
            &offered,
            &self.active_mask(),
            &self.capacity_weights(),
            &self.spec.rtt,
            &self.config.tenants,
        );

        // 2b. Follow the sun: overnight regions ship most of their local
        //     demand to the cheapest SLO-feasible daytime region before
        //     anyone retargets, so the parked fleets shrink through the
        //     normal incremental path below.
        let unshifted_flows = self.config.follow_the_sun.map(|_| flows.clone());
        let shifted_rps = self.apply_follow_the_sun(interval, &mut flows);

        self.profiler.end(tok);
        let tok = self.profiler.begin("retarget", "region");

        // 3. Retarget every live region to its routed demand through the
        //    §III-F incremental path; overloaded regions rebalance. A
        //    region retargeted during a peer's rebalance round is not
        //    retargeted again with identical targets.
        //    Retarget migrations are *planned* work — diurnal drift, or an
        //    announced evacuation whose notice pre-copied weights along
        //    the router's spill weights — so their ops absorb as prepared
        //    (§III-F shadows). The exception is an interval with a forced
        //    failover: that collapse was unannounced, and the survivors'
        //    re-placement pays its full re-flash + copy window.
        let retarget_prepared = forced_failovers.is_empty();
        let mut retargeted = vec![false; self.regions.len()];
        for d in 0..self.regions.len() {
            if self.regions[d].orchestrator.is_none() || retargeted[d] {
                continue;
            }
            let targets = self.targets_for(d, &flows);
            if targets.is_empty() {
                continue;
            }
            let result = {
                let orchestrator = self.regions[d].orchestrator.as_mut().expect("active");
                orchestrator.retarget(interval, &targets)
            };
            retargeted[d] = true;
            match result {
                Ok(outcome) => recovery[d].absorb(&outcome, retarget_prepared),
                Err(_) => {
                    // The region keeps serving its previous plan; the
                    // excess re-spills to its peers (one rebalance round).
                    let orchestrator = self.regions[d].orchestrator.as_ref().expect("active");
                    let excess: Vec<Demand> = targets
                        .iter()
                        .map(|t| Demand {
                            service: t.id,
                            rate_rps: (t.request_rate_rps
                                - orchestrator.deployment().capacity_of(t.id))
                            .max(0.0),
                            slo_ms: t.slo.latency_ms,
                            tenant: t.tenant,
                        })
                        .filter(|e| e.rate_rps > 0.0)
                        .collect();
                    if excess.is_empty() {
                        continue;
                    }
                    // Shrink the inbound flows of `d` proportionally so
                    // flow accounting matches what `d` will actually hold,
                    // remembering how much of each *true source*'s traffic
                    // was turned away.
                    let mut removed: std::collections::BTreeMap<(usize, u32), f64> =
                        std::collections::BTreeMap::new();
                    for e in &excess {
                        let total: f64 = flows
                            .iter()
                            .filter(|f| f.dst == d && f.service == e.service)
                            .map(|f| f.rate_rps)
                            .sum();
                        if total <= 0.0 {
                            continue;
                        }
                        let keep = 1.0 - (e.rate_rps / total).min(1.0);
                        for f in flows
                            .iter_mut()
                            .filter(|f| f.dst == d && f.service == e.service)
                        {
                            *removed.entry((f.src, f.service)).or_insert(0.0) +=
                                f.rate_rps * (1.0 - keep);
                            f.rate_rps *= keep;
                        }
                    }
                    // Re-spill each turned-away share from its true
                    // origin, so the SLO feasibility filter and the RTT
                    // charge follow the users (not the overloaded
                    // middlebox). `d` is excluded as a destination.
                    let mut mask = self.active_mask();
                    mask[d] = false;
                    let weights = self.capacity_weights();
                    let mut respill = Vec::new();
                    let sources: std::collections::BTreeSet<usize> =
                        removed.keys().map(|&(src, _)| src).collect();
                    for src in sources {
                        let demand: Vec<Demand> = removed
                            .iter()
                            .filter(|(&(s, _), &rate)| s == src && rate > 0.0)
                            .map(|(&(_, service), &rate_rps)| Demand {
                                service,
                                rate_rps,
                                slo_ms: self.slo_of(service),
                                tenant: self.tenant_of_service(service),
                            })
                            .collect();
                        respill.extend(route_from_fair(
                            src,
                            &demand,
                            &mask,
                            &weights,
                            &self.spec.rtt,
                            &self.config.tenants,
                        ));
                    }
                    flows.extend(respill);
                    // One follow-up retarget round for the peers that took
                    // the excess (a second failure leaves the overload to
                    // show up as SLO violations — honest degradation).
                    let peers: Vec<usize> = (0..self.regions.len())
                        .filter(|&p| p != d && self.regions[p].orchestrator.is_some())
                        .collect();
                    for p in peers {
                        let targets = self.targets_for(p, &flows);
                        let orchestrator = self.regions[p].orchestrator.as_mut().expect("active");
                        if let Ok(outcome) = orchestrator.retarget(interval, &targets) {
                            recovery[p].absorb(&outcome, retarget_prepared);
                        }
                        retargeted[p] = true;
                    }
                }
            }
        }

        self.profiler.end(tok);
        let tok = self.profiler.begin("measure", "region");

        // 4. Serve each region's routed load with RTT ingress classes.
        let (outcome, billing) = self.measure(
            interval,
            event,
            &flows,
            &offered,
            &recovery,
            forced_failovers,
        );
        self.profiler.end(tok);

        // 5. The follow-the-sun ledger: price the unshifted counterfactual
        //    and book the delta (nothing to book when nothing moved).
        let ledger = if shifted_rps > 0.0 {
            let tok = self.profiler.begin("follow-the-sun", "region");
            let unshifted = unshifted_flows.as_deref().expect("shift implies optimizer");
            let local_usd_per_hour = self.unshifted_usd_per_hour(interval, unshifted);
            self.profiler.end(tok);
            Some(FollowTheSunRow {
                interval,
                shifted_rps,
                usd_per_hour: outcome.usd_per_hour,
                local_usd_per_hour,
                saved_usd: (local_usd_per_hour - outcome.usd_per_hour)
                    * self.config.hours_per_interval,
            })
        } else {
            None
        };
        Ok((outcome, billing, ledger))
    }

    /// A service's latency SLO, ms (0 for unknown ids, which the router
    /// treats as nowhere-feasible best-effort).
    fn slo_of(&self, service: u32) -> f64 {
        self.base_services
            .iter()
            .find(|s| s.id == service)
            .map_or(0.0, |s| s.slo.latency_ms)
    }

    /// A service's owning tenant id (0 for unknown / untenanted ids).
    fn tenant_of_service(&self, service: u32) -> u32 {
        self.base_services
            .iter()
            .find(|s| s.id == service)
            .map_or(0, |s| s.tenant)
    }

    /// The per-service target specs of region `d` given the flow set.
    fn targets_for(&self, d: usize, flows: &[Flow]) -> Vec<ServiceSpec> {
        let rates = inbound(flows, d);
        self.base_services
            .iter()
            .filter_map(|s| {
                let rate = rates
                    .iter()
                    .find(|(id, _)| *id == s.id)
                    .map_or(0.0, |(_, r)| *r);
                (rate > 0.0).then(|| {
                    ServiceSpec::new(s.id, s.model, rate, s.slo.latency_ms).with_tenant(s.tenant)
                })
            })
            .collect()
    }

    /// Run every live region's serving DES for one interval — one
    /// independent simulation per region, fanned out across scoped
    /// threads and joined by region index. Each region's simulation is a
    /// pure function of its own `(deployment, flows, recovery, seed)`
    /// state, and the merge order is fixed, so the outcome is
    /// bit-identical to running the regions serially (property-tested
    /// below).
    fn region_reports(
        &self,
        flows: &[Flow],
        recovery: &[RecoveryRow],
        parallel: bool,
    ) -> Vec<Option<ServingReport>> {
        let specs: Vec<Option<RecoverySpec>> = recovery
            .iter()
            .map(|r| r.to_spec(&self.config.serving))
            .collect();
        let run_one = |d: usize| -> Option<ServingReport> {
            self.regions[d]
                .orchestrator
                .as_ref()
                .map(|o| self.serve_region(d, o, flows, specs[d].as_ref()))
        };
        // On a single-CPU host the fan-out only adds scheduling noise
        // (time-sliced sims evict each other's working sets); results are
        // identical either way, so fall back to the serial path there.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if parallel && self.regions.len() > 1 && cores > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.regions.len())
                    .map(|d| scope.spawn(move || run_one(d)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("region simulation panicked"))
                    .collect()
            })
        } else {
            (0..self.regions.len()).map(run_one).collect()
        }
    }

    /// Serve + price every region for one interval and assemble the row
    /// plus its per-tenant billing (empty without tenants).
    #[allow(clippy::too_many_lines)]
    fn measure(
        &self,
        interval: usize,
        event: RegionEvent,
        flows: &[Flow],
        offered: &[Vec<Demand>],
        recovery: &[RecoveryRow],
        forced_failovers: Vec<usize>,
    ) -> (IntervalOutcome, Vec<BillingRow>) {
        self.measure_with(
            interval,
            event,
            flows,
            offered,
            recovery,
            forced_failovers,
            true,
        )
    }

    /// [`Federation::measure`] with an explicit serial/parallel switch —
    /// the serial path exists so the equivalence test can pin the two
    /// against each other.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn measure_with(
        &self,
        interval: usize,
        event: RegionEvent,
        flows: &[Flow],
        offered: &[Vec<Demand>],
        recovery: &[RecoveryRow],
        forced_failovers: Vec<usize>,
        parallel: bool,
    ) -> (IntervalOutcome, Vec<BillingRow>) {
        let mut regions = Vec::with_capacity(self.regions.len());
        let mut within: f64 = 0.0;
        let mut total_offered: f64 = 0.0;
        let mut total_cost = 0.0;
        // Per-tenant rollup across regions: offered, rejected, in-SLO,
        // revenue, cost (tenant-id order via the BTreeMap).
        let mut bill: std::collections::BTreeMap<u32, (u64, u64, u64, f64, f64)> =
            std::collections::BTreeMap::new();

        let offered_rps: Vec<f64> = offered
            .iter()
            .map(|o| o.iter().map(|d| d.rate_rps).sum())
            .collect();
        let routed_rps: f64 = flows.iter().map(|f| f.rate_rps).sum();
        let unrouted_rps = (offered_rps.iter().sum::<f64>() - routed_rps).max(0.0);
        let spilled_rps = sum_rates(flows.iter().filter(|f| f.src != f.dst));

        let mut reports = self.region_reports(flows, recovery, parallel);

        for (d, state) in self.regions.iter().enumerate() {
            let spill_out = sum_rates(flows.iter().filter(|f| f.src == d && f.dst != d));
            let Some(orchestrator) = state.orchestrator.as_ref() else {
                regions.push(RegionOutcome {
                    region: d,
                    name: self.spec.regions[d].name.clone(),
                    active: false,
                    offered_rps: offered_rps[d],
                    routed_in_rps: 0.0,
                    spill_in_rps: 0.0,
                    spill_out_rps: spill_out,
                    compliance: 1.0,
                    local_p99_ms: 0.0,
                    spilled_p99_ms: 0.0,
                    displaced_segments: recovery[d].displaced,
                    reconfigured_gpus: recovery[d].reconfigured,
                    migrated_segments: recovery[d].migrated,
                    replacement_nodes: recovery[d].replacements,
                    recovery_latency_ms: 0.0,
                    precopied_gib: 0.0,
                    nodes_in_service: 0,
                    usd_per_hour: 0.0,
                    resilience: None,
                });
                continue;
            };

            let report = reports[d].take().expect("active region was simulated");
            let (recovery_latency_ms, precopied_gib) = report
                .recovery
                .as_ref()
                .map_or((0.0, 0.0), |r| (r.latency_ms, r.precopied_gib));
            let spill_in = sum_rates(flows.iter().filter(|f| f.dst == d && f.src != d));
            let routed_in = sum_rates(flows.iter().filter(|f| f.dst == d));
            let local_p99 = report
                .classes
                .iter()
                .filter(|c| c.network_ms == 0.0 && c.completed > 0)
                .map(|c| c.latency.quantile_ms(0.99))
                .fold(0.0, f64::max);
            let spilled_p99 = report
                .classes
                .iter()
                .filter(|c| c.network_ms > 0.0 && c.completed > 0)
                .map(|c| c.latency.quantile_ms(0.99))
                .fold(0.0, f64::max);
            let region_offered: u64 = report.services.iter().map(|s| s.offered).sum();
            let region_within: u64 = report.services.iter().map(|s| s.completed_within_slo).sum();
            within += region_within as f64;
            total_offered += region_offered as f64;

            let packing = FleetPacking::derive_priced(
                orchestrator.deployment(),
                orchestrator.placement(),
                orchestrator.fleet(),
                self.spec.regions[d].pricing_multiplier,
                self.config.spot_discounts.get(d).copied().flatten(),
            );
            total_cost += packing.usd_per_hour;
            if !self.config.tenants.is_empty() {
                let window_usd = packing.usd_per_hour * (self.config.serving.duration_s / 3600.0);
                let region_tenant_offered: u64 = report.tenants.iter().map(|t| t.offered).sum();
                for t in &report.tenants {
                    let rate = tenant_of(&self.config.tenants, t.tenant)
                        .map_or(0.0, |ten| ten.usd_per_1k_requests);
                    let share = if region_tenant_offered == 0 {
                        0.0
                    } else {
                        t.offered as f64 / region_tenant_offered as f64
                    };
                    let e = bill.entry(t.tenant).or_insert((0, 0, 0, 0.0, 0.0));
                    e.0 += t.offered;
                    e.1 += t.rejected;
                    e.2 += t.completed_within_slo;
                    e.3 += t.completed_within_slo as f64 * rate / 1_000.0;
                    e.4 += window_usd * share;
                }
            }
            regions.push(RegionOutcome {
                region: d,
                name: self.spec.regions[d].name.clone(),
                active: true,
                offered_rps: offered_rps[d],
                routed_in_rps: routed_in,
                spill_in_rps: spill_in,
                spill_out_rps: spill_out,
                compliance: report.overall_request_compliance_rate(),
                local_p99_ms: local_p99,
                spilled_p99_ms: spilled_p99,
                displaced_segments: recovery[d].displaced,
                reconfigured_gpus: recovery[d].reconfigured,
                migrated_segments: recovery[d].migrated,
                replacement_nodes: recovery[d].replacements,
                recovery_latency_ms,
                precopied_gib,
                nodes_in_service: packing.nodes.len(),
                usd_per_hour: packing.usd_per_hour,
                resilience: report.resilience_totals(),
            });
        }

        // Unrouted demand counts as violated at the window's scale.
        let unrouted_requests = unrouted_rps * self.config.serving.duration_s;
        let denominator = total_offered + unrouted_requests;
        let global_compliance = if denominator <= 0.0 {
            1.0
        } else {
            (within / denominator).min(1.0)
        };

        let billing: Vec<BillingRow> = bill
            .into_iter()
            .map(
                |(tenant, (offered, rejected, completed_within_slo, revenue_usd, cost_usd))| {
                    BillingRow {
                        interval,
                        tenant,
                        tenant_name: tenant_of(&self.config.tenants, tenant)
                            .map_or_else(String::new, |t| t.name.clone()),
                        offered,
                        rejected,
                        completed_within_slo,
                        revenue_usd,
                        cost_usd,
                    }
                },
            )
            .collect();

        (
            IntervalOutcome {
                interval,
                event,
                forced_failovers,
                regions,
                global_compliance,
                spilled_rps,
                unrouted_rps,
                usd_per_hour: total_cost,
            },
            billing,
        )
    }

    /// Run the DES for one region: its deployment against the flows
    /// routed into it, each flow an ingress class carrying its RTT, and
    /// the interval's recovery work (if any) riding the same event queue.
    fn serve_region(
        &self,
        d: usize,
        orchestrator: &FleetOrchestrator,
        flows: &[Flow],
        recovery: Option<&RecoverySpec>,
    ) -> ServingReport {
        let specs = orchestrator.specs().to_vec();
        let ingress: Vec<Vec<IngressClass>> = specs
            .iter()
            .map(|s| {
                // Local class first, then inbound spill by source order.
                let mut classes = vec![IngressClass::local(
                    flows
                        .iter()
                        .filter(|f| f.dst == d && f.src == d && f.service == s.id)
                        .map(|f| f.rate_rps)
                        .sum(),
                )];
                for src in 0..self.regions.len() {
                    if src == d {
                        continue;
                    }
                    let rate: f64 = flows
                        .iter()
                        .filter(|f| f.dst == d && f.src == src && f.service == s.id)
                        .map(|f| f.rate_rps)
                        .sum();
                    if rate > 0.0 {
                        classes.push(IngressClass {
                            rate_rps: rate,
                            network_ms: self.spec.rtt.rtt_ms(src, d),
                        });
                    }
                }
                classes
            })
            .collect();
        let serving = ServingConfig {
            seed: self
                .config
                .seed
                .wrapping_add((d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            ..self.config.serving
        };
        Simulation::new(
            &parva_deploy::Deployment::Mig(orchestrator.deployment().clone()),
            &specs,
        )
        .tenants(&self.config.tenants)
        .ingress(&ingress)
        .recovery_opt(recovery)
        .resilience_opt(self.config.resilience.as_ref())
        .config(&serving)
        .run()
    }

    /// Measure the undisturbed interval 0 (all regions serving locally).
    #[must_use]
    pub fn baseline(&self) -> IntervalOutcome {
        self.baseline_billed().0
    }

    /// [`Federation::baseline`] plus interval 0's per-tenant billing rows
    /// (empty when the run has no tenants configured) and its
    /// follow-the-sun ledger entry (`None` when nothing shifted).
    ///
    /// The baseline only *routes* the shift — the fleets keep their
    /// bootstrap provisioning (no retarget runs at interval 0), so the
    /// ledger prices what routing alone is worth there.
    fn baseline_billed(&self) -> (IntervalOutcome, Vec<BillingRow>, Option<FollowTheSunRow>) {
        let offered = self.offered_at(0);
        let mut flows = route_demand_fair(
            &offered,
            &self.active_mask(),
            &self.capacity_weights(),
            &self.spec.rtt,
            &self.config.tenants,
        );
        let shifted_rps = self.apply_follow_the_sun(0, &mut flows);
        let (outcome, billing) = self.measure(
            0,
            RegionEvent::Quiet,
            &flows,
            &offered,
            &vec![RecoveryRow::default(); self.regions.len()],
            Vec::new(),
        );
        let ledger = (shifted_rps > 0.0).then_some(FollowTheSunRow {
            interval: 0,
            shifted_rps,
            usd_per_hour: outcome.usd_per_hour,
            local_usd_per_hour: outcome.usd_per_hour,
            saved_usd: 0.0,
        });
        (outcome, billing, ledger)
    }
}

/// Run a full federation trace: bootstrap, baseline, then
/// `config.intervals` events (the seeded stream plus the optional
/// scripted drill) with geo-aware recovery after each.
///
/// Deterministic: the same `(book, services, spec, config)` always
/// produces the identical [`FederationReport`].
///
/// # Errors
/// Propagates bootstrap and failback failures ([`FederationError`]).
pub fn run_federation(
    book: &ProfileBook,
    services: &[ServiceSpec],
    spec: &FederationSpec,
    config: &FederationConfig,
) -> Result<FederationReport, FederationError> {
    run_federation_sink(
        book,
        services,
        spec,
        config,
        &mut parva_obs::NullSink,
        false,
    )
    .map(|(report, _)| report)
}

/// Static label for a region event kind (trace names must be
/// `'static`).
fn event_label(event: &RegionEvent) -> &'static str {
    match event {
        RegionEvent::Evacuation { .. } => "evacuate",
        RegionEvent::Failback { .. } => "failback",
        RegionEvent::Local { .. } => "local-event",
        RegionEvent::Quiet => "quiet",
    }
}

/// The region a decision event anchors to (federation-wide for Quiet).
fn event_region(event: &RegionEvent) -> u32 {
    match event {
        RegionEvent::Evacuation { region }
        | RegionEvent::Failback { region }
        | RegionEvent::Local { region, .. } => *region as u32,
        RegionEvent::Quiet => u32::MAX,
    }
}

/// One serving interval's span on the pseudo-timeline, microseconds.
fn interval_us(serving: &ServingConfig) -> u64 {
    ((serving.warmup_s + serving.duration_s + serving.drain_s) * 1e6) as u64
}

/// Emit follow-the-sun ledger gauge rows (a no-op when the optimizer
/// never fired — the row set is empty).
fn sample_follow_the_sun<S: TraceSink>(sink: &mut S, rows: &[FollowTheSunRow]) {
    for r in rows {
        sink.sample(
            Row::new()
                .str("kind", "follow_the_sun")
                .u64("interval", r.interval as u64)
                .f64("shifted_rps", r.shifted_rps)
                .f64("usd_per_hour", r.usd_per_hour)
                .f64("local_usd_per_hour", r.local_usd_per_hour)
                .f64("saved_usd", r.saved_usd),
        );
    }
}

/// Emit one interval's gauge rows: the federation aggregate, then one
/// row per region in region order.
fn sample_interval<S: TraceSink>(sink: &mut S, names: &[String], outcome: &IntervalOutcome) {
    sink.sample(
        Row::new()
            .str("kind", "federation")
            .u64("interval", outcome.interval as u64)
            .str("event", outcome.event.to_string())
            .f64("global_compliance", outcome.global_compliance)
            .f64("spilled_rps", outcome.spilled_rps)
            .f64("unrouted_rps", outcome.unrouted_rps)
            .f64("usd_per_hour", outcome.usd_per_hour)
            .u64("forced_failovers", outcome.forced_failovers.len() as u64),
    );
    for r in &outcome.regions {
        let mut row = Row::new()
            .str("kind", "region")
            .u64("interval", outcome.interval as u64)
            .str("region", names[r.region].clone())
            .bool("active", r.active)
            .f64("offered_rps", r.offered_rps)
            .f64("routed_in_rps", r.routed_in_rps)
            .f64("spill_in_rps", r.spill_in_rps)
            .f64("spill_out_rps", r.spill_out_rps)
            .f64("compliance", r.compliance)
            .f64("local_p99_ms", r.local_p99_ms)
            .u64("migrated_segments", r.migrated_segments as u64)
            .f64("recovery_latency_ms", r.recovery_latency_ms)
            .u64("nodes_in_service", r.nodes_in_service as u64)
            .f64("usd_per_hour", r.usd_per_hour);
        if let Some(res) = &r.resilience {
            row = row
                .u64("timeouts", res.timeouts)
                .u64("retries", res.retries)
                .u64("shed", res.shed)
                .u64("hedges", res.hedges)
                .u64("hedge_wins", res.hedge_wins);
        }
        sink.sample(row);
    }
}

/// [`run_federation`] under a [`TraceSink`]: the identical federation
/// trace (the report is property-tested equal to the unobserved run),
/// plus, per interval, federation *decision* trace events — the injected
/// region event, an `evacuate` instant per forced cross-region failover,
/// and per-region `retarget` / `spill` instants — and one aggregate gauge
/// row plus one row per region with its routed demand, spill volumes,
/// compliance and cost. Interval `n` is mapped onto the trace timeline at
/// `n × serving-window`. `profile` enables the federation's phase
/// self-profile (event-apply / route / retarget / measure), returned
/// alongside the report; a [`parva_obs::Recorder`] caller absorbs it into
/// `rec.profile`. Streaming callers (the scenario layer's `--stream`
/// path) hand a sink that retires events to disk as they land.
///
/// # Errors
/// Propagates bootstrap and failback failures ([`FederationError`]).
#[allow(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]
pub fn run_federation_sink<S: TraceSink>(
    book: &ProfileBook,
    services: &[ServiceSpec],
    spec: &FederationSpec,
    config: &FederationConfig,
    sink: &mut S,
    profile: bool,
) -> Result<(FederationReport, SelfProfiler), FederationError> {
    let mut federation = Federation::bootstrap(book, services, spec, config)?;
    if profile {
        federation.enable_profiling();
    }
    let mut rng = RngStream::new(config.seed, 0xFED);
    let names: Vec<String> = spec.regions.iter().map(|r| r.name.clone()).collect();
    let window = interval_us(&config.serving);
    let (baseline, mut billing_rows, baseline_ledger) = federation.baseline_billed();
    let mut sun_rows: Vec<FollowTheSunRow> = baseline_ledger.into_iter().collect();
    if S::ENABLED {
        sample_interval(sink, &names, &baseline);
        emit_billing_gauges(sink, &billing_rows);
        sample_follow_the_sun(sink, &sun_rows);
    }

    let mut intervals = Vec::with_capacity(config.intervals);
    for interval in 1..=config.intervals {
        let drill = config
            .drill
            .filter(|d| d.region < federation.region_count());
        let event = match drill {
            Some(d) if interval == d.evacuate_at && federation.is_active(d.region) => {
                RegionEvent::Evacuation { region: d.region }
            }
            Some(d) if interval == d.failback_at && !federation.is_active(d.region) => {
                RegionEvent::Failback { region: d.region }
            }
            _ => {
                let states: Vec<Option<&parva_fleet::Fleet>> = (0..federation.region_count())
                    .map(|r| {
                        federation.regions[r]
                            .orchestrator
                            .as_ref()
                            .map(FleetOrchestrator::fleet)
                    })
                    .collect();
                // While the drill holds a region down, it must not fail
                // back spontaneously.
                let held = drill
                    .filter(|d| !federation.is_active(d.region) && interval < d.failback_at)
                    .map(|d| d.region);
                next_region_event_with(&mut rng, &states, held, &config.region_chaos)
            }
        };
        let (outcome, interval_bill, interval_ledger) = federation.step_billed(interval, event)?;
        if S::ENABLED {
            let ts0 = interval as u64 * window;
            if let Some(sun) = &interval_ledger {
                sink.emit(
                    TraceEvent::instant("follow-the-sun", "decision", ts0)
                        .pid(PID_REGION)
                        .tid(u32::MAX)
                        .arg_f64("shifted_rps", sun.shifted_rps)
                        .arg_f64("saved_usd", sun.saved_usd),
                );
            }
            sink.emit(
                TraceEvent::instant(event_label(&outcome.event), "region-event", ts0)
                    .pid(PID_REGION)
                    .tid(event_region(&outcome.event))
                    .arg_str("event", outcome.event.to_string()),
            );
            for &r in &outcome.forced_failovers {
                sink.emit(
                    TraceEvent::instant("evacuate", "decision", ts0)
                        .pid(PID_REGION)
                        .tid(r as u32)
                        .arg_str("region", names[r].clone())
                        .arg_bool("forced", true),
                );
            }
            for r in &outcome.regions {
                if r.migrated_segments > 0 || r.reconfigured_gpus > 0 {
                    sink.emit(
                        TraceEvent::instant("retarget", "decision", ts0)
                            .pid(PID_REGION)
                            .tid(r.region as u32)
                            .arg_str("region", names[r.region].clone())
                            .arg_u64("migrated_segments", r.migrated_segments as u64)
                            .arg_u64("reconfigured_gpus", r.reconfigured_gpus as u64)
                            .arg_u64("replacement_nodes", r.replacement_nodes as u64)
                            .arg_f64("recovery_latency_ms", r.recovery_latency_ms),
                    );
                }
                if r.spill_out_rps > 0.0 {
                    sink.emit(
                        TraceEvent::instant("spill", "decision", ts0)
                            .pid(PID_REGION)
                            .tid(r.region as u32)
                            .arg_str("region", names[r.region].clone())
                            .arg_f64("rate_rps", r.spill_out_rps),
                    );
                }
            }
            sample_interval(sink, &names, &outcome);
            emit_billing_gauges(sink, &interval_bill);
            sample_follow_the_sun(sink, interval_ledger.as_slice());
        }
        intervals.push(outcome);
        billing_rows.extend(interval_bill);
        sun_rows.extend(interval_ledger);
    }

    let profile = std::mem::take(&mut federation.profiler);
    Ok((
        FederationReport {
            seed: config.seed,
            region_names: names,
            baseline,
            intervals,
            billing: (!billing_rows.is_empty() || !sun_rows.is_empty()).then_some(BillingReport {
                rows: billing_rows,
                follow_the_sun: sun_rows,
            }),
        },
        profile,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::next_region_event;
    use crate::router::route_demand;
    use crate::spec::FederationSpec;
    use parva_obs::Recorder;

    fn quick_config(seed: u64, intervals: usize) -> FederationConfig {
        FederationConfig {
            seed,
            intervals,
            serving: ServingConfig {
                warmup_s: 0.3,
                duration_s: 1.5,
                drain_s: 0.7,
                ..ServingConfig::default()
            },
            drill: Some(EvacuationDrill {
                region: 0,
                evacuate_at: intervals.div_ceil(3).max(1),
                failback_at: (2 * intervals).div_ceil(3).max(2),
            }),
            ..FederationConfig::default()
        }
    }

    #[test]
    fn resilience_policy_threads_into_every_region() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let cfg = quick_config(7, 2);
        let plain = run_federation(&book, &services, &spec, &cfg).unwrap();
        assert!(
            plain
                .intervals
                .iter()
                .chain(std::iter::once(&plain.baseline))
                .flat_map(|i| i.regions.iter())
                .all(|r| r.resilience.is_none()),
            "resilience-free federation must not report counters"
        );
        assert!(!serde_json::to_string(&plain)
            .unwrap()
            .contains("resilience"));

        let mut rcfg = cfg.clone();
        rcfg.resilience = Some(ResilienceSpec {
            shed_queue_depth: 1,
            health_checked: false,
            ..ResilienceSpec::default()
        });
        let shed = run_federation(&book, &services, &spec, &rcfg).unwrap();
        assert!(
            shed.baseline
                .regions
                .iter()
                .any(|r| r.resilience.as_ref().is_some_and(|c| c.shed > 0)),
            "shed_queue_depth=1 must shed in the busy baseline interval"
        );
    }

    #[test]
    fn federation_run_is_deterministic() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let a = run_federation(&book, &services, &spec, &quick_config(7, 6)).unwrap();
        let b = run_federation(&book, &services, &spec, &quick_config(7, 6)).unwrap();
        assert_eq!(a, b, "identical seeds must give identical reports");
        let c = run_federation(&book, &services, &spec, &quick_config(8, 6)).unwrap();
        assert_ne!(a.intervals, c.intervals, "different seeds should diverge");
    }

    #[test]
    fn observed_federation_is_behavior_neutral_and_deterministic() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let cfg = quick_config(7, 4);
        let plain = run_federation(&book, &services, &spec, &cfg).unwrap();

        let observed = |rec: &mut Recorder| {
            let (report, profile) =
                run_federation_sink(&book, &services, &spec, &cfg, rec, true).unwrap();
            rec.profile.absorb(&profile);
            report
        };
        let mut rec_a = Recorder::new(0);
        let a = observed(&mut rec_a);
        assert_eq!(plain, a, "observation must not change the report");

        // Gauge rows: (1 aggregate + one per region) × (baseline + intervals).
        let rows_per_interval = 1 + spec.regions.len();
        assert_eq!(rec_a.metrics.len(), rows_per_interval * (cfg.intervals + 1));
        // The drill evacuation spills demand cross-region: the trace
        // carries the event and spill decisions.
        let names: Vec<&str> = rec_a.events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"evacuate"), "{names:?}");
        assert!(names.contains(&"spill"), "{names:?}");
        assert!(names.contains(&"retarget"), "{names:?}");
        assert!(rec_a.events.iter().all(|e| e.pid == PID_REGION));
        // The phase self-profile covered every step phase.
        let phases: Vec<&str> = rec_a.profile.stats().iter().map(|s| s.name).collect();
        for phase in ["event-apply", "route", "retarget", "measure"] {
            assert!(phases.contains(&phase), "missing phase {phase}");
        }
        let measure = rec_a
            .profile
            .stats()
            .iter()
            .find(|s| s.name == "measure")
            .unwrap();
        assert!(measure.des_sims > 0, "measure ran no simulations");

        // Deterministic artifacts: byte-identical across runs.
        let mut rec_b = Recorder::new(0);
        let b = observed(&mut rec_b);
        assert_eq!(a, b);
        assert_eq!(rec_a.chrome_trace(), rec_b.chrome_trace());
        assert_eq!(rec_a.metrics_jsonl(), rec_b.metrics_jsonl());
    }

    #[test]
    fn evacuation_spills_with_rtt_and_fails_back() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let config = quick_config(11, 6);
        let drill = config.drill.unwrap();
        let report = run_federation(&book, &services, &spec, &config).unwrap();

        let evac = &report.intervals[drill.evacuate_at - 1];
        assert!(matches!(evac.event, RegionEvent::Evacuation { region } if region == drill.region));
        // (a) the drained capacity was re-placed in surviving regions:
        // the evacuated region drained segments, the survivors
        // reconfigured, and global attainment held.
        assert!(evac.regions[drill.region].displaced_segments > 0);
        assert!(!evac.regions[drill.region].active);
        let survivor_churn: usize = evac
            .regions
            .iter()
            .filter(|r| r.region != drill.region)
            .map(|r| r.reconfigured_gpus + r.migrated_segments + r.replacement_nodes)
            .sum();
        assert!(survivor_churn > 0, "survivors did not re-place anything");
        assert!(evac.spilled_rps > 0.0, "no traffic spilled");
        // (b) spilled p99 reflects the RTT matrix: at least the nearest
        // RTT out of the evacuated region, and above the local p99.
        let nearest = spec.rtt.nearest_rtt_ms(drill.region);
        for r in evac.regions.iter().filter(|r| r.active) {
            if r.spill_in_rps > 0.0 {
                assert!(
                    r.spilled_p99_ms >= nearest,
                    "region {}: spilled p99 {:.0} below nearest RTT {nearest:.0}",
                    r.name,
                    r.spilled_p99_ms
                );
                assert!(r.spilled_p99_ms > r.local_p99_ms);
            }
        }
        // While evacuated, the dark region bills nothing.
        assert_eq!(evac.regions[drill.region].usd_per_hour, 0.0);

        // The failback interval brings the region home.
        let back = &report.intervals[drill.failback_at - 1];
        assert!(matches!(back.event, RegionEvent::Failback { region } if region == drill.region));
        assert!(back.regions[drill.region].active);
        // And the final interval's attainment recovers to baseline level.
        assert!(
            report.recovered(),
            "final compliance {:.4} vs baseline {:.4}\n{}",
            report.final_compliance(),
            report.baseline_compliance(),
            report.render()
        );
    }

    #[test]
    fn evacuation_notice_precopies_into_spill_targets() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let config = quick_config(11, 6);
        let drill = config.drill.unwrap();
        let report = run_federation(&book, &services, &spec, &config).unwrap();
        let evac = &report.intervals[drill.evacuate_at - 1];
        assert!(matches!(evac.event, RegionEvent::Evacuation { .. }));
        // The notice pre-copied weights into at least one spill target,
        // and every prepared survivor pays only the control-plane delay.
        let movers: Vec<_> = evac
            .regions
            .iter()
            .filter(|r| r.active && r.precopied_gib > 0.0)
            .collect();
        assert!(!movers.is_empty(), "no survivor absorbed prepared weights");
        for r in movers {
            assert!(
                (r.recovery_latency_ms - parva_serve::recovery::CONTROL_PLANE_MS).abs() < 0.5,
                "{}: prepared recovery took {:.0} ms",
                r.name,
                r.recovery_latency_ms
            );
        }
    }

    #[test]
    fn regional_prices_honor_multipliers() {
        let book = ProfileBook::builtin();
        let mut spec = FederationSpec::three_region_demo();
        // Make regions 1 and 2 identical except for the price index.
        spec.regions[2].fleet = spec.regions[1].fleet.clone().in_region("ap-south");
        spec.regions[2].demand_share = spec.regions[1].demand_share;
        spec.regions[2].diurnal_phase_hours = spec.regions[1].diurnal_phase_hours;
        let federation =
            Federation::bootstrap(&book, &crate::demo_services(), &spec, &quick_config(3, 2))
                .unwrap();
        let baseline = federation.baseline();
        let (r1, r2) = (&baseline.regions[1], &baseline.regions[2]);
        assert_eq!(r1.nodes_in_service, r2.nodes_in_service);
        let want = spec.regions[2].pricing_multiplier / spec.regions[1].pricing_multiplier;
        assert!(
            (r2.usd_per_hour / r1.usd_per_hour - want).abs() < 1e-9,
            "{} vs {}",
            r2.usd_per_hour,
            r1.usd_per_hour
        );
    }

    #[test]
    fn demand_follows_the_sun_across_regions() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let federation =
            Federation::bootstrap(&book, &crate::demo_services(), &spec, &quick_config(3, 2))
                .unwrap();
        // Sweep a day: each region's offered demand must peak at a
        // different federation hour (phases 0 / 5 / 10.5 h).
        let mut peak_hour = [0usize; 3];
        let mut peak = [0.0f64; 3];
        for interval in 0..8 {
            let offered = federation.offered_at(interval);
            for r in 0..3 {
                let total: f64 = offered[r].iter().map(|d| d.rate_rps).sum();
                if total > peak[r] {
                    peak[r] = total;
                    peak_hour[r] = interval;
                }
            }
        }
        assert!(peak_hour[1] != peak_hour[0] || peak_hour[2] != peak_hour[0]);
    }

    #[test]
    fn invalid_config_is_rejected_not_panicked() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let bad_diurnal = FederationConfig {
            diurnal_low: 0.0,
            ..quick_config(1, 2)
        };
        let Err(err) = Federation::bootstrap(&book, &services, &spec, &bad_diurnal) else {
            panic!("zero diurnal low must be rejected");
        };
        assert!(
            matches!(&err, FederationError::Spec(m) if m.contains("diurnal")),
            "{err}"
        );
        let bad_drill = FederationConfig {
            drill: Some(EvacuationDrill {
                region: 0,
                evacuate_at: 4,
                failback_at: 4,
            }),
            ..quick_config(1, 6)
        };
        let Err(err) = Federation::bootstrap(&book, &services, &spec, &bad_drill) else {
            panic!("inverted drill must be rejected");
        };
        assert!(
            matches!(&err, FederationError::Spec(m) if m.contains("failback")),
            "{err}"
        );
        let bad_clock = FederationConfig {
            hours_per_interval: f64::NAN,
            ..quick_config(1, 2)
        };
        assert!(Federation::bootstrap(&book, &services, &spec, &bad_clock).is_err());
    }

    #[test]
    fn parallel_measure_equals_serial() {
        // The scoped-thread region fan-out must be bit-identical to the
        // serial path: per-region sims are pure and the merge order is
        // fixed by region index. Compare full serialized interval rows
        // over several seeds, including intervals with evacuations,
        // failovers and recovery work.
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        for seed in [3u64, 11, 29] {
            let config = quick_config(seed, 6);
            let mut federation = Federation::bootstrap(&book, &services, &spec, &config).unwrap();
            let mut rng = RngStream::new(config.seed, 0xFED);
            for interval in 1..=config.intervals {
                let states: Vec<Option<&parva_fleet::Fleet>> = (0..federation.region_count())
                    .map(|r| {
                        federation.regions[r]
                            .orchestrator
                            .as_ref()
                            .map(FleetOrchestrator::fleet)
                    })
                    .collect();
                let event = next_region_event(&mut rng, &states, None);
                // Drive the interval's mutations once, then measure the
                // same post-event state both ways.
                let recovery: Vec<RecoveryRow> =
                    vec![RecoveryRow::default(); federation.region_count()];
                let _ = federation.step(interval, event);
                let offered = federation.offered_at(interval);
                let flows = route_demand(
                    &offered,
                    &federation.active_mask(),
                    &federation.capacity_weights(),
                    &federation.spec.rtt,
                );
                let par = federation.measure_with(
                    interval,
                    RegionEvent::Quiet,
                    &flows,
                    &offered,
                    &recovery,
                    Vec::new(),
                    true,
                );
                let ser = federation.measure_with(
                    interval,
                    RegionEvent::Quiet,
                    &flows,
                    &offered,
                    &recovery,
                    Vec::new(),
                    false,
                );
                assert_eq!(
                    serde_json::to_string(&par.0).unwrap(),
                    serde_json::to_string(&ser.0).unwrap(),
                    "seed {seed} interval {interval}"
                );
                assert_eq!(par.1, ser.1, "billing rows diverged at seed {seed}");
            }
        }
    }

    #[test]
    fn parallel_measure_equals_serial_with_recovery_rows() {
        // Same equivalence with non-empty recovery specs riding the
        // region sims (the path federation evacuations exercise).
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let config = quick_config(11, 6);
        let federation = Federation::bootstrap(&book, &services, &spec, &config).unwrap();
        let offered = federation.offered_at(1);
        let flows = route_demand(
            &offered,
            &federation.active_mask(),
            &federation.capacity_weights(),
            &federation.spec.rtt,
        );
        let mut recovery: Vec<RecoveryRow> =
            vec![RecoveryRow::default(); federation.region_count()];
        recovery[1].ops.push(parva_serve::RecoveryOp {
            node: 0,
            logical_gpu: Some(0),
            reflash: true,
            copy_gib: 6.0,
            prepared: false,
        });
        recovery[2].ops.push(parva_serve::RecoveryOp {
            node: 1,
            logical_gpu: Some(1),
            reflash: false,
            copy_gib: 3.0,
            prepared: true,
        });
        let par = federation.measure_with(
            1,
            RegionEvent::Quiet,
            &flows,
            &offered,
            &recovery,
            Vec::new(),
            true,
        );
        let ser = federation.measure_with(
            1,
            RegionEvent::Quiet,
            &flows,
            &offered,
            &recovery,
            Vec::new(),
            false,
        );
        assert_eq!(
            serde_json::to_string(&par.0).unwrap(),
            serde_json::to_string(&ser.0).unwrap()
        );
        // The recovery rows actually rode the sims.
        assert!(par.0.regions[1].recovery_latency_ms > 0.0);
        assert!(par.0.regions[2].precopied_gib > 0.0);
    }

    fn tenanted_services() -> Vec<ServiceSpec> {
        // Tenant 1 (acme) owns the even service ids, tenant 2 (globex)
        // the odd ones — both present in every region's demand share.
        crate::demo_services()
            .into_iter()
            .map(|s| {
                let tenant = if s.id % 2 == 0 { 1 } else { 2 };
                s.with_tenant(tenant)
            })
            .collect()
    }

    fn two_tenants() -> Vec<Tenant> {
        vec![
            Tenant::new(1, "acme")
                .with_weight(3.0)
                .with_rate_usd_per_1k(1.2),
            Tenant::new(2, "globex").with_rate_usd_per_1k(0.8),
        ]
    }

    #[test]
    fn tenanted_federation_bills_deterministically() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = tenanted_services();
        let mut config = quick_config(7, 4);
        config.tenants = two_tenants();
        let a = run_federation(&book, &services, &spec, &config).unwrap();
        let b = run_federation(&book, &services, &spec, &config).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "tenanted runs must serialize byte-identically per seed"
        );

        let billing = a.billing.as_ref().expect("tenanted run must carry a P&L");
        // Baseline + every interval, one row per tenant, tenant-id order.
        assert_eq!(billing.rows.len(), 2 * (config.intervals + 1));
        for (i, rows) in billing.rows.chunks(2).enumerate() {
            assert_eq!(rows[0].interval, i);
            assert_eq!(rows[1].interval, i);
            assert_eq!(rows[0].tenant, 1);
            assert_eq!(rows[1].tenant, 2);
            assert_eq!(rows[0].tenant_name, "acme");
        }
        // Economics are live: revenue accrued, costs attributed, and the
        // interval cost attribution matches the interval's fleet bill.
        assert!(billing.rows.iter().any(|r| r.revenue_usd > 0.0));
        assert!(billing.rows.iter().all(|r| r.cost_usd >= 0.0));
        let baseline_cost: f64 = billing.rows[..2].iter().map(|r| r.cost_usd).sum();
        let serving_h = config.serving.duration_s / 3600.0;
        let expected = a.baseline.usd_per_hour * serving_h;
        assert!(
            (baseline_cost - expected).abs() < 1e-9,
            "baseline cost attribution {baseline_cost} != fleet bill {expected}"
        );
    }

    #[test]
    fn default_tenant_knobs_are_byte_neutral() {
        // Explicitly-spelled defaults (no tenants, default chaos profile
        // per region, no spot discounts) must reproduce the legacy report
        // byte for byte — the whole tenant layer is opt-in.
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let plain = run_federation(&book, &services, &spec, &quick_config(7, 4)).unwrap();
        assert!(plain.billing.is_none(), "untenanted run must not bill");
        let mut config = quick_config(7, 4);
        config.region_chaos = vec![ChaosProfile::default(); 3];
        config.spot_discounts = vec![None; 3];
        let knobs = run_federation(&book, &services, &spec, &config).unwrap();
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&knobs).unwrap()
        );
    }

    #[test]
    fn spot_discounts_cheapen_regions_without_changing_behavior() {
        let book = ProfileBook::builtin();
        // mixed_demo packs onto the reserved/on-demand tiers first, so
        // make one region all-spot: every in-service hour there is
        // discountable.
        let mut spec = FederationSpec::three_region_demo();
        spec.regions[2].fleet = parva_fleet::FleetSpec {
            pools: vec![parva_fleet::NodePool {
                name: "ap-spot".into(),
                node: parva_cluster::NodeType::P4DE_24XLARGE,
                pricing: parva_cluster::PricingPlan::Spot,
                preemptible: true,
                count: 2,
                region: Some("ap-south".into()),
            }],
        };
        let services = crate::demo_services();
        let full = run_federation(&book, &services, &spec, &quick_config(3, 3)).unwrap();
        let mut config = quick_config(3, 3);
        config.spot_discounts = vec![Some(0.1); 3];
        let spot = run_federation(&book, &services, &spec, &config).unwrap();
        // Same chaos, same serving, same attainment — only the bill moves.
        assert_eq!(
            full.intervals
                .iter()
                .map(|i| i.event.clone())
                .collect::<Vec<_>>(),
            spot.intervals
                .iter()
                .map(|i| i.event.clone())
                .collect::<Vec<_>>()
        );
        assert!((full.baseline.global_compliance - spot.baseline.global_compliance).abs() < 1e-12);
        assert!(
            spot.baseline.usd_per_hour < full.baseline.usd_per_hour,
            "0.1x spot discount never showed up: {} vs {}",
            spot.baseline.usd_per_hour,
            full.baseline.usd_per_hour
        );
    }

    #[test]
    fn invalid_tenants_are_rejected() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = tenanted_services();
        let mut config = quick_config(1, 1);
        config.tenants = vec![Tenant::new(0, "reserved-id")];
        assert!(matches!(
            Federation::bootstrap(&book, &services, &spec, &config),
            Err(FederationError::Spec(_))
        ));
        config.tenants = vec![Tenant::new(3, "a"), Tenant::new(3, "b")];
        assert!(matches!(
            Federation::bootstrap(&book, &services, &spec, &config),
            Err(FederationError::Spec(_))
        ));
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let book = ProfileBook::builtin();
        let mut spec = FederationSpec::three_region_demo();
        spec.regions[0].demand_share = -1.0;
        assert!(matches!(
            Federation::bootstrap(&book, &crate::demo_services(), &spec, &quick_config(1, 1)),
            Err(FederationError::Spec(_))
        ));
    }

    fn sun_config(seed: u64, intervals: usize) -> FederationConfig {
        FederationConfig {
            // No drill: every region stays active, so the ledger isolates
            // cost moves from evacuation churn.
            drill: None,
            // A wide swing so troughs dip well under the night threshold.
            diurnal_low: 0.4,
            diurnal_high: 1.6,
            follow_the_sun: Some(FollowTheSun::default()),
            ..quick_config(seed, intervals)
        }
    }

    #[test]
    fn follow_the_sun_ships_overnight_demand_and_keeps_a_ledger() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let config = sun_config(5, 6);
        let report = run_federation(&book, &services, &spec, &config).unwrap();
        let billing = report
            .billing
            .as_ref()
            .expect("an active optimizer must open the billing ledger");
        assert!(
            billing.rows.is_empty(),
            "untenanted run must not grow tenant P&L rows"
        );
        assert!(
            !billing.follow_the_sun.is_empty(),
            "a 0.4x trough under a 0.8 threshold must trigger shifts"
        );
        for r in &billing.follow_the_sun {
            assert!(r.shifted_rps > 0.0, "ledger row without a shift");
            assert!(r.usd_per_hour > 0.0 && r.local_usd_per_hour > 0.0);
            if r.interval == 0 {
                // The baseline fleet is provisioned before any retarget, so
                // the counterfactual is the same fleet: no savings yet.
                assert_eq!(r.saved_usd, 0.0);
            } else {
                assert!(
                    (r.saved_usd
                        - (r.local_usd_per_hour - r.usd_per_hour) * config.hours_per_interval)
                        .abs()
                        < 1e-9,
                    "saved_usd must be the priced delta over the interval span"
                );
            }
        }
        // The point of the optimizer: across the run, parking overnight
        // fleets must beat provisioning every region for local demand.
        assert!(
            billing.follow_the_sun_savings_usd() > 0.0,
            "follow-the-sun lost money:\n{}",
            billing.render()
        );
        // SLO feasibility filter: nothing crosses an ocean its SLO cannot
        // absorb (every shifted flow's RTT fits under the spill ceiling).
        assert!(report.final_compliance() > 0.9, "{}", report.render());
    }

    #[test]
    fn follow_the_sun_is_deterministic_and_serializable() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let a = run_federation(&book, &services, &spec, &sun_config(5, 4)).unwrap();
        let b = run_federation(&book, &services, &spec, &sun_config(5, 4)).unwrap();
        let json = serde_json::to_string(&a).unwrap();
        assert_eq!(json, serde_json::to_string(&b).unwrap());
        assert!(json.contains("follow_the_sun"));
        let back: crate::FederationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a, "ledger must survive a serde round trip");
    }

    #[test]
    fn follow_the_sun_off_is_byte_neutral() {
        // `follow_the_sun: None` must reproduce the legacy report byte for
        // byte — no ledger key, no billing object, identical outcomes.
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        let plain = run_federation(&book, &services, &spec, &quick_config(7, 4)).unwrap();
        let json = serde_json::to_string(&plain).unwrap();
        assert!(!json.contains("follow_the_sun"));
        assert!(plain.billing.is_none());
    }

    #[test]
    fn invalid_follow_the_sun_is_rejected() {
        let book = ProfileBook::builtin();
        let spec = FederationSpec::three_region_demo();
        let services = crate::demo_services();
        for fts in [
            FollowTheSun {
                shift_fraction: 1.0,
                ..FollowTheSun::default()
            },
            FollowTheSun {
                shift_fraction: 0.0,
                ..FollowTheSun::default()
            },
            FollowTheSun {
                night_threshold: f64::NAN,
                ..FollowTheSun::default()
            },
        ] {
            let config = FederationConfig {
                follow_the_sun: Some(fts),
                ..quick_config(1, 2)
            };
            assert!(
                matches!(
                    Federation::bootstrap(&book, &services, &spec, &config),
                    Err(FederationError::Spec(_))
                ),
                "{fts:?} must be rejected"
            );
        }
    }
}
