//! The one serving-simulation entry point: a borrowing builder.
//!
//! Every axis — window shape, seed, arrival process, ingress classes,
//! recovery work, tenants, resilience — is an independent builder method.
//! [`Simulation::run`] builds the serving [`Engine`], advances it to the
//! end of the measurement window and reports; [`Simulation::engine`] hands
//! the built engine to callers that advance it themselves (epoch by epoch,
//! reconfiguring in between — the `parvad` daemon).
//!
//! ```
//! use parva_serve::Simulation;
//! # use parva_deploy::{Deployment, MigDeployment, ServiceSpec};
//! # let deployment = Deployment::Mig(MigDeployment::new());
//! # let specs: Vec<ServiceSpec> = Vec::new();
//! let report = Simulation::new(&deployment, &specs)
//!     .window(1.0, 4.0, 2.0)
//!     .seed(7)
//!     .run();
//! ```

use crate::recovery::RecoverySpec;
use crate::report::ServingReport;
use crate::resilience::ResilienceSpec;
use crate::sim::{ArrivalProcess, Engine, IngressClass, ServingConfig};
use parva_deploy::{Deployment, ServiceSpec, Tenant};

/// A configured serving simulation, ready to [`run`](Simulation::run).
///
/// Borrowing builder: the deployment, service specs, ingress classes and
/// recovery spec are borrowed (simulations are re-run across seeds and
/// windows far more often than their inputs change), the scalar
/// configuration is owned. Defaults match [`ServingConfig::default`]: one
/// purely local ingress class per service at its spec rate, no recovery
/// work, Poisson arrivals.
#[derive(Debug, Clone)]
pub struct Simulation<'a> {
    pub(crate) deployment: &'a Deployment,
    pub(crate) specs: &'a [ServiceSpec],
    pub(crate) ingress: &'a [Vec<IngressClass>],
    pub(crate) recovery: Option<&'a RecoverySpec>,
    pub(crate) tenants: &'a [Tenant],
    pub(crate) arrival_overrides: &'a [Option<ArrivalProcess>],
    pub(crate) resilience: Option<&'a ResilienceSpec>,
    pub(crate) config: ServingConfig,
}

impl<'a> Simulation<'a> {
    /// Start building a simulation of `deployment` under `specs`' load.
    #[must_use]
    pub fn new(deployment: &'a Deployment, specs: &'a [ServiceSpec]) -> Self {
        Self {
            deployment,
            specs,
            ingress: &[],
            recovery: None,
            tenants: &[],
            arrival_overrides: &[],
            resilience: None,
            config: ServingConfig::default(),
        }
    }

    /// Set the window shape: warm-up, measurement and drain durations in
    /// seconds. A `duration_s` of `f64::MAX` keeps the measurement window
    /// open for good: every request after the warm-up counts (the window
    /// of a run advanced epoch by epoch for as long as it lives).
    #[must_use]
    pub fn window(mut self, warmup_s: f64, duration_s: f64, drain_s: f64) -> Self {
        self.config.warmup_s = warmup_s;
        self.config.duration_s = duration_s;
        self.config.drain_s = drain_s;
        self
    }

    /// Set the master RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Set the arrival-process shape (Poisson by default).
    #[must_use]
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.config.arrivals = arrivals;
        self
    }

    /// Replace the whole scalar configuration at once (window, seed and
    /// arrivals); later builder calls still override individual fields.
    #[must_use]
    pub fn config(mut self, config: &ServingConfig) -> Self {
        self.config = *config;
        self
    }

    /// Offer explicit per-service ingress classes: `ingress[i]` lists the
    /// arrival classes of `specs[i]`; missing/empty entries fall back to
    /// one local class at the spec rate. Each class's `network_ms` rides
    /// the DES request path and is charged against the SLO.
    #[must_use]
    pub fn ingress(mut self, ingress: &'a [Vec<IngressClass>]) -> Self {
        self.ingress = ingress;
        self
    }

    /// Ride `recovery`'s ops on the event queue: affected servers go dark
    /// at `start_ms`, re-flashes serialize per node, weight copies queue
    /// FIFO on each node's PCIe link, and the measured dip and recovery
    /// latency land in [`ServingReport::recovery`].
    #[must_use]
    pub fn recovery(mut self, recovery: &'a RecoverySpec) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Like [`recovery`](Simulation::recovery), but optional — `None`
    /// clears any previously set spec (bit-identical to never setting one).
    #[must_use]
    pub fn recovery_opt(mut self, recovery: Option<&'a RecoverySpec>) -> Self {
        self.recovery = recovery;
        self
    }

    /// Configure the run's tenants: each [`ServiceSpec::tenant`] binding
    /// resolves against this slice. Limited tenants get a deterministic
    /// admission token bucket at their quota rate; the report gains one
    /// [`TenantReport`](crate::report::TenantReport) rollup per tenant,
    /// and traced runs carry a `tenant` column on request spans and gauge
    /// rows. An empty slice (the default) is bit-identical to the
    /// pre-tenant engine.
    #[must_use]
    pub fn tenants(mut self, tenants: &'a [Tenant]) -> Self {
        self.tenants = tenants;
        self
    }

    /// Override the arrival process per service: `overrides[i]`, when
    /// `Some`, replaces the configured default for `specs[i]` (the
    /// noisy-neighbor axis — e.g. one tenant's services switch to a
    /// bursty MMPP while everyone else stays Poisson). Missing or `None`
    /// entries keep the configured default bit-exactly.
    #[must_use]
    pub fn arrival_overrides(mut self, overrides: &'a [Option<ArrivalProcess>]) -> Self {
        self.arrival_overrides = overrides;
        self
    }

    /// Configure the frontend resilience policy ([`ResilienceSpec`]):
    /// per-attempt timeouts, budgeted retries with backoff, hedging,
    /// queue-depth load shedding and health-checked routing. An absent (or
    /// [inert](ResilienceSpec::is_inert)) spec is bit-identical to the
    /// pre-resilience engine.
    #[must_use]
    pub fn resilience(mut self, resilience: &'a ResilienceSpec) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Like [`resilience`](Simulation::resilience), but optional — `None`
    /// clears any previously set spec (bit-identical to never setting one).
    #[must_use]
    pub fn resilience_opt(mut self, resilience: Option<&'a ResilienceSpec>) -> Self {
        self.resilience = resilience;
        self
    }

    /// The scalar configuration the run will use.
    #[must_use]
    pub fn serving_config(&self) -> &ServingConfig {
        &self.config
    }

    /// Run the simulation. Fully deterministic for a given seed.
    #[must_use]
    pub fn run(&self) -> ServingReport {
        self.run_with(&mut parva_obs::NullSink)
    }

    /// Run the simulation under an observer. With
    /// [`parva_obs::NullSink`] this is exactly [`Simulation::run`]; with
    /// a recording sink (e.g. [`parva_obs::Recorder`]) the engine emits
    /// request/batch/recovery trace spans and per-tick gauge rows.
    /// Observation never changes the report: instrumented runs are
    /// property-tested byte-identical to unobserved ones.
    #[must_use]
    pub fn run_with<S: parva_obs::TraceSink>(&self, sink: &mut S) -> ServingReport {
        let mut engine = self.engine();
        let end = engine.win_end;
        if S::ENABLED {
            // Stamp the measurement window into the trace: every report
            // counter covers `[start_us, end_us)`, so offline analyzers
            // (`parva_obs::analyze`, `parvactl trace audit`) can recompute
            // the report's accounting from spans alone, without the config.
            sink.emit(
                parva_obs::TraceEvent::instant("window", "meta", 0)
                    .pid(parva_obs::PID_SERVE)
                    .arg_u64("start_us", engine.win_start.micros())
                    .arg_u64("end_us", end.micros()),
            );
        }
        engine.advance_to(end, sink);
        parva_des::counters::record(&parva_des::counters::Snapshot {
            sims: 1,
            ..Default::default()
        });
        engine.report(sink)
    }

    /// Build the serving engine without running it: every first arrival
    /// (and the recovery begin, if any) is scheduled and the clock is at
    /// zero. Advance it with [`Engine::advance_to`] or
    /// [`Engine::step_epoch`]; a run advanced to the window's end in any
    /// number of steps reports exactly what [`Simulation::run`] does.
    #[must_use]
    pub fn engine(&self) -> Engine {
        Engine::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parva_core::ParvaGpu;
    use parva_deploy::Scheduler;
    use parva_profile::ProfileBook;
    use parva_scenarios::Scenario;

    fn parva_s2() -> (Deployment, Vec<ServiceSpec>) {
        let book = ProfileBook::builtin();
        let specs = Scenario::S2.services();
        let d = ParvaGpu::new(&book).schedule(&specs).unwrap();
        (d, specs)
    }

    #[test]
    fn builder_methods_compose_and_override() {
        let (d, specs) = parva_s2();
        let base = ServingConfig {
            warmup_s: 1.0,
            duration_s: 4.0,
            drain_s: 2.0,
            seed: 7,
            arrivals: ArrivalProcess::Poisson,
        };
        // config() wholesale, then piecemeal override of one field.
        let a = Simulation::new(&d, &specs).config(&base).seed(11).run();
        let b = Simulation::new(&d, &specs)
            .window(1.0, 4.0, 2.0)
            .seed(11)
            .arrivals(ArrivalProcess::Poisson)
            .run();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn recovery_opt_none_matches_plain() {
        let (d, specs) = parva_s2();
        let plain = Simulation::new(&d, &specs).seed(3).run();
        let none = Simulation::new(&d, &specs).seed(3).recovery_opt(None).run();
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&none).unwrap()
        );
    }
}
