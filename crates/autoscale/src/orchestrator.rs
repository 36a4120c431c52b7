//! The epoch-based control loop: reschedule incrementally, serve, account.

use crate::estimator::DemandEstimator;
use crate::trace::RateTrace;
use parva_core::{configure, reconfigure, ParvaGpu, Service};
use parva_deploy::{Deployment, DeploymentDiff, MigDeployment, ScheduleError, ServiceSpec};
use parva_profile::ProfileBook;
use parva_serve::{ServingConfig, ServingReport, Simulation};
use serde::{Deserialize, Serialize};

/// Outcome of one trace epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// The trace multiplier in effect.
    pub multiplier: f64,
    /// Fleet size after rescheduling.
    pub gpus: usize,
    /// GPUs whose MIG layout changed entering this epoch (reconfiguration
    /// churn — each needs a brief shadow-process bridge, paper §III-F).
    pub reconfigured_gpus: usize,
    /// Batch-weighted SLO compliance measured over the epoch.
    pub compliance: f64,
    /// Internal slack (Eq. 3) measured over the epoch.
    pub internal_slack: f64,
}

/// Full report of a traced run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceReport {
    /// Per-epoch outcomes.
    pub epochs: Vec<EpochReport>,
}

impl TraceReport {
    /// Worst-epoch compliance.
    #[must_use]
    pub fn min_compliance(&self) -> f64 {
        self.epochs.iter().map(|e| e.compliance).fold(1.0, f64::min)
    }

    /// Peak fleet size across epochs.
    #[must_use]
    pub fn peak_gpus(&self) -> usize {
        self.epochs.iter().map(|e| e.gpus).max().unwrap_or(0)
    }

    /// Total reconfiguration churn (GPU reconfigurations summed over
    /// epochs).
    #[must_use]
    pub fn total_reconfigurations(&self) -> usize {
        self.epochs.iter().map(|e| e.reconfigured_gpus).sum()
    }
}

/// Present the oracle multiplier to the estimator as a perfect one-epoch
/// observation and read the demand specs back. All demand — oracle or
/// measured — flows through [`DemandEstimator`], so the legacy traced runs
/// and the `parvad` closed loop share one capacity-planning pathway.
fn oracle_specs(
    estimator: &mut DemandEstimator,
    base: &[ServiceSpec],
    multiplier: f64,
) -> Vec<ServiceSpec> {
    let observed: Vec<f64> = base
        .iter()
        .map(|s| s.request_rate_rps * multiplier)
        .collect();
    estimator.observe(&observed);
    estimator.demand_specs(base)
}

/// Run `base` services through `trace`, rescheduling at each epoch boundary
/// via the paper's incremental reconfiguration path (§III-F) and serving
/// each epoch in the simulator.
///
/// Epoch 0 performs a full plan; subsequent epochs apply per-service
/// [`reconfigure::update_service`] steps (every service's rate changes, but
/// each step keeps all other services' placements where possible, so churn
/// stays visible and bounded).
///
/// # Errors
/// Propagates scheduling failures (e.g. an infeasible peak multiplier).
#[deprecated(
    since = "0.1.0",
    note = "oracle-fed demand; drive the loop from observed arrivals via \
            `DemandEstimator` (the `parvad` daemon does) instead"
)]
pub fn run_traced(
    book: &ProfileBook,
    base: &[ServiceSpec],
    trace: &RateTrace,
    serving: &ServingConfig,
) -> Result<TraceReport, ScheduleError> {
    let scheduler = ParvaGpu::new(book);
    let mut epochs = Vec::with_capacity(trace.epochs());
    // Window 1 + unit headroom: the oracle multiplier passes through the
    // estimator unchanged.
    let mut estimator = DemandEstimator::new(base.len(), 1);

    // Epoch 0: full plan.
    let specs0 = oracle_specs(&mut estimator, base, trace.multiplier(0));
    let (mut services, mut deployment): (Vec<Service>, MigDeployment) = scheduler.plan(&specs0)?;
    let report0 = Simulation::new(&Deployment::Mig(deployment.clone()), &specs0)
        .config(serving)
        .run();
    epochs.push(epoch_report(
        0,
        trace.multiplier(0),
        &deployment,
        0,
        &report0,
    ));

    for epoch in 1..trace.epochs() {
        let specs = oracle_specs(&mut estimator, base, trace.multiplier(epoch));
        let mut churn = std::collections::BTreeSet::new();
        // Incremental per-service updates through the reconfiguration path.
        for spec in &specs {
            let outcome = reconfigure::update_service(&scheduler, &deployment, &services, *spec)?;
            churn.extend(outcome.reconfigured_gpus.iter().copied());
            deployment = outcome.deployment;
            let slot = services
                .iter()
                .position(|s| s.spec.id == spec.id)
                .expect("service set is stable across epochs");
            services[slot] = outcome.service;
        }
        let report = Simulation::new(&Deployment::Mig(deployment.clone()), &specs)
            .config(serving)
            .run();
        epochs.push(epoch_report(
            epoch,
            trace.multiplier(epoch),
            &deployment,
            churn.len(),
            &report,
        ));
    }
    Ok(TraceReport { epochs })
}

fn epoch_report(
    epoch: usize,
    multiplier: f64,
    deployment: &MigDeployment,
    reconfigured: usize,
    report: &ServingReport,
) -> EpochReport {
    EpochReport {
        epoch,
        multiplier,
        gpus: deployment.gpu_count(),
        reconfigured_gpus: reconfigured,
        compliance: report.overall_compliance_rate(),
        internal_slack: report.internal_slack(),
    }
}

/// Convenience: full (non-incremental) re-plan per epoch, for comparing
/// churn against the incremental path.
///
/// # Errors
/// Propagates scheduling failures.
#[deprecated(
    since = "0.1.0",
    note = "oracle-fed demand; drive the loop from observed arrivals via \
            `DemandEstimator` (the `parvad` daemon does) instead"
)]
pub fn run_traced_replan(
    book: &ProfileBook,
    base: &[ServiceSpec],
    trace: &RateTrace,
    serving: &ServingConfig,
) -> Result<TraceReport, ScheduleError> {
    let scheduler = ParvaGpu::new(book);
    let mut epochs = Vec::with_capacity(trace.epochs());
    let mut estimator = DemandEstimator::new(base.len(), 1);
    let mut prev: Option<MigDeployment> = None;
    for epoch in 0..trace.epochs() {
        let specs = oracle_specs(&mut estimator, base, trace.multiplier(epoch));
        let services = configure(&specs, scheduler.book(), scheduler.max_procs())?;
        let deployment = parva_core::allocator::allocate(&services, scheduler.allocator_config());
        let churn = prev.as_ref().map_or(0, |p| {
            DeploymentDiff::between(p.slots(), deployment.slots())
                .mig_touched_devices()
                .len()
        });
        let report = Simulation::new(&Deployment::Mig(deployment.clone()), &specs)
            .config(serving)
            .run();
        epochs.push(epoch_report(
            epoch,
            trace.multiplier(epoch),
            &deployment,
            churn,
            &report,
        ));
        prev = Some(deployment);
    }
    Ok(TraceReport { epochs })
}

#[cfg(test)]
#[allow(deprecated)] // the oracle-fed entry points stay covered until removal
mod tests {
    use super::*;
    use parva_perf::Model;

    fn base() -> Vec<ServiceSpec> {
        vec![
            ServiceSpec::new(0, Model::ResNet50, 600.0, 205.0),
            ServiceSpec::new(1, Model::MobileNetV2, 500.0, 167.0),
            ServiceSpec::new(2, Model::DenseNet121, 300.0, 183.0),
        ]
    }

    fn quick() -> ServingConfig {
        ServingConfig {
            warmup_s: 0.5,
            duration_s: 2.0,
            drain_s: 1.0,
            seed: 5,
            ..Default::default()
        }
    }

    #[test]
    fn flat_trace_no_churn_after_epoch0() {
        let book = ProfileBook::builtin();
        let report = run_traced(&book, &base(), &RateTrace::flat(3), &quick()).unwrap();
        assert_eq!(report.epochs.len(), 3);
        // Identical rates → reconfiguration is a no-op.
        for e in &report.epochs[1..] {
            assert_eq!(e.reconfigured_gpus, 0, "epoch {} churned", e.epoch);
        }
    }

    #[test]
    fn diurnal_trace_meets_slo_every_epoch() {
        let book = ProfileBook::builtin();
        let report =
            run_traced(&book, &base(), &RateTrace::diurnal(6, 0.4, 1.6), &quick()).unwrap();
        assert!(
            report.min_compliance() > 0.999,
            "worst epoch compliance {:.4}",
            report.min_compliance()
        );
    }

    #[test]
    fn spike_grows_then_shrinks_fleet() {
        let book = ProfileBook::builtin();
        let report = run_traced(&book, &base(), &RateTrace::spike(5, 4.0, 1), &quick()).unwrap();
        let gpus: Vec<usize> = report.epochs.iter().map(|e| e.gpus).collect();
        let peak = report.peak_gpus();
        assert!(peak > gpus[0], "spike did not grow the fleet: {gpus:?}");
        assert!(
            *gpus.last().unwrap() <= gpus[0] + 1,
            "fleet did not shrink back: {gpus:?}"
        );
    }

    #[test]
    fn ramp_fleet_monotone() {
        let book = ProfileBook::builtin();
        let report = run_traced(&book, &base(), &RateTrace::ramp(4, 0.5, 2.0), &quick()).unwrap();
        let gpus: Vec<usize> = report.epochs.iter().map(|e| e.gpus).collect();
        for w in gpus.windows(2) {
            assert!(
                w[1] + 1 >= w[0],
                "fleet shrank under growing load: {gpus:?}"
            );
        }
    }

    #[test]
    fn replan_baseline_runs() {
        let book = ProfileBook::builtin();
        let inc = run_traced(&book, &base(), &RateTrace::diurnal(4, 0.5, 1.5), &quick()).unwrap();
        let rep =
            run_traced_replan(&book, &base(), &RateTrace::diurnal(4, 0.5, 1.5), &quick()).unwrap();
        assert_eq!(inc.epochs.len(), rep.epochs.len());
        // Both serve all epochs compliantly.
        assert!(inc.min_compliance() > 0.999);
        assert!(rep.min_compliance() > 0.999);
    }

    #[test]
    fn infeasible_peak_fails_loudly() {
        let book = ProfileBook::builtin();
        let tight = vec![ServiceSpec::new(0, Model::BertLarge, 100.0, 100.0)];
        // 100× the rate with a tight SLO eventually exceeds feasibility?
        // BERT at SLO 100ms is schedulable; push the multiplier absurdly
        // high and it still schedules (more GPUs) — so instead make the SLO
        // infeasible outright.
        let impossible = vec![ServiceSpec::new(0, Model::BertLarge, 100.0, 2.0)];
        assert!(run_traced(&book, &impossible, &RateTrace::flat(2), &quick()).is_err());
        assert!(run_traced(&book, &tight, &RateTrace::flat(1), &quick()).is_ok());
    }
}
