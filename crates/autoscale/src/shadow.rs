//! Shadow-process reconfiguration windows — paper §III-F, quantified.
//!
//! "To prevent service disruptions during brief periods of reconfiguration
//! of MIG and MPS, which can range from milliseconds to a few seconds,
//! services undergoing reconfiguration can continue operating using shadow
//! processes on spare GPUs." The paper defers this to future work; this
//! module implements the proposal in the serving simulator and measures
//! what it buys.
//!
//! A reconfiguration window is simulated three ways:
//!
//! 1. **before** — the old deployment, undisturbed (control);
//! 2. **blackout** — the old deployment with every segment on a
//!    reconfiguring GPU offline (what a shadow-less switch does for the
//!    duration of the MIG rebuild);
//! 3. **shadowed** — the blackout deployment plus shadow segments on spare
//!    GPUs replicating the offline capacity.
//!
//! The gap between (2) and (3) is the §III-F claim: shadow processes keep
//! the affected services' compliance at control levels for the price of
//! [`DisplacementWindow::shadow_gpus`] temporary GPUs.

use parva_core::reconfigure::ReconfigOutcome;
use parva_deploy::{Deployment, MigDeployment, PlacedSegment, ServiceSpec};
use parva_serve::{ServingConfig, Simulation};
use serde::{Deserialize, Serialize};

/// Compliance of the three window variants. All three use *request-level*
/// compliance (in-SLO completions over offered requests): the paper's
/// batch-level Fig. 8 metric cannot see a blackout, because a service with
/// zero capacity completes zero batches and trivially scores 100%.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DisruptionReport {
    /// Services with capacity on a reconfiguring GPU.
    pub affected_services: Vec<u32>,
    /// Request-level compliance of the undisturbed deployment.
    pub control_compliance: f64,
    /// Compliance with the reconfiguring GPUs dark and no shadows.
    pub blackout_compliance: f64,
    /// Compliance with shadow segments covering the dark capacity.
    pub shadowed_compliance: f64,
    /// Spare GPUs the shadow fleet occupied.
    pub shadow_gpus: usize,
}

impl DisruptionReport {
    /// Compliance the shadows recovered (shadowed − blackout).
    #[must_use]
    pub fn recovered(&self) -> f64 {
        self.shadowed_compliance - self.blackout_compliance
    }
}

/// Segments resident on the GPUs being reconfigured.
fn doomed_segments(before: &MigDeployment, gpus: &[usize]) -> Vec<PlacedSegment> {
    before
        .segments()
        .iter()
        .filter(|ps| gpus.contains(&ps.gpu))
        .copied()
        .collect()
}

/// Simulate a reconfiguration window for `outcome` against the offered
/// load, with and without shadow processes.
#[must_use]
pub fn simulate_window(
    before: &MigDeployment,
    outcome: &ReconfigOutcome,
    specs: &[ServiceSpec],
    config: &ServingConfig,
) -> DisruptionReport {
    simulate_displacement_window(before, &outcome.reconfigured_gpus, specs, config)
}

/// The three deployments a displacement window compares, built but not yet
/// simulated — callers that memoize serving runs (the fleet orchestrator's
/// probe cache) construct the variants once and feed each through their
/// own simulation path.
#[derive(Debug, Clone)]
pub struct DisplacementWindow {
    /// Services with capacity on a displaced GPU, ascending, deduplicated.
    pub affected_services: Vec<u32>,
    /// The displaced deployment: every doomed segment removed, GPU indices
    /// unchanged.
    pub blackout: MigDeployment,
    /// The blackout deployment plus shadow replicas on spare GPUs.
    pub shadowed: MigDeployment,
    /// Spare GPUs the shadow fleet occupied.
    pub shadow_gpus: usize,
}

/// Build the blackout and shadowed variants for losing `displaced_gpus`
/// out of `before` — pure construction, no simulation. The GPU indices
/// refer to `before`'s (logical) fleet order.
#[must_use]
pub fn displacement_window(before: &MigDeployment, displaced_gpus: &[usize]) -> DisplacementWindow {
    let doomed = doomed_segments(before, displaced_gpus);
    let mut affected: Vec<u32> = doomed.iter().map(|ps| ps.segment.service_id).collect();
    affected.sort_unstable();
    affected.dedup();

    // Blackout: the reconfiguring GPUs' segments are gone; GPU indices
    // must stay stable (no compact) so the untouched fleet is unchanged.
    let mut blackout = before.clone();
    for ps in &doomed {
        blackout.remove(ps.gpu, ps.placement);
    }

    // Shadowed: replicate the dark segments on spare GPUs appended to
    // the fleet. The shadow first-fit scans the spare region only — reusing
    // the blackout holes would defeat the purpose (those slices are mid-
    // rebuild).
    let mut shadowed = blackout.clone();
    let spare_base = before.gpu_count();
    for ps in &doomed {
        let profile = ps.segment.triplet.instance;
        let slot = (spare_base..shadowed.gpu_count())
            .find_map(|gpu| shadowed.gpus()[gpu].find_start(profile).map(|s| (gpu, s)));
        let (gpu, start) = slot.unwrap_or((
            shadowed.gpu_count().max(spare_base),
            profile.preferred_starts()[0],
        ));
        shadowed
            .place_at(ps.segment, gpu, parva_mig::Placement::new(profile, start))
            .expect("spare GPU hosts any profile");
    }
    let shadow_gpus = shadowed.gpu_count() - before.gpu_count();
    DisplacementWindow {
        affected_services: affected,
        blackout,
        shadowed,
        shadow_gpus,
    }
}

/// Simulate a disruption window in which the segments on `displaced_gpus`
/// are offline, with and without shadow processes — the event-driven form
/// of [`simulate_window`] used when capacity is lost to node failures or
/// spot preemptions rather than to a planned reconfiguration. The GPU
/// indices refer to `before`'s (logical) fleet order.
#[must_use]
pub fn simulate_displacement_window(
    before: &MigDeployment,
    displaced_gpus: &[usize],
    specs: &[ServiceSpec],
    config: &ServingConfig,
) -> DisruptionReport {
    let window = displacement_window(before, displaced_gpus);

    let control = Simulation::new(&Deployment::Mig(before.clone()), specs)
        .config(config)
        .run()
        .overall_request_compliance_rate();
    let blackout_compliance = Simulation::new(&Deployment::Mig(window.blackout), specs)
        .config(config)
        .run()
        .overall_request_compliance_rate();
    let shadowed_compliance = Simulation::new(&Deployment::Mig(window.shadowed), specs)
        .config(config)
        .run()
        .overall_request_compliance_rate();

    DisruptionReport {
        affected_services: window.affected_services,
        control_compliance: control,
        blackout_compliance,
        shadowed_compliance,
        shadow_gpus: window.shadow_gpus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parva_core::{reconfigure, ParvaGpu};
    use parva_profile::ProfileBook;
    use parva_scenarios::Scenario;

    fn quick() -> ServingConfig {
        ServingConfig {
            warmup_s: 1.0,
            duration_s: 4.0,
            drain_s: 2.0,
            seed: 17,
            ..Default::default()
        }
    }

    /// A reconfiguration that disturbs *existing* GPUs: a 3× rate spike on
    /// service 8 (ResNet-50) grows its segment set, and the relocation +
    /// optimization pass reshapes live GPUs, not just appended ones.
    fn churned() -> (MigDeployment, ReconfigOutcome, Vec<ServiceSpec>) {
        let book = ProfileBook::builtin();
        let sched = ParvaGpu::new(&book);
        let mut specs = Scenario::S2.services();
        let (services, before) = sched.plan(&specs).unwrap();
        let updated = ServiceSpec::new(
            8,
            specs[8].model,
            specs[8].request_rate_rps * 3.0,
            specs[8].slo.latency_ms,
        );
        let outcome = reconfigure::update_service(&sched, &before, &services, updated)
            .expect("spike reconfig feasible");
        let disturbs_live = outcome
            .reconfigured_gpus
            .iter()
            .any(|g| before.segments_on(*g).next().is_some());
        assert!(
            disturbs_live,
            "spike must disturb live GPUs for this fixture"
        );
        specs[8] = updated;
        (before, outcome, specs)
    }

    #[test]
    fn blackout_hurts_shadows_recover() {
        let (before, outcome, specs) = churned();
        assert!(!outcome.reconfigured_gpus.is_empty(), "churn expected");
        // Offered load during the window is the *old* spec set (the new
        // rate takes effect after the switch).
        let old_specs = Scenario::S2.services();
        let report = simulate_window(&before, &outcome, &old_specs, &quick());
        assert!(!report.affected_services.is_empty());
        assert!(report.control_compliance > 0.99);
        assert!(
            report.blackout_compliance < report.control_compliance - 1e-3,
            "blackout {:.4} should hurt vs control {:.4}",
            report.blackout_compliance,
            report.control_compliance
        );
        assert!(
            report.shadowed_compliance >= report.control_compliance - 0.01,
            "shadows {:.4} should restore control {:.4}",
            report.shadowed_compliance,
            report.control_compliance
        );
        assert!(report.recovered() > 0.0);
        assert!(report.shadow_gpus > 0);
        let _ = specs;
    }

    #[test]
    fn no_churn_means_no_disruption() {
        let book = ProfileBook::builtin();
        let sched = ParvaGpu::new(&book);
        let specs = Scenario::S1.services();
        let (services, before) = sched.plan(&specs).unwrap();
        let outcome = reconfigure::update_service(&sched, &before, &services, specs[0]).unwrap();
        assert!(outcome.reconfigured_gpus.is_empty());
        let report = simulate_window(&before, &outcome, &specs, &quick());
        assert!(report.affected_services.is_empty());
        assert_eq!(report.shadow_gpus, 0);
        assert!((report.blackout_compliance - report.control_compliance).abs() < 1e-9);
    }

    #[test]
    fn shadow_fleet_size_matches_the_torn_down_capacity() {
        let (before, outcome, _) = churned();
        let window = displacement_window(&before, &outcome.reconfigured_gpus);
        // First-fit packing of the doomed segments needs at most one spare
        // GPU more than their GPCs fill (7 GPCs per GPU).
        let torn_down: u32 = doomed_segments(&before, &outcome.reconfigured_gpus)
            .iter()
            .map(|ps| u32::from(ps.segment.gpcs()))
            .sum();
        let bound = torn_down.div_ceil(u32::from(parva_mig::COMPUTE_SLICES)) + 1;
        assert!(
            window.shadow_gpus as u32 <= bound,
            "{} spare GPUs for {torn_down} torn-down GPCs",
            window.shadow_gpus
        );
    }
}
