//! Integration: the full ParvaGPU pipeline executed against the simulated
//! NVML fleet — schedule → apply → reconfigure → minimal diff (§III-F).

use parva_core::{reconfigure, ParvaGpu};
use parva_deploy::{DeploymentDiff, ReconfigOp, ServiceSpec};
use parva_mig::GpuModel;
use parva_nvml::{apply_deployment, apply_diff, fleet_matches, SimNvml};
use parva_profile::ProfileBook;
use parva_scenarios::Scenario;

#[test]
fn s2_deployment_applies_to_fleet() {
    let book = ProfileBook::builtin();
    let scheduler = ParvaGpu::new(&book);
    let (_, deployment) = scheduler
        .plan(&Scenario::S2.services())
        .expect("S2 feasible");
    let mut nvml = SimNvml::new(0, GpuModel::A100_80GB);
    let applied = apply_deployment(&mut nvml, &deployment).expect("apply clean fleet");
    assert_eq!(applied.len(), deployment.segments().len());
    assert!(nvml.validate());
    assert!(fleet_matches(&nvml, &deployment));
    // Every applied instance carries the planned MPS process count.
    for a in &applied {
        assert_eq!(nvml.instance(a.instance).unwrap().mps_processes, a.procs);
    }
}

#[test]
fn slo_change_reconfigures_minimally() {
    let book = ProfileBook::builtin();
    let scheduler = ParvaGpu::new(&book);
    let specs = Scenario::S2.services();
    let (services, before) = scheduler.plan(&specs).expect("S2 feasible");

    // Service 8 (ResNet-50) gets a stricter SLO: 205 ms → 150 ms.
    let updated = ServiceSpec::new(8, specs[8].model, specs[8].request_rate_rps, 150.0);
    assert_eq!(specs[8].id, 8);
    let outcome =
        reconfigure::update_service(&scheduler, &before, &services, updated).expect("reconfig");

    let diff = DeploymentDiff::between(before.slots(), outcome.deployment.slots());

    // §III-F: MIG-level reconfiguration must be confined to the GPUs the
    // reconfigurator reports as changed. (MPS retunes — same instance, new
    // batch/procs — may land elsewhere; they are server relaunches, not MIG
    // layout changes.)
    for dev in diff.mig_touched_devices() {
        assert!(
            outcome.reconfigured_gpus.contains(&dev),
            "diff rebuilds instances on GPU {dev} that the reconfigurator did not report"
        );
    }

    // Slots on untouched GPUs are all kept as-is or at most MPS-retuned —
    // never rebuilt.
    let untouched_before = before
        .segments()
        .iter()
        .filter(|ps| !outcome.reconfigured_gpus.contains(&ps.gpu))
        .count();
    let kept_on_untouched = diff
        .kept
        .iter()
        .filter(|(dev, _, _)| !outcome.reconfigured_gpus.contains(dev))
        .count();
    let retuned_on_untouched = diff
        .ops
        .iter()
        .filter(|op| match op {
            ReconfigOp::RetuneMps { device, .. } => !outcome.reconfigured_gpus.contains(device),
            _ => false,
        })
        .count();
    assert_eq!(untouched_before, kept_on_untouched + retuned_on_untouched);

    // The fleet converges by executing only the diff.
    let mut nvml = SimNvml::new(0, GpuModel::A100_80GB);
    apply_deployment(&mut nvml, &before).unwrap();
    apply_diff(&mut nvml, &diff).unwrap();
    assert!(nvml.validate());
    assert!(fleet_matches(&nvml, &outcome.deployment));
}

#[test]
fn unchanged_slo_means_zero_ops() {
    let book = ProfileBook::builtin();
    let scheduler = ParvaGpu::new(&book);
    let specs = Scenario::S1.services();
    let (services, before) = scheduler.plan(&specs).expect("S1 feasible");
    // "Update" a service to its identical spec.
    let outcome = reconfigure::update_service(&scheduler, &before, &services, specs[0])
        .expect("no-op reconfig");
    let diff = DeploymentDiff::between(before.slots(), outcome.deployment.slots());
    assert!(
        diff.ops.is_empty(),
        "no-op update must not touch the fleet: {:?}",
        diff.ops
    );
    assert_eq!(diff.kept.len(), before.segments().len());
}

#[test]
fn fresh_schedule_vs_diff_converge_to_same_fleet() {
    // Reconfiguring via diff and redeploying from scratch must land on
    // physically identical fleets.
    let book = ProfileBook::builtin();
    let scheduler = ParvaGpu::new(&book);
    let specs = Scenario::S1.services();
    let (services, before) = scheduler.plan(&specs).expect("S1 feasible");
    let updated = ServiceSpec::new(
        specs[2].id,
        specs[2].model,
        specs[2].request_rate_rps * 1.5,
        specs[2].slo.latency_ms,
    );
    let outcome =
        reconfigure::update_service(&scheduler, &before, &services, updated).expect("reconfig");

    let mut via_diff = SimNvml::new(0, GpuModel::A100_80GB);
    apply_deployment(&mut via_diff, &before).unwrap();
    apply_diff(
        &mut via_diff,
        &DeploymentDiff::between(before.slots(), outcome.deployment.slots()),
    )
    .unwrap();

    let mut fresh = SimNvml::new(0, GpuModel::A100_80GB);
    apply_deployment(&mut fresh, &outcome.deployment).unwrap();

    assert!(fleet_matches(&via_diff, &outcome.deployment));
    assert!(fleet_matches(&fresh, &outcome.deployment));
}

#[test]
fn telemetry_tracks_applied_instances() {
    use parva_nvml::{FieldId, FieldSample, TelemetryStore};
    let book = ProfileBook::builtin();
    let scheduler = ParvaGpu::new(&book);
    let (_, deployment) = scheduler
        .plan(&Scenario::S1.services())
        .expect("S1 feasible");
    let mut nvml = SimNvml::new(0, GpuModel::A100_80GB);
    let applied = apply_deployment(&mut nvml, &deployment).unwrap();

    // Report a plausible activity for every instance and aggregate Eq. 3.
    let mut telemetry = TelemetryStore::new();
    for (k, a) in applied.iter().enumerate() {
        telemetry.record(
            a.instance,
            FieldId::SmActivity,
            FieldSample {
                timestamp_us: 1_000,
                value: 0.90 + 0.01 * (k % 5) as f64,
            },
        );
    }
    let weights: Vec<_> = applied
        .iter()
        .map(|a| (a.instance, a.placement.profile.sms()))
        .collect();
    let activity = telemetry
        .weighted_activity(&weights)
        .expect("all instances sampled");
    assert!(activity > 0.89 && activity < 0.95, "{activity}");
}
