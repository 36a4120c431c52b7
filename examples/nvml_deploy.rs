//! Deployment execution against the (simulated) NVML layer — what the
//! paper's Fig. 2 "Deployment" arrow does: reconfigure MIG/MPS on physical
//! GPUs, then apply an SLO change with the §III-F minimal diff.
//!
//! Run: `cargo run --example nvml_deploy`

use parvagpu::autoscale::displacement_window;
use parvagpu::core::reconfigure;
use parvagpu::deploy::DeploymentDiff;
use parvagpu::nvml::{apply_deployment, apply_diff, fleet_matches, SimNvml};
use parvagpu::prelude::*;

fn main() {
    let book = ProfileBook::builtin();
    let scheduler = ParvaGpu::new(&book);
    let specs = Scenario::S1.services();
    let (services, deployment) = scheduler.plan(&specs).expect("S1 feasible");

    // Apply the plan to a fresh fleet.
    let mut nvml = SimNvml::new(0, GpuModel::A100_80GB);
    let applied = apply_deployment(&mut nvml, &deployment).expect("clean fleet");
    println!(
        "applied {} instances across {} devices:",
        applied.len(),
        nvml.device_count()
    );
    for dev in 0..nvml.device_count() {
        let names: Vec<String> = nvml
            .instances_on(dev)
            .iter()
            .map(|i| i.profile_name())
            .collect();
        println!(
            "  {}  [{}]",
            nvml.device(dev).unwrap().uuid,
            names.join(" | ")
        );
    }
    assert!(fleet_matches(&nvml, &deployment));

    // A service's rate spikes 4× → incremental reconfiguration (§III-F).
    let updated = ServiceSpec::new(
        specs[2].id,
        specs[2].model,
        specs[2].request_rate_rps * 4.0,
        specs[2].slo.latency_ms,
    );
    println!(
        "\nrate spike: {} → {:.0} req/s",
        specs[2], updated.request_rate_rps
    );
    let outcome = reconfigure::update_service(&scheduler, &deployment, &services, updated)
        .expect("reconfig feasible");

    let diff = DeploymentDiff::between(deployment.slots(), outcome.deployment.slots());
    println!(
        "minimal diff: {} slots kept, {} MIG rebuilds, {} MPS retunes, GPUs touched: {:?}",
        diff.kept.len(),
        diff.mig_rebuilds(),
        diff.ops.len() - diff.mig_rebuilds(),
        diff.mig_touched_devices(),
    );
    let shadow = displacement_window(&deployment, &outcome.reconfigured_gpus);
    println!(
        "shadow window: services {:?} bridged on {} spare GPU(s) during the switch",
        shadow.affected_services, shadow.shadow_gpus
    );

    apply_diff(&mut nvml, &diff).expect("diff applies");
    assert!(fleet_matches(&nvml, &outcome.deployment));
    println!("\nfleet after the diff ({} devices):", nvml.device_count());
    for dev in 0..nvml.device_count() {
        let names: Vec<String> = nvml
            .instances_on(dev)
            .iter()
            .map(|i| i.profile_name())
            .collect();
        println!("  device {dev}  [{}]", names.join(" | "));
    }
}
