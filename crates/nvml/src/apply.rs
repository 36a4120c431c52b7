//! Executing deployment maps and diffs against the simulated fleet.
//!
//! This is the paper's "Deployment" stage (Fig. 2): once the Segment
//! Allocator returns `optimized G`, ParvaGPU "reconfigures the MIG and MPS
//! of the physical GPUs and then launches inference servers". Here the
//! physical GPUs are [`SimNvml`] devices and the launch is the MPS process
//! count on each instance. A fresh map goes through [`apply_deployment`];
//! a change to a live map goes through [`apply_diff`], which executes the
//! §III-F minimal [`DeploymentDiff`] and nothing else.

use crate::device::{InstanceId, SimNvml};
use crate::error::NvmlError;
use parva_deploy::{DeploymentDiff, MigDeployment, ReconfigOp};
use parva_mig::Placement;
use serde::{Deserialize, Serialize};

/// The binding of one placed segment to a live GPU instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppliedInstance {
    /// The live instance handle.
    pub instance: InstanceId,
    /// Service bound to the instance.
    pub service_id: u32,
    /// Device index.
    pub device: usize,
    /// Placement inside the device.
    pub placement: Placement,
    /// MPS processes launched.
    pub procs: u32,
}

/// Apply a full deployment map to the fleet: enable MIG on every used
/// device, create each segment's instance at its planned placement, and
/// launch its MPS processes. The fleet grows if the map needs more devices.
///
/// The fleet must be clean (no live instances); incremental changes go
/// through [`apply_diff`] instead.
///
/// # Errors
/// Propagates any NVML error; on error the fleet is left as far as the
/// sequence got (callers reset or diff-repair).
pub fn apply_deployment(
    nvml: &mut SimNvml,
    deployment: &MigDeployment,
) -> Result<Vec<AppliedInstance>, NvmlError> {
    if deployment.gpu_count() > nvml.device_count() {
        nvml.grow(deployment.gpu_count() - nvml.device_count());
    }
    for device in 0..deployment.gpu_count() {
        nvml.set_mig_mode(device, true)?;
    }
    let mut applied = Vec::with_capacity(deployment.segments().len());
    for ps in deployment.segments() {
        let id = nvml.create_gpu_instance_at(ps.gpu, ps.placement)?;
        nvml.set_mps_processes(id, ps.segment.triplet.procs)?;
        applied.push(AppliedInstance {
            instance: id,
            service_id: ps.segment.service_id,
            device: ps.gpu,
            placement: ps.placement,
            procs: ps.segment.triplet.procs,
        });
    }
    Ok(applied)
}

/// Execute a diff against the live fleet, in op order (destroys free the
/// slices the creates need).
///
/// # Errors
/// Propagates NVML errors (stale handles, placement conflicts). The fleet
/// must currently realize the diff's `old` side.
pub fn apply_diff(nvml: &mut SimNvml, diff: &DeploymentDiff) -> Result<(), NvmlError> {
    // Resolve (device, placement) → handle for destroys/retunes.
    let lookup = |nvml: &SimNvml, device: usize, placement: Placement| {
        nvml.instances()
            .iter()
            .find(|i| i.device == device && i.placement == placement)
            .map(|i| i.id)
            .ok_or(NvmlError::UnknownInstance { id: 0 })
    };
    for op in &diff.ops {
        match op {
            ReconfigOp::Destroy {
                device, placement, ..
            } => {
                let id = lookup(nvml, *device, *placement)?;
                nvml.destroy_gpu_instance(id)?;
            }
            ReconfigOp::Create {
                device,
                placement,
                segment,
            } => {
                if *device >= nvml.device_count() {
                    nvml.grow(*device + 1 - nvml.device_count());
                }
                nvml.set_mig_mode(*device, true)?;
                let id = nvml.create_gpu_instance_at(*device, *placement)?;
                nvml.set_mps_processes(id, segment.triplet.procs)?;
            }
            ReconfigOp::RetuneMps {
                device,
                placement,
                procs,
            } => {
                let id = lookup(nvml, *device, *placement)?;
                nvml.set_mps_processes(id, *procs)?;
            }
        }
    }
    Ok(())
}

/// Whether the live fleet realizes exactly the deployment map: every used
/// device is MIG-enabled and carries precisely the planned placements (with
/// the planned process counts), and no stray instances exist elsewhere.
#[must_use]
pub fn fleet_matches(nvml: &SimNvml, deployment: &MigDeployment) -> bool {
    // No instances beyond the deployment's devices.
    let stray = nvml
        .instances()
        .iter()
        .any(|i| i.device >= deployment.gpu_count());
    if stray {
        return false;
    }
    for device in 0..deployment.gpu_count() {
        let Ok(dev) = nvml.device(device) else {
            return false;
        };
        if !dev.mig_enabled() {
            return false;
        }
        let mut live: Vec<(Placement, u32)> = nvml
            .instances_on(device)
            .iter()
            .map(|i| (i.placement, i.mps_processes))
            .collect();
        let mut planned: Vec<(Placement, u32)> = deployment
            .segments_on(device)
            .map(|ps| (ps.placement, ps.segment.triplet.procs))
            .collect();
        live.sort_by_key(|(p, _)| (p.start, p.profile.gpcs()));
        planned.sort_by_key(|(p, _)| (p.start, p.profile.gpcs()));
        if live != planned {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use parva_deploy::Segment;
    use parva_mig::{GpuModel, InstanceProfile};
    use parva_perf::Model;
    use parva_profile::Triplet;

    fn seg(id: u32, g: InstanceProfile, procs: u32) -> Segment {
        Segment {
            service_id: id,
            model: Model::ResNet50,
            triplet: Triplet::new(g, 8, procs),
            throughput_rps: 100.0,
            latency_ms: 10.0,
        }
    }

    fn two_gpu_deployment() -> MigDeployment {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(0, InstanceProfile::G4, 2));
        d.place_first_fit(seg(1, InstanceProfile::G3, 3));
        d.place_first_fit(seg(2, InstanceProfile::G7, 1));
        d
    }

    #[test]
    fn apply_realizes_the_map() {
        let mut nvml = SimNvml::new(1, GpuModel::A100_80GB);
        let d = two_gpu_deployment();
        let applied = apply_deployment(&mut nvml, &d).unwrap();
        assert_eq!(applied.len(), 3);
        // The fleet grew to cover the 2-GPU map.
        assert_eq!(nvml.device_count(), 2);
        assert!(nvml.validate());
        assert!(fleet_matches(&nvml, &d));
        // MPS process counts landed.
        let g3 = applied.iter().find(|a| a.service_id == 1).unwrap();
        assert_eq!(nvml.instance(g3.instance).unwrap().mps_processes, 3);
    }

    #[test]
    fn fleet_matches_detects_divergence() {
        let mut nvml = SimNvml::new(2, GpuModel::A100_80GB);
        let d = two_gpu_deployment();
        let applied = apply_deployment(&mut nvml, &d).unwrap();
        assert!(fleet_matches(&nvml, &d));
        // Kill one instance behind the map's back.
        nvml.destroy_gpu_instance(applied[0].instance).unwrap();
        assert!(!fleet_matches(&nvml, &d));
    }

    #[test]
    fn fleet_matches_detects_wrong_procs() {
        let mut nvml = SimNvml::new(2, GpuModel::A100_80GB);
        let d = two_gpu_deployment();
        let applied = apply_deployment(&mut nvml, &d).unwrap();
        nvml.set_mps_processes(applied[1].instance, 1).unwrap();
        assert!(!fleet_matches(&nvml, &d));
    }

    #[test]
    fn fleet_matches_detects_stray_instances() {
        let mut nvml = SimNvml::new(3, GpuModel::A100_80GB);
        let d = two_gpu_deployment();
        apply_deployment(&mut nvml, &d).unwrap();
        nvml.set_mig_mode(2, true).unwrap();
        nvml.create_gpu_instance(2, InstanceProfile::G1).unwrap();
        assert!(!fleet_matches(&nvml, &d), "stray instance on device 2");
    }

    fn diff(old: &MigDeployment, new: &MigDeployment) -> DeploymentDiff {
        DeploymentDiff::between(old.slots(), new.slots())
    }

    #[test]
    fn apply_diff_converges_fleet_to_new_map() {
        let old = two_gpu_deployment();
        let mut new = MigDeployment::new();
        new.place_first_fit(seg(0, InstanceProfile::G4, 2));
        new.place_first_fit(seg(5, InstanceProfile::G3, 2)); // new service
        new.place_first_fit(seg(2, InstanceProfile::G7, 3)); // retune

        let mut nvml = SimNvml::new(1, GpuModel::A100_80GB);
        apply_deployment(&mut nvml, &old).unwrap();
        apply_diff(&mut nvml, &diff(&old, &new)).unwrap();
        assert!(nvml.validate());
        assert!(fleet_matches(&nvml, &new));
    }

    #[test]
    fn apply_diff_grows_the_fleet_for_new_devices() {
        let old = MigDeployment::new();
        let mut new = MigDeployment::new();
        new.place_first_fit(seg(0, InstanceProfile::G7, 1));
        new.place_first_fit(seg(1, InstanceProfile::G7, 1));
        let mut nvml = SimNvml::new(0, GpuModel::A100_80GB);
        apply_diff(&mut nvml, &diff(&old, &new)).unwrap();
        assert_eq!(nvml.device_count(), 2);
        assert!(fleet_matches(&nvml, &new));
    }

    #[test]
    fn empty_deployment_is_trivially_matched() {
        let nvml = SimNvml::new(0, GpuModel::A100_80GB);
        assert!(fleet_matches(&nvml, &MigDeployment::new()));
    }
}
