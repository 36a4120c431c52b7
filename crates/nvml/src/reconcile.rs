//! Level-based reconciliation: observed fleet state vs the deployment map.
//!
//! [`crate::apply`] and its diffs are edge-triggered — they assume the
//! fleet is exactly where the last operation left it. Real fleets drift:
//! an operator deletes an instance by hand, a driver reset wipes a device,
//! a stray experiment leaves an instance behind. The reconciler closes the
//! loop the way production controllers do: *observe* the live fleet,
//! *compare* against the target deployment map, and emit exactly the
//! operations that converge the fleet — repeatedly safe, idempotent.

use crate::apply::apply_diff;
use crate::device::SimNvml;
use crate::error::NvmlError;
use parva_deploy::{DeploymentDiff, MigDeployment, ReconfigOp};
use serde::{Deserialize, Serialize};

/// What the reconciler found and did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReconcileReport {
    /// Instances present in the fleet but absent from the map (destroyed).
    pub strays_removed: usize,
    /// Map slots missing from the fleet (created).
    pub missing_created: usize,
    /// Instances whose MPS process count diverged (retuned).
    pub retuned: usize,
}

impl ReconcileReport {
    /// True when the fleet already matched the map.
    #[must_use]
    pub fn converged_already(&self) -> bool {
        self.strays_removed == 0 && self.missing_created == 0 && self.retuned == 0
    }
}

/// Compute the operations converging the live fleet to `target`.
///
/// Unlike [`DeploymentDiff::between`], the "old" side here is the
/// *observed* fleet — so drift of any origin is repaired, not just drift
/// the caller knows about.
#[must_use]
pub fn reconcile_plan(nvml: &SimNvml, target: &MigDeployment) -> DeploymentDiff {
    let mut diff = DeploymentDiff::default();
    let mut destroys = Vec::new();
    let mut creates = Vec::new();
    let mut retunes = Vec::new();

    // Observed instances not in the target (or with wrong profile) → stray.
    for inst in nvml.instances() {
        let planned = target
            .segments_on(inst.device)
            .find(|ps| ps.placement == inst.placement);
        match planned {
            Some(ps) if ps.segment.triplet.procs == inst.mps_processes => {
                diff.kept
                    .push((inst.device, inst.placement, ps.segment.service_id));
            }
            Some(ps) => retunes.push(ReconfigOp::RetuneMps {
                device: inst.device,
                placement: inst.placement,
                procs: ps.segment.triplet.procs,
            }),
            None => destroys.push(ReconfigOp::Destroy {
                device: inst.device,
                placement: inst.placement,
                // Observed state carries no service binding; 0 marks "stray".
                service_id: 0,
            }),
        }
    }
    // Target slots with no live instance → missing.
    for ps in target.segments() {
        let live = nvml
            .instances()
            .iter()
            .any(|i| i.device == ps.gpu && i.placement == ps.placement);
        if !live {
            creates.push(ReconfigOp::Create {
                device: ps.gpu,
                placement: ps.placement,
                segment: ps.segment,
            });
        }
    }
    diff.ops = destroys;
    diff.ops.extend(creates);
    diff.ops.extend(retunes);
    diff
}

/// Observe, plan, converge. Idempotent: a second call is a no-op.
///
/// # Errors
/// Propagates NVML errors from executing the plan.
pub fn reconcile(nvml: &mut SimNvml, target: &MigDeployment) -> Result<ReconcileReport, NvmlError> {
    let plan = reconcile_plan(nvml, target);
    let report = ReconcileReport {
        strays_removed: plan
            .ops
            .iter()
            .filter(|o| matches!(o, ReconfigOp::Destroy { .. }))
            .count(),
        missing_created: plan
            .ops
            .iter()
            .filter(|o| matches!(o, ReconfigOp::Create { .. }))
            .count(),
        retuned: plan
            .ops
            .iter()
            .filter(|o| matches!(o, ReconfigOp::RetuneMps { .. }))
            .count(),
    };
    apply_diff(nvml, &plan)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::{apply_deployment, fleet_matches};
    use parva_deploy::Segment;
    use parva_mig::{GpuModel, InstanceProfile, Placement};
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

    fn target() -> MigDeployment {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(0, InstanceProfile::G4, 2));
        d.place_first_fit(seg(1, InstanceProfile::G3, 3));
        d.place_first_fit(seg(2, InstanceProfile::G2, 1));
        d
    }

    fn converged_fleet() -> SimNvml {
        let mut nvml = SimNvml::new(0, GpuModel::A100_80GB);
        apply_deployment(&mut nvml, &target()).unwrap();
        nvml
    }

    #[test]
    fn converged_fleet_is_a_noop() {
        let mut nvml = converged_fleet();
        let report = reconcile(&mut nvml, &target()).unwrap();
        assert!(report.converged_already());
        assert!(fleet_matches(&nvml, &target()));
    }

    #[test]
    fn repairs_manual_deletion() {
        let mut nvml = converged_fleet();
        let victim = nvml.instances()[1].id;
        nvml.destroy_gpu_instance(victim).unwrap();
        assert!(!fleet_matches(&nvml, &target()));
        let report = reconcile(&mut nvml, &target()).unwrap();
        assert_eq!(report.missing_created, 1);
        assert_eq!(report.strays_removed, 0);
        assert!(fleet_matches(&nvml, &target()));
    }

    #[test]
    fn removes_stray_instances() {
        let mut nvml = converged_fleet();
        nvml.grow(1); // device 2, beyond the 2-GPU target map
        nvml.set_mig_mode(2, true).unwrap();
        nvml.create_gpu_instance(2, InstanceProfile::G7).unwrap();
        let report = reconcile(&mut nvml, &target()).unwrap();
        assert_eq!(report.strays_removed, 1);
        assert!(fleet_matches(&nvml, &target()));
    }

    #[test]
    fn repairs_mps_drift_without_rebuild() {
        let mut nvml = converged_fleet();
        let id = nvml.instances()[0].id;
        nvml.set_mps_processes(id, 1).unwrap();
        let report = reconcile(&mut nvml, &target()).unwrap();
        assert_eq!(report.retuned, 1);
        assert_eq!(report.strays_removed + report.missing_created, 0);
        assert!(fleet_matches(&nvml, &target()));
    }

    #[test]
    fn repairs_wiped_device() {
        let mut nvml = converged_fleet();
        // Driver reset: every instance on device 0 vanishes.
        let doomed: Vec<_> = nvml
            .instances()
            .iter()
            .filter(|i| i.device == 0)
            .map(|i| i.id)
            .collect();
        assert!(!doomed.is_empty());
        for id in doomed {
            nvml.destroy_gpu_instance(id).unwrap();
        }
        let report = reconcile(&mut nvml, &target()).unwrap();
        assert!(report.missing_created >= 2);
        assert!(fleet_matches(&nvml, &target()));
    }

    #[test]
    fn repairs_profile_swap() {
        // Same start slice, wrong profile: must destroy + recreate.
        let mut nvml = converged_fleet();
        // The G2 at device 1? Find the G3 (start 4 on device 0) and replace
        // it with a 1g at the same start.
        let g3 = nvml
            .instances()
            .iter()
            .find(|i| i.placement.profile == InstanceProfile::G3)
            .unwrap()
            .id;
        let device = nvml.instance(g3).unwrap().device;
        let start = nvml.instance(g3).unwrap().placement.start;
        nvml.destroy_gpu_instance(g3).unwrap();
        nvml.create_gpu_instance_at(device, Placement::new(InstanceProfile::G1, start))
            .unwrap();
        let report = reconcile(&mut nvml, &target()).unwrap();
        assert_eq!(report.strays_removed, 1);
        assert_eq!(report.missing_created, 1);
        assert!(fleet_matches(&nvml, &target()));
    }

    #[test]
    fn idempotent_under_repeated_calls() {
        let mut nvml = converged_fleet();
        let victim = nvml.instances()[0].id;
        nvml.destroy_gpu_instance(victim).unwrap();
        reconcile(&mut nvml, &target()).unwrap();
        let second = reconcile(&mut nvml, &target()).unwrap();
        assert!(second.converged_already());
    }

    #[test]
    fn plan_is_pure_observation() {
        let nvml = converged_fleet();
        let plan = reconcile_plan(&nvml, &target());
        assert!(plan.ops.is_empty());
        assert_eq!(plan.kept.len(), 3);
    }
}
