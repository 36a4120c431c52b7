//! Migration planning: what physically moves when the fleet recovers.
//!
//! A recovery step transforms `(deployment, placement)` — the logical map
//! plus its physical assignment — into a new pair. The migration plan is
//! the physical diff: which segments land on a different physical GPU (and
//! must reload weights there), which physical GPUs change MIG layout (and
//! must re-flash, paper §III-F's "milliseconds to a few seconds" window),
//! and how many GPCs are left stranded on in-service GPUs afterwards. The
//! per-GPU work and its price come from [`parva_serve::recovery`], the one
//! recovery model the `parvad` daemon pays as well.

use crate::node::{Fleet, GpuSlot};
use crate::placer::FleetPlacement;
use parva_deploy::{DeploymentDiff, MigDeployment, ReconfigOp, Slot};
use parva_perf::PerfParams;
use parva_serve::recovery::{CONTROL_PLANE_MS, MIG_REFLASH_MS, WEIGHT_COPY_GIB_PER_S};
use parva_serve::{lower_diff, RecoveryOp, RecoverySpec};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The physical movement a recovery implies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// Segments that ended up on a different physical GPU (weights reload).
    pub migrated_segments: usize,
    /// Physical GPUs whose MIG layout changed (need a re-flash).
    pub reflashed_gpus: usize,
    /// Worst per-node re-flash count: NVML serializes re-flashes on one
    /// node, so this many waves run back to back on the busiest node.
    pub reflash_waves: usize,
    /// Model weights moved to new GPUs, GiB.
    pub weight_copy_gib: f64,
    /// Free GPCs stranded on in-service physical GPUs after recovery.
    pub stranded_gpcs: u32,
    /// Analytic end-to-end recovery latency, ms: control plane + the worst
    /// per-node serialized re-flash queue + the largest per-GPU
    /// weight-copy batch. The DES-simulated path
    /// ([`MigrationPlan::to_recovery_spec`]) additionally charges PCIe
    /// contention between copies landing on the same node.
    pub recovery_latency_ms: f64,
    /// Per-GPU recovery work lowered for the serving DES (deterministic
    /// slot order): hosting node, logical GPU of the recovered map,
    /// re-flash flag and inbound weight GiB.
    pub ops: Vec<RecoveryOp>,
}

/// The occupied slots of a `(deployment, placement)` state, keyed by the
/// physical GPU each logical GPU runs on.
fn physical_slots<'a>(
    (deployment, placement): (&'a MigDeployment, &'a FleetPlacement),
) -> impl Iterator<Item = Slot<GpuSlot>> + 'a {
    deployment
        .slots()
        .filter_map(|(gpu, p, segment)| placement.slot_of(gpu).map(|slot| (slot, p, segment)))
}

impl MigrationPlan {
    /// Diff two `(deployment, placement)` states into a migration plan.
    ///
    /// A segment "stays" when the same service holds the same placement
    /// on the same physical GPU before and after; every created segment
    /// migrated and reloads its weights there. A GPU re-flashes when the
    /// placements torn down and built on it differ as multisets — a
    /// service swap inside an unchanged layout only copies weights.
    #[must_use]
    pub fn between(
        before: (&MigDeployment, &FleetPlacement),
        after: (&MigDeployment, &FleetPlacement),
        fleet: &Fleet,
    ) -> Self {
        let diff = DeploymentDiff::between(physical_slots(before), physical_slots(after));
        // Fleet-wide totals over the creates in diff order; summing the
        // per-GPU ops instead would reorder the f64 additions.
        let mut migrated = 0usize;
        let mut weight_copy_gib = 0.0;
        for op in &diff.ops {
            if let ReconfigOp::Create { segment, .. } = op {
                migrated += 1;
                weight_copy_gib += PerfParams::for_model(segment.model).weights_gib;
            }
        }

        // GPCs in use per physical GPU after recovery.
        let mut used: BTreeMap<GpuSlot, u32> = BTreeMap::new();
        for (slot, _, segment) in physical_slots(after) {
            *used.entry(slot).or_insert(0) += u32::from(segment.gpcs());
        }
        // Physical slot → logical GPU of the recovered map (placements are
        // injective: each logical GPU owns one slot).
        let logical_of: BTreeMap<GpuSlot, usize> =
            after.1.slots.iter().map(|&(l, s)| (s, l)).collect();
        let ops = lower_diff(&diff, |slot| {
            (
                slot.node,
                fleet.node(slot.node).alive,
                logical_of.get(&slot).copied(),
            )
        });
        let reflashed = ops.iter().filter(|o| o.reflash).count();

        // Worst per-node re-flash queue (NVML serializes within a node).
        let mut per_node_reflash: BTreeMap<usize, usize> = BTreeMap::new();
        for op in ops.iter().filter(|o| o.reflash) {
            *per_node_reflash.entry(op.node).or_insert(0) += 1;
        }
        let reflash_waves = per_node_reflash.values().copied().max().unwrap_or(0);

        let stranded_gpcs: u32 = used
            .values()
            .map(|&gpcs| u32::from(parva_mig::COMPUTE_SLICES).saturating_sub(gpcs))
            .sum();

        let worst_copy_s =
            ops.iter().fold(0.0f64, |a, o| a.max(o.copy_gib)) / WEIGHT_COPY_GIB_PER_S;
        let recovery_latency_ms =
            CONTROL_PLANE_MS + reflash_waves as f64 * MIG_REFLASH_MS + worst_copy_s * 1_000.0;

        Self {
            migrated_segments: migrated,
            reflashed_gpus: reflashed,
            reflash_waves,
            weight_copy_gib,
            stranded_gpcs,
            recovery_latency_ms,
            ops,
        }
    }

    /// The provable lower bound on any recovery's end-to-end latency: the
    /// control plane must react, and the slowest single GPU must finish
    /// its own re-flash (if any) followed by its own inbound weight copy.
    /// Per op those two serialize — the layout must exist before weights
    /// load — but re-flashes and copies on *different* GPUs overlap, so
    /// the bound maximizes over ops rather than summing the global worst
    /// re-flash and worst copy (which the DES can legitimately beat by
    /// overlapping them). The DES-simulated latency can only sit at or
    /// above this (it additionally queues re-flashes and copies per node).
    #[must_use]
    pub fn analytic_lower_bound_ms(&self) -> f64 {
        let worst_op_ms = self
            .ops
            .iter()
            .map(|o| {
                let reflash = if o.reflash { MIG_REFLASH_MS } else { 0.0 };
                reflash + o.copy_gib / WEIGHT_COPY_GIB_PER_S * 1_000.0
            })
            .fold(0.0f64, f64::max);
        CONTROL_PLANE_MS + worst_op_ms
    }

    /// The matching upper bound: every re-flash wave on the busiest node
    /// plus *all* copies serialized behind each other on one link. The
    /// DES schedule can never exceed it.
    #[must_use]
    pub fn analytic_upper_bound_ms(&self) -> f64 {
        let total_copy_s: f64 =
            self.ops.iter().map(|o| o.copy_gib).sum::<f64>() / WEIGHT_COPY_GIB_PER_S;
        CONTROL_PLANE_MS + self.reflash_waves as f64 * MIG_REFLASH_MS + total_copy_s * 1_000.0
    }

    /// Lower the plan into a serving-DES recovery spec starting at
    /// `start_ms` into the window. `prepared` marks every op pre-staged
    /// (§III-F shadow pre-copy on a spot warning / evacuation notice):
    /// only the control-plane delay remains to be paid live.
    #[must_use]
    pub fn to_recovery_spec(&self, start_ms: f64, prepared: bool) -> RecoverySpec {
        let spec = RecoverySpec::from_ops(self.ops.clone(), start_ms);
        if prepared {
            spec.prepared()
        } else {
            spec
        }
    }

    /// Lower the plan under a *bounded* pre-copy budget (GiB of weights a
    /// warning window can move before it expires): ops are staged
    /// largest-copy-first — the biggest inbound copy dominates the live
    /// recovery window, so it is the most valuable to pre-stage — until
    /// the budget runs dry; whatever did not fit is paid live. Op order is
    /// preserved (it feeds the DES's per-node re-flash/copy serialization);
    /// only the `prepared` flags change. A warning that cannot cover the
    /// whole plan thus buys a *partial* recovery window instead of the old
    /// all-or-nothing cliff, and a budget that covers everything is exactly
    /// [`to_recovery_spec`](Self::to_recovery_spec) with `prepared: true`.
    #[must_use]
    pub fn to_partial_recovery_spec(&self, start_ms: f64, budget_gib: f64) -> RecoverySpec {
        let mut ops = self.ops.clone();
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by(|&a, &b| {
            ops[b]
                .copy_gib
                .partial_cmp(&ops[a].copy_gib)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut remaining = budget_gib;
        for i in order {
            // Re-flash-only ops (copy_gib = 0) cost no bandwidth and
            // always pre-stage; a copy is staged only if it fits whole —
            // a half-copied weight file is not a servable model.
            if ops[i].copy_gib <= remaining {
                remaining -= ops[i].copy_gib;
                ops[i].prepared = true;
            }
        }
        RecoverySpec::from_ops(ops, start_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Fleet, FleetSpec};
    use crate::placer::place_on_fleet;
    use parva_deploy::Segment;
    use parva_mig::InstanceProfile;
    use parva_perf::Model;
    use parva_profile::Triplet;

    fn deployment(n: usize) -> MigDeployment {
        let mut d = MigDeployment::new();
        for i in 0..n {
            d.place_first_fit(Segment {
                service_id: i as u32,
                model: Model::ResNet50,
                triplet: Triplet::new(InstanceProfile::G7, 8, 2),
                throughput_rps: 1000.0,
                latency_ms: 10.0,
            });
        }
        d
    }

    #[test]
    fn identity_diff_is_empty() {
        let fleet = Fleet::provision(&FleetSpec::mixed_demo(1));
        let d = deployment(4);
        let p = place_on_fleet(&d, &fleet).unwrap();
        let plan = MigrationPlan::between((&d, &p), (&d, &p), &fleet);
        assert_eq!(plan.migrated_segments, 0);
        assert_eq!(plan.reflashed_gpus, 0);
        assert_eq!(plan.weight_copy_gib, 0.0);
        assert!((plan.recovery_latency_ms - CONTROL_PLANE_MS).abs() < 1e-9);
    }

    #[test]
    fn service_swap_inside_an_unchanged_layout_copies_without_reflash() {
        // Another service takes over logical GPU 1's instance at the same
        // placement: the MIG layout is untouched, only its weights load.
        let fleet = Fleet::provision(&FleetSpec::mixed_demo(1));
        let before = deployment(2);
        let p = place_on_fleet(&before, &fleet).unwrap();
        let mut after = before.clone();
        let old = after.segments()[1];
        let mut swapped = after.remove(old.gpu, old.placement).unwrap();
        swapped.service_id = 7;
        swapped.model = Model::BertLarge;
        after.place_at(swapped, old.gpu, old.placement).unwrap();

        let plan = MigrationPlan::between((&before, &p), (&after, &p), &fleet);
        assert_eq!(plan.migrated_segments, 1);
        assert_eq!(plan.reflashed_gpus, 0);
        assert_eq!(plan.reflash_waves, 0);
        let weights = PerfParams::for_model(Model::BertLarge).weights_gib;
        assert_eq!(plan.weight_copy_gib, weights);
        assert_eq!(
            plan.ops,
            vec![RecoveryOp {
                node: p.slot_of(old.gpu).unwrap().node,
                logical_gpu: Some(old.gpu),
                reflash: false,
                copy_gib: weights,
                prepared: false,
            }]
        );
    }

    fn plan_with_ops(ops: Vec<RecoveryOp>) -> MigrationPlan {
        let weight_copy_gib = ops.iter().map(|o| o.copy_gib).sum();
        MigrationPlan {
            migrated_segments: ops.iter().filter(|o| o.copy_gib > 0.0).count(),
            reflashed_gpus: ops.iter().filter(|o| o.reflash).count(),
            reflash_waves: 1,
            weight_copy_gib,
            stranded_gpcs: 0,
            recovery_latency_ms: 0.0,
            ops,
        }
    }

    #[test]
    fn partial_budget_stages_largest_copies_first_without_reordering() {
        let plan = plan_with_ops(vec![
            RecoveryOp {
                node: 0,
                logical_gpu: Some(0),
                reflash: true,
                copy_gib: 2.0,
                prepared: false,
            },
            RecoveryOp {
                node: 0,
                logical_gpu: Some(1),
                reflash: false,
                copy_gib: 10.0,
                prepared: false,
            },
            RecoveryOp {
                node: 1,
                logical_gpu: Some(2),
                reflash: false,
                copy_gib: 5.0,
                prepared: false,
            },
        ]);
        // Budget 12: the 10-GiB copy stages first (largest), 5 no longer
        // fits, 2 does. Op order must be untouched.
        let spec = plan.to_partial_recovery_spec(100.0, 12.0);
        let prepared: Vec<bool> = spec.ops.iter().map(|o| o.prepared).collect();
        assert_eq!(prepared, vec![true, true, false]);
        let order: Vec<f64> = spec.ops.iter().map(|o| o.copy_gib).collect();
        assert_eq!(order, vec![2.0, 10.0, 5.0]);
        // A covering budget prepares everything — exactly the old
        // all-or-nothing "covered" branch.
        let full = plan.to_partial_recovery_spec(100.0, 17.0);
        assert!(full.ops.iter().all(|o| o.prepared));
        let covered = plan.to_recovery_spec(100.0, true);
        assert_eq!(full, covered);
        // A zero budget stages nothing with these all-copy ops...
        let zero = plan.to_partial_recovery_spec(100.0, 0.0);
        assert!(zero.ops.iter().all(|o| !o.prepared));
        // ...but re-flash-only ops are bandwidth-free and always stage.
        let flash_only = plan_with_ops(vec![RecoveryOp {
            node: 0,
            logical_gpu: Some(0),
            reflash: true,
            copy_gib: 0.0,
            prepared: false,
        }]);
        assert!(flash_only.to_partial_recovery_spec(100.0, 0.0).ops[0].prepared);
    }

    #[test]
    fn partial_precopy_dip_sits_between_cold_and_fully_prepared() {
        // The regression the partial path exists for: a warning whose
        // budget covers only part of the copy volume must pay a *partial*
        // recovery window — never worse than cold, never better than
        // fully staged.
        use parva_deploy::Scheduler;
        let book = parva_profile::ProfileBook::builtin();
        let specs = crate::demo_services();
        let d = parva_core::ParvaGpu::new(&book).schedule(&specs).unwrap();
        let plan = plan_with_ops(vec![
            RecoveryOp {
                node: 0,
                logical_gpu: Some(0),
                reflash: true,
                copy_gib: 40.0,
                prepared: false,
            },
            RecoveryOp {
                node: 0,
                logical_gpu: Some(1),
                reflash: true,
                copy_gib: 10.0,
                prepared: false,
            },
        ]);
        let cold = plan.to_partial_recovery_spec(600.0, 0.0);
        let partial = plan.to_partial_recovery_spec(600.0, 45.0); // stages the 40-GiB op
        let full = plan.to_partial_recovery_spec(600.0, 50.0);
        assert_eq!(partial.prepared_gib(), 40.0);
        let cfg = parva_serve::ServingConfig {
            warmup_s: 0.5,
            duration_s: 3.0,
            drain_s: 1.0,
            seed: 11,
            ..parva_serve::ServingConfig::default()
        };
        let run = |spec: &RecoverySpec| {
            parva_serve::Simulation::new(&d, &specs)
                .recovery(spec)
                .config(&cfg)
                .run()
                .overall_request_compliance_rate()
        };
        let (c_cold, c_partial, c_full) = (run(&cold), run(&partial), run(&full));
        assert!(
            c_partial >= c_cold,
            "partial precopy ({c_partial:.4}) worse than cold ({c_cold:.4})"
        );
        assert!(
            c_full >= c_partial,
            "full precopy ({c_full:.4}) worse than partial ({c_partial:.4})"
        );
        assert!(
            c_partial > c_cold,
            "staging the dominant copy must shrink the dip ({c_partial:.4} vs {c_cold:.4})"
        );
    }

    #[test]
    fn moving_one_gpu_charges_reflash_and_copy() {
        let fleet = Fleet::provision(&FleetSpec::mixed_demo(1));
        let d = deployment(2);
        let before = place_on_fleet(&d, &fleet).unwrap();
        let mut after = before.clone();
        // Relocate logical GPU 1 to a different physical slot.
        let taken: Vec<_> = before.slots.iter().map(|(_, s)| *s).collect();
        let spare = fleet
            .alive_slots()
            .into_iter()
            .find(|s| !taken.contains(s))
            .expect("fleet has spare slots");
        after.slots[1].1 = spare;
        let plan = MigrationPlan::between((&d, &before), (&d, &after), &fleet);
        assert_eq!(plan.migrated_segments, 1);
        // The vacated slot re-flashes to empty, the target re-flashes to
        // the new layout.
        assert_eq!(plan.reflashed_gpus, 2);
        assert!(plan.weight_copy_gib > 0.0);
        assert!(plan.recovery_latency_ms > CONTROL_PLANE_MS + MIG_REFLASH_MS);
    }
}
