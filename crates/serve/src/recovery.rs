//! Recovery work lowered into the serving DES.
//!
//! A fleet recovery (node failure, spot preemption, planned evacuation) or
//! a daemon re-plan is not instantaneous: the control plane reacts, target
//! GPUs re-flash their MIG layout (serialized per node by the NVML
//! driver), and migrated segments reload weights over the target node's
//! PCIe link (one copy stream at full bandwidth; concurrent copies queue).
//! While a GPU's recovery is outstanding, its servers are **dark**:
//! requests routed to them queue but no batch launches, so the
//! disruption-window compliance dip is *measured* against live traffic
//! instead of assumed.
//!
//! This module is the one price of a re-slice. [`lower_diff`] turns the
//! §III-F minimal diff ([`DeploymentDiff`]) into one [`RecoveryOp`] per
//! changed GPU, and [`RecoverySpec::from_ops`] charges them at
//! [`CONTROL_PLANE_MS`], [`MIG_REFLASH_MS`] and [`WEIGHT_COPY_GIB_PER_S`].
//! The fleet lowers diffs keyed by physical GPU, the `parvad` daemon diffs
//! keyed by logical GPU; both pay the same model. Ops that were
//! **prepared** ahead of the capacity loss — §III-F shadow pre-copy on a
//! spot two-minute warning, or cross-region pre-copy on an evacuation
//! notice — skip their re-flash and copy entirely; only the control-plane
//! delay remains.

use parva_deploy::{DeploymentDiff, ReconfigOp};
use parva_mig::Placement;
use parva_perf::PerfParams;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Scheduler + control-plane overhead charged per recovery, milliseconds.
pub const CONTROL_PLANE_MS: f64 = 150.0;

/// Fixed cost of re-flashing one GPU's MIG layout (destroy + create
/// instances via NVML), milliseconds. Re-flashes run in parallel across
/// *nodes*, but NVML serializes re-flashes on the same node.
pub const MIG_REFLASH_MS: f64 = 800.0;

/// Host-to-device copy bandwidth for reloading model weights on the target
/// GPU, GiB/s (PCIe Gen4 x16 effective).
pub const WEIGHT_COPY_GIB_PER_S: f64 = 22.0;

/// Recovery work for one physical GPU of the recovered deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryOp {
    /// Physical node hosting the GPU — the re-flash serialization and PCIe
    /// contention domain.
    pub node: usize,
    /// Logical GPU (of the *recovered* deployment) living on this physical
    /// GPU; `None` for vacated GPUs that re-flash to empty (they host no
    /// servers but still occupy the node's re-flash lock).
    pub logical_gpu: Option<usize>,
    /// Whether the GPU's MIG layout changes (destroy + create instances).
    pub reflash: bool,
    /// Model weights copied onto this GPU, GiB.
    pub copy_gib: f64,
    /// Work already done before the capacity loss (predictive pre-copy +
    /// pre-flash): the op costs nothing but the control-plane delay.
    pub prepared: bool,
}

/// A migration plan lowered to DES recovery events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverySpec {
    /// Sim time at which the capacity loss hits and recovery begins,
    /// milliseconds from simulation start (typically the measurement-window
    /// start, so the dip lands inside the window).
    pub start_ms: f64,
    /// Scheduler + control-plane reaction delay before any physical work
    /// starts, ms.
    pub control_plane_ms: f64,
    /// One MIG re-flash (destroy + create instances via NVML), ms.
    /// Re-flashes on the same node serialize.
    pub reflash_ms: f64,
    /// Host-to-device weight-copy bandwidth of one node's PCIe link, GiB/s.
    /// Concurrent copies to the same node queue FIFO.
    pub link_gib_per_s: f64,
    /// Per-GPU recovery work, deterministic order.
    pub ops: Vec<RecoveryOp>,
}

impl RecoverySpec {
    /// Is there any work to simulate?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total weights still to copy (unprepared ops), GiB.
    #[must_use]
    pub fn pending_copy_gib(&self) -> f64 {
        self.ops
            .iter()
            .filter(|o| !o.prepared)
            .map(|o| o.copy_gib)
            .sum()
    }

    /// Total weights already staged by predictive pre-copy, GiB.
    #[must_use]
    pub fn prepared_gib(&self) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.prepared)
            .map(|o| o.copy_gib)
            .sum()
    }

    /// Mark every op prepared (weights pre-copied, targets pre-flashed) —
    /// what a honored two-minute warning or evacuation notice buys.
    #[must_use]
    pub fn prepared(mut self) -> Self {
        for op in &mut self.ops {
            op.prepared = true;
        }
        self
    }

    /// A spec of already-lowered `ops` starting at `start_ms`, priced at
    /// the physical constants of this module.
    #[must_use]
    pub fn from_ops(ops: Vec<RecoveryOp>, start_ms: f64) -> Self {
        Self {
            start_ms,
            control_plane_ms: CONTROL_PLANE_MS,
            reflash_ms: MIG_REFLASH_MS,
            link_gib_per_s: WEIGHT_COPY_GIB_PER_S,
            ops,
        }
    }
}

/// Lower a deployment diff to per-GPU recovery ops.
///
/// `site(device)` says where a device of the diff lives: its node, whether
/// that node is up, and the logical GPU of the recovered deployment it
/// hosts. Per device touched by a destroy or a create:
///
/// * it re-flashes iff the placements destroyed and created on it differ
///   as multisets, so a service swap inside an unchanged layout only
///   copies weights;
/// * it copies the `weights_gib` of every segment created on it;
/// * a device left empty re-flashes to empty with `logical_gpu: None` if
///   its node is up, and gets no op if the node is down (nobody is left
///   to flash it).
///
/// MPS retunes alone cost nothing here. Ops come in device order, the
/// occupied devices first and the emptied ones after them.
#[must_use]
pub fn lower_diff<K: Copy + Ord>(
    diff: &DeploymentDiff<K>,
    site: impl Fn(K) -> (usize, bool, Option<usize>),
) -> Vec<RecoveryOp> {
    // Per device: placements destroyed, placements created, weights
    // copied (GiB). A device is occupied afterwards iff a slot on it was
    // kept, retuned or created.
    let mut changes: BTreeMap<K, (Vec<Placement>, Vec<Placement>, f64)> = BTreeMap::new();
    let mut occupied: BTreeSet<K> = diff.kept.iter().map(|&(device, ..)| device).collect();
    for op in &diff.ops {
        match *op {
            ReconfigOp::Destroy {
                device, placement, ..
            } => changes.entry(device).or_default().0.push(placement),
            ReconfigOp::Create {
                device,
                placement,
                segment,
            } => {
                occupied.insert(device);
                let change = changes.entry(device).or_default();
                change.1.push(placement);
                change.2 += PerfParams::for_model(segment.model).weights_gib;
            }
            ReconfigOp::RetuneMps { device, .. } => {
                occupied.insert(device);
            }
        }
    }
    let mut ops = Vec::new();
    let mut emptied = Vec::new();
    for (device, (mut destroyed, mut created, copy_gib)) in changes {
        let (node, alive, logical_gpu) = site(device);
        if !occupied.contains(&device) {
            if alive {
                emptied.push(RecoveryOp {
                    node,
                    logical_gpu: None,
                    reflash: true,
                    copy_gib: 0.0,
                    prepared: false,
                });
            }
            continue;
        }
        destroyed.sort_unstable();
        created.sort_unstable();
        ops.push(RecoveryOp {
            node,
            logical_gpu,
            reflash: destroyed != created,
            copy_gib,
            prepared: false,
        });
    }
    ops.extend(emptied);
    ops
}

/// What the DES measured about one recovery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoverySimReport {
    /// Recovery start, ms from simulation start.
    pub started_ms: f64,
    /// Simulated end-to-end recovery latency: control plane + contended
    /// re-flash waves + queued weight copies, ms. Zero when the spec had
    /// no ops.
    pub latency_ms: f64,
    /// Servers that were dark at recovery start.
    pub dark_servers: usize,
    /// GPU re-flashes actually performed (prepared ops skip theirs).
    pub reflashes_done: usize,
    /// Weights copied during the window, GiB (prepared ops skip theirs).
    pub copied_gib: f64,
    /// Weights that had been staged ahead of the loss, GiB.
    pub precopied_gib: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use parva_deploy::{Segment, Slot};
    use parva_mig::InstanceProfile::{self, G3, G4, G7};
    use parva_perf::Model::{self, BertLarge, MobileNetV2, ResNet50};
    use parva_profile::Triplet;

    fn spec() -> RecoverySpec {
        RecoverySpec {
            start_ms: 0.0,
            control_plane_ms: 150.0,
            reflash_ms: 800.0,
            link_gib_per_s: 22.0,
            ops: vec![
                RecoveryOp {
                    node: 0,
                    logical_gpu: Some(1),
                    reflash: true,
                    copy_gib: 2.0,
                    prepared: false,
                },
                RecoveryOp {
                    node: 0,
                    logical_gpu: None,
                    reflash: true,
                    copy_gib: 0.0,
                    prepared: false,
                },
            ],
        }
    }

    #[test]
    fn prepared_zeroes_pending_work() {
        let s = spec();
        assert!((s.pending_copy_gib() - 2.0).abs() < 1e-12);
        assert_eq!(s.prepared_gib(), 0.0);
        let p = s.prepared();
        assert_eq!(p.pending_copy_gib(), 0.0);
        assert!((p.prepared_gib() - 2.0).abs() < 1e-12);
        assert!(!p.is_empty());
    }

    /// GPU `gpu`, `profile` at slice `start`, running `service` with two
    /// MPS processes.
    fn slot(gpu: usize, profile: InstanceProfile, start: u8, service: (u32, Model)) -> Slot {
        slot_procs(gpu, profile, start, service, 2)
    }

    /// As [`slot`], with `procs` MPS processes.
    fn slot_procs(
        gpu: usize,
        profile: InstanceProfile,
        start: u8,
        (service_id, model): (u32, Model),
        procs: u32,
    ) -> Slot {
        let segment = Segment {
            service_id,
            model,
            triplet: Triplet::new(profile, 8, procs),
            throughput_rps: 100.0,
            latency_ms: 10.0,
        };
        (gpu, Placement::new(profile, start), segment)
    }

    /// Lower the diff of `old` → `new` with GPU `g` on node `g`, node 9
    /// down, and logical GPU `g + 100`.
    fn lower(old: Vec<Slot>, new: Vec<Slot>) -> Vec<RecoveryOp> {
        lower_diff(&DeploymentDiff::between(old, new), |g| {
            (g, g != 9, Some(g + 100))
        })
    }

    fn weights(model: Model) -> f64 {
        PerfParams::for_model(model).weights_gib
    }

    fn op(node: usize, logical_gpu: Option<usize>, reflash: bool, copy_gib: f64) -> RecoveryOp {
        RecoveryOp {
            node,
            logical_gpu,
            reflash,
            copy_gib,
            prepared: false,
        }
    }

    #[test]
    fn service_swap_in_an_unchanged_layout_copies_without_reflash() {
        let ops = lower(
            vec![
                slot(0, G4, 0, (1, ResNet50)),
                slot(0, G3, 4, (2, MobileNetV2)),
            ],
            vec![
                slot(0, G4, 0, (1, ResNet50)),
                slot(0, G3, 4, (3, BertLarge)),
            ],
        );
        assert_eq!(ops, vec![op(0, Some(100), false, weights(BertLarge))]);
    }

    #[test]
    fn layout_change_reflashes_and_copies_every_created_segment() {
        let ops = lower(
            vec![slot(0, G7, 0, (1, ResNet50))],
            vec![
                slot(0, G4, 0, (1, ResNet50)),
                slot(0, G3, 4, (2, BertLarge)),
            ],
        );
        let copied = weights(ResNet50) + weights(BertLarge);
        assert_eq!(ops, vec![op(0, Some(100), true, copied)]);
    }

    #[test]
    fn gpu_emptied_on_a_live_node_reflashes_to_empty_after_occupied_gpus() {
        let ops = lower(
            vec![slot(0, G7, 0, (1, ResNet50)), slot(1, G7, 0, (2, ResNet50))],
            vec![slot(1, G7, 0, (3, BertLarge))],
        );
        assert_eq!(
            ops,
            vec![
                op(1, Some(101), false, weights(BertLarge)),
                op(0, None, true, 0.0),
            ]
        );
    }

    #[test]
    fn gpu_emptied_on_a_dead_node_gets_no_op() {
        let ops = lower(
            vec![slot(9, G7, 0, (1, ResNet50))],
            vec![slot(2, G7, 0, (1, ResNet50))],
        );
        assert_eq!(ops, vec![op(2, Some(102), true, weights(ResNet50))]);
    }

    #[test]
    fn mps_retune_alone_gets_no_op() {
        let diff = DeploymentDiff::between(
            vec![slot_procs(0, G7, 0, (1, ResNet50), 2)],
            vec![slot_procs(0, G7, 0, (1, ResNet50), 3)],
        );
        assert!(matches!(diff.ops[..], [ReconfigOp::RetuneMps { .. }]));
        assert!(lower_diff(&diff, |g| (g, true, Some(g))).is_empty());
    }
}
