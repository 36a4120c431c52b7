//! The minimal diff between two deployment maps (paper §III-F).
//!
//! "This method minimizes the overhead of reconfiguration, as services
//! whose placement has not changed do not require reconfiguration."
//! [`DeploymentDiff::between`] is the one place that decides what changed
//! between two deployments. A *slot* is a device, a MIG placement on it
//! and the segment running there; the device key is the planner's logical
//! GPU index (`usize`) or a physical GPU (the fleet's slot type). Slots
//! match on (device, placement, service id):
//!
//! * a matched slot whose triplet is unchanged is **kept** — zero ops,
//!   zero downtime;
//! * a matched slot whose MPS process count or batch changed is
//!   **retuned** — an MPS relaunch, no MIG teardown (the milliseconds end
//!   of the paper's "milliseconds to a few seconds" range);
//! * every other old slot is **destroyed** and every other new slot
//!   **created** (the seconds end — a MIG instance rebuild).
//!
//! The planner reports the devices with rebuilds as its reconfigured
//! GPUs, the fleet prices re-flashes and weight copies from the destroys
//! and creates, and `parva-nvml` executes the ops against its devices.

use crate::segment::Segment;
use parva_mig::Placement;
use std::cmp::Ordering;

/// One physical reconfiguration operation on device `K`.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigOp<K = usize> {
    /// Tear down the instance at (device, placement).
    Destroy {
        /// Device key.
        device: K,
        /// Placement of the doomed instance.
        placement: Placement,
        /// Service that was running there (for shadow planning).
        service_id: u32,
    },
    /// Create an instance and launch its MPS processes.
    Create {
        /// Device key.
        device: K,
        /// Placement of the new instance.
        placement: Placement,
        /// The segment to run there.
        segment: Segment,
    },
    /// Same instance, same service — only the MPS process count (or batch)
    /// changes: relaunch servers without touching MIG.
    RetuneMps {
        /// Device key.
        device: K,
        /// Placement of the retuned instance.
        placement: Placement,
        /// New process count.
        procs: u32,
    },
}

/// The diff between two deployment maps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeploymentDiff<K = usize> {
    /// Slots carried over untouched: (device, placement, service id), in
    /// `old` order.
    pub kept: Vec<(K, Placement, u32)>,
    /// Operations to execute: destroys in `old` order (they free slices
    /// for the creates), then creates in `new` order, then MPS retunes in
    /// `old` order.
    pub ops: Vec<ReconfigOp<K>>,
}

/// One occupied slot: device key, placement, and the segment there.
pub type Slot<K = usize> = (K, Placement, Segment);

impl<K: Copy + Ord> DeploymentDiff<K> {
    /// Diff the slots of a live map (`old`) against a target map (`new`).
    ///
    /// A key that repeats on one side matches pairwise in list order. The
    /// match is a sort plus a merge, so the diff costs O(n log n).
    #[must_use]
    pub fn between(
        old: impl IntoIterator<Item = Slot<K>>,
        new: impl IntoIterator<Item = Slot<K>>,
    ) -> Self {
        let old: Vec<Slot<K>> = old.into_iter().collect();
        let new: Vec<Slot<K>> = new.into_iter().collect();
        let key = |slot: &Slot<K>| (slot.0, slot.1, slot.2.service_id);
        let by_key = |slots: &[Slot<K>]| {
            let mut order: Vec<usize> = (0..slots.len()).collect();
            order.sort_by_key(|&i| key(&slots[i]));
            order
        };
        let (old_order, new_order) = (by_key(&old), by_key(&new));

        // partner[i]: the new slot matched with old slot i.
        let mut partner: Vec<Option<usize>> = vec![None; old.len()];
        let mut matched = vec![false; new.len()];
        let (mut a, mut b) = (0, 0);
        while a < old_order.len() && b < new_order.len() {
            let (i, j) = (old_order[a], new_order[b]);
            match key(&old[i]).cmp(&key(&new[j])) {
                Ordering::Less => a += 1,
                Ordering::Greater => b += 1,
                Ordering::Equal => {
                    partner[i] = Some(j);
                    matched[j] = true;
                    a += 1;
                    b += 1;
                }
            }
        }

        let mut diff = Self {
            kept: Vec::new(),
            ops: Vec::new(),
        };
        let mut retunes = Vec::new();
        for (&(device, placement, segment), partner) in old.iter().zip(&partner) {
            match partner.map(|j| new[j].2.triplet) {
                Some(triplet) if triplet == segment.triplet => {
                    diff.kept.push((device, placement, segment.service_id));
                }
                Some(triplet) => retunes.push(ReconfigOp::RetuneMps {
                    device,
                    placement,
                    procs: triplet.procs,
                }),
                None => diff.ops.push(ReconfigOp::Destroy {
                    device,
                    placement,
                    service_id: segment.service_id,
                }),
            }
        }
        for (&(device, placement, segment), _) in new.iter().zip(&matched).filter(|(_, m)| !**m) {
            diff.ops.push(ReconfigOp::Create {
                device,
                placement,
                segment,
            });
        }
        diff.ops.extend(retunes);
        diff
    }

    /// Count of MIG-level rebuilds (destroys + creates), the expensive kind.
    #[must_use]
    pub fn mig_rebuilds(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| !matches!(op, ReconfigOp::RetuneMps { .. }))
            .count()
    }

    /// Devices needing *MIG* reconfiguration (instance rebuilds), in
    /// ascending order. Devices receiving only MPS retunes keep their
    /// layout — the paper's reconfigured GPUs (§III-F) are exactly these.
    #[must_use]
    pub fn mig_touched_devices(&self) -> Vec<K> {
        let mut v: Vec<K> = self
            .ops
            .iter()
            .filter_map(|op| match op {
                ReconfigOp::Destroy { device, .. } | ReconfigOp::Create { device, .. } => {
                    Some(*device)
                }
                ReconfigOp::RetuneMps { .. } => None,
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}
