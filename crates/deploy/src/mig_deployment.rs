//! MIG deployments: segments placed on MIG-partitioned GPUs.

use crate::diff::Slot;
use crate::segment::Segment;
use parva_mig::{GpuState, Placement};
use serde::{Deserialize, Serialize};

/// A segment bound to a physical location: GPU index + slice placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedSegment {
    /// The segment.
    pub segment: Segment,
    /// Index of the GPU hosting it.
    pub gpu: usize,
    /// MIG placement (profile + start slice) inside that GPU.
    pub placement: Placement,
}

/// The deployment map produced by MIG-based schedulers (paper Fig. 2's
/// "Deployment"): a fleet of MIG-partitioned GPUs and the segments on them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MigDeployment {
    gpus: Vec<GpuState>,
    segments: Vec<PlacedSegment>,
}

impl MigDeployment {
    /// An empty deployment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of GPUs in use.
    #[must_use]
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Per-GPU MIG occupancy states.
    #[must_use]
    pub fn gpus(&self) -> &[GpuState] {
        &self.gpus
    }

    /// All placed segments.
    #[must_use]
    pub fn segments(&self) -> &[PlacedSegment] {
        &self.segments
    }

    /// Every occupied slot as (GPU, placement, segment), in the order of
    /// [`segments`](Self::segments) — the input
    /// [`DeploymentDiff::between`](crate::DeploymentDiff::between) compares.
    pub fn slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.segments
            .iter()
            .map(|ps| (ps.gpu, ps.placement, ps.segment))
    }

    /// Segments of one service.
    pub fn segments_of(&self, service_id: u32) -> impl Iterator<Item = &PlacedSegment> {
        self.segments
            .iter()
            .filter(move |s| s.segment.service_id == service_id)
    }

    /// Segments placed on one GPU.
    pub fn segments_on(&self, gpu: usize) -> impl Iterator<Item = &PlacedSegment> {
        self.segments.iter().filter(move |s| s.gpu == gpu)
    }

    /// Total GPCs allocated across the fleet.
    #[must_use]
    pub fn gpcs_allocated(&self) -> u32 {
        self.gpus.iter().map(|g| u32::from(g.gpcs_used())).sum()
    }

    /// Total GPC capacity of the fleet (7 per GPU).
    #[must_use]
    pub fn gpcs_capacity(&self) -> u32 {
        self.gpus.len() as u32 * u32::from(parva_mig::COMPUTE_SLICES)
    }

    /// Predicted aggregate capacity for a service, requests/s.
    #[must_use]
    pub fn capacity_of(&self, service_id: u32) -> f64 {
        self.segments_of(service_id)
            .map(|s| s.segment.throughput_rps)
            .sum()
    }

    /// Place a segment on GPU `gpu` (growing the fleet as needed) at an
    /// explicit placement.
    ///
    /// # Errors
    /// Propagates MIG placement violations.
    pub fn place_at(
        &mut self,
        segment: Segment,
        gpu: usize,
        placement: Placement,
    ) -> Result<(), parva_mig::PlaceError> {
        while self.gpus.len() <= gpu {
            self.gpus.push(GpuState::new());
        }
        self.gpus[gpu].place_at(placement)?;
        self.segments.push(PlacedSegment {
            segment,
            gpu,
            placement,
        });
        Ok(())
    }

    /// Place a segment on the first GPU (scanning from index 0) that can
    /// host its instance profile, appending a new GPU if none can. Returns
    /// the chosen (gpu, placement). This is the paper's `ALLOCATION`
    /// first-fit inner step.
    pub fn place_first_fit(&mut self, segment: Segment) -> PlacedSegment {
        let profile = segment.triplet.instance;
        for gpu in 0..self.gpus.len() {
            if let Some(start) = self.gpus[gpu].find_start(profile) {
                let placement = Placement::new(profile, start);
                self.gpus[gpu]
                    .place_at(placement)
                    .expect("find_start verified");
                let placed = PlacedSegment {
                    segment,
                    gpu,
                    placement,
                };
                self.segments.push(placed);
                return placed;
            }
        }
        let gpu = self.gpus.len();
        self.gpus.push(GpuState::new());
        let start = self.gpus[gpu]
            .find_start(profile)
            .expect("empty GPU hosts any profile");
        let placement = Placement::new(profile, start);
        self.gpus[gpu].place_at(placement).expect("empty GPU");
        let placed = PlacedSegment {
            segment,
            gpu,
            placement,
        };
        self.segments.push(placed);
        placed
    }

    /// Remove a placed segment (matched by GPU + placement). Returns the
    /// segment if found.
    pub fn remove(&mut self, gpu: usize, placement: Placement) -> Option<Segment> {
        let idx = self
            .segments
            .iter()
            .position(|s| s.gpu == gpu && s.placement == placement)?;
        let placed = self.segments.swap_remove(idx);
        let removed = self.gpus[gpu].remove(placement);
        debug_assert!(removed, "GPU state out of sync with segment list");
        Some(placed.segment)
    }

    /// Drop trailing/interior empty GPUs and renumber segments accordingly.
    pub fn compact(&mut self) {
        let mut remap: Vec<Option<usize>> = Vec::with_capacity(self.gpus.len());
        let mut next = 0usize;
        for g in &self.gpus {
            if g.is_empty() {
                remap.push(None);
            } else {
                remap.push(Some(next));
                next += 1;
            }
        }
        self.gpus.retain(|g| !g.is_empty());
        for s in &mut self.segments {
            s.gpu = remap[s.gpu].expect("segment on empty GPU");
        }
    }

    /// Structural audit: every segment's placement exists in its GPU state,
    /// every GPU placement has exactly one segment, all GPU states validate.
    #[must_use]
    pub fn validate(&self) -> bool {
        if !self.gpus.iter().all(GpuState::validate) {
            return false;
        }
        let mut counted = 0usize;
        for (i, g) in self.gpus.iter().enumerate() {
            for p in g.placements() {
                let n = self
                    .segments
                    .iter()
                    .filter(|s| s.gpu == i && s.placement == *p)
                    .count();
                if n != 1 {
                    return false;
                }
                counted += 1;
            }
        }
        counted == self.segments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parva_mig::InstanceProfile;
    use parva_perf::Model;
    use parva_profile::Triplet;

    fn seg(id: u32, g: InstanceProfile) -> Segment {
        Segment {
            service_id: id,
            model: Model::ResNet50,
            triplet: Triplet::new(g, 8, 2),
            throughput_rps: 100.0 * f64::from(g.gpcs()),
            latency_ms: 10.0,
        }
    }

    #[test]
    fn first_fit_packs_one_gpu() {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(0, InstanceProfile::G4));
        d.place_first_fit(seg(1, InstanceProfile::G3));
        assert_eq!(d.gpu_count(), 1);
        assert_eq!(d.gpcs_allocated(), 7);
        assert!(d.validate());
    }

    #[test]
    fn first_fit_overflows_to_new_gpu() {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(0, InstanceProfile::G7));
        let p = d.place_first_fit(seg(1, InstanceProfile::G1));
        assert_eq!(p.gpu, 1);
        assert_eq!(d.gpu_count(), 2);
    }

    #[test]
    fn capacity_sums_per_service() {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(5, InstanceProfile::G2));
        d.place_first_fit(seg(5, InstanceProfile::G2));
        d.place_first_fit(seg(6, InstanceProfile::G1));
        assert_eq!(d.capacity_of(5), 400.0);
        assert_eq!(d.capacity_of(6), 100.0);
        assert_eq!(d.capacity_of(99), 0.0);
    }

    #[test]
    fn remove_and_compact() {
        let mut d = MigDeployment::new();
        let a = d.place_first_fit(seg(0, InstanceProfile::G7));
        let b = d.place_first_fit(seg(1, InstanceProfile::G7));
        d.place_first_fit(seg(2, InstanceProfile::G7));
        assert_eq!(d.gpu_count(), 3);
        assert!(d.remove(b.gpu, b.placement).is_some());
        d.compact();
        assert_eq!(d.gpu_count(), 2);
        assert!(d.validate());
        // Segment on old GPU 2 must have been renumbered to 1.
        assert!(d
            .segments()
            .iter()
            .any(|s| s.gpu == 1 && s.segment.service_id == 2));
        // Removing again fails.
        assert!(d
            .remove(a.gpu, parva_mig::Placement::new(InstanceProfile::G1, 0))
            .is_none());
    }

    #[test]
    fn validate_catches_orphan_segment() {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(0, InstanceProfile::G2));
        // Corrupt: push a segment without a backing placement.
        d.segments.push(PlacedSegment {
            segment: seg(9, InstanceProfile::G1),
            gpu: 0,
            placement: Placement::new(InstanceProfile::G1, 6),
        });
        assert!(!d.validate());
    }

    #[test]
    fn gpcs_capacity() {
        let mut d = MigDeployment::new();
        d.place_first_fit(seg(0, InstanceProfile::G1));
        assert_eq!(d.gpcs_capacity(), 7);
        assert_eq!(d.gpcs_allocated(), 1);
    }
}
