//! The GPU Segment Allocator — paper Algorithm 2.
//!
//! Stage 1, **Segment Relocation** (`SEGMENT_RELOCATION`): all services'
//! segments go into size-indexed queues and are placed largest-first by
//! first-fit over the GPU fleet, honoring the MIG slot-preference rules
//! (§III-E-1). This is the classic decreasing-size heuristic for
//! irregular-packing problems.
//!
//! Stage 2, **Allocation Optimization** (`ALLOCATION_OPTIMIZATION`): walking
//! the fleet from the last GPU backwards, GPUs with ≤ 4 allocated GPCs
//! (the paper's fragmentation threshold) are broken up: their segments are
//! freed and the freed throughput is re-covered with size-1/2 segments that
//! first-fit into holes on earlier GPUs. A `freed_rate` ledger carries
//! surplus coverage between GPUs so the minimum number of small segments is
//! issued. Every step is guarded: if breaking a GPU up does not reduce the
//! fleet (or worsens fragmentation), the step is rolled back.
//!
//! Stage 3, **fill pass**: the paper reports exactly 0% external
//! fragmentation for full ParvaGPU and notes that small-segment surplus "is
//! reflected … for the next GPU". We realize that end state explicitly:
//! remaining holes are padded with additional size-1/2 segments of the
//! least-provisioned services (pure headroom — never harms an SLO), and
//! memory-stranded GPUs (the `3g+3g` configuration, whose 7th slice cannot
//! host anything) are repaired by splitting one of the 3-GPC segments into
//! small segments. This stage is this implementation's only extrapolation
//! beyond the algorithm text.

use crate::service::Service;
use parva_deploy::{MigDeployment, PlacedSegment, Segment};
use parva_mig::{InstanceProfile, Placement};
use std::collections::HashMap;

/// Coverage slop when comparing request rates (req/s).
const RATE_EPS: f64 = 1e-9;

/// Tuning knobs of the Segment Allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocatorConfig {
    /// GPUs with at most this many allocated GPCs are considered heavily
    /// fragmented and broken up by Allocation Optimization. The paper sets
    /// this "heuristically … to 4" (§III-E-2).
    pub frag_threshold_gpcs: u8,
    /// Run Allocation Optimization (false = the paper's
    /// `ParvaGPU-unoptimized` ablation).
    pub optimize: bool,
    /// Run the final fill pass (0% external fragmentation).
    pub fill: bool,
}

impl Default for AllocatorConfig {
    fn default() -> Self {
        Self {
            frag_threshold_gpcs: 4,
            optimize: true,
            fill: true,
        }
    }
}

/// Size-indexed segment queues (paper Alg. 2's `ENQUEUE` targets), processed
/// largest size first.
#[derive(Debug, Default, Clone)]
pub struct SegmentQueues {
    queues: [std::collections::VecDeque<Segment>; 5],
}

impl SegmentQueues {
    /// Empty queues.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(profile: InstanceProfile) -> usize {
        // Descending order: G7, G4, G3, G2, G1.
        match profile {
            InstanceProfile::G7 => 0,
            InstanceProfile::G4 => 1,
            InstanceProfile::G3 => 2,
            InstanceProfile::G2 => 3,
            InstanceProfile::G1 => 4,
        }
    }

    /// Queue a segment by its instance size (paper `ENQUEUE`).
    pub fn enqueue(&mut self, segment: Segment) {
        self.queues[Self::slot(segment.triplet.instance)].push_back(segment);
    }

    /// Total queued segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queues
            .iter()
            .map(std::collections::VecDeque::len)
            .sum()
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(std::collections::VecDeque::is_empty)
    }

    /// Drain all queues, largest size first, FIFO within a size.
    pub fn drain_descending(&mut self) -> impl Iterator<Item = Segment> + '_ {
        self.queues.iter_mut().flat_map(|q| q.drain(..))
    }
}

/// The paper's `ALLOCATION` function: drain the queues largest-first and
/// place each segment on the first GPU that can host it (appending GPUs as
/// needed), honoring the slot preference rules baked into
/// [`parva_mig::InstanceProfile::preferred_starts`].
pub fn allocation(deployment: &mut MigDeployment, queues: &mut SegmentQueues) {
    let drained: Vec<Segment> = queues.drain_descending().collect();
    for seg in drained {
        deployment.place_first_fit(seg);
    }
}

/// Stage 1 — `SEGMENT_RELOCATION` (paper Alg. 2 lines 2–10): queue every
/// service's `num_opt_seg` optimal segments plus its last segment, then run
/// `ALLOCATION`.
#[must_use]
pub fn relocate(services: &[Service]) -> MigDeployment {
    let mut queues = SegmentQueues::new();
    for svc in services {
        for _ in 0..svc.num_opt_seg {
            queues.enqueue(svc.opt_seg);
        }
        if let Some(last) = svc.last_seg {
            queues.enqueue(last);
        }
    }
    let mut deployment = MigDeployment::new();
    allocation(&mut deployment, &mut queues);
    deployment
}

fn used_gpus(d: &MigDeployment) -> usize {
    d.gpus().iter().filter(|g| !g.is_empty()).count()
}

fn free_gpcs_on_used(d: &MigDeployment) -> u32 {
    d.gpus()
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| u32::from(g.gpcs_free()))
        .sum()
}

/// `(used GPUs, free GPCs)` — lexicographic "badness" for rollback guards.
fn badness(d: &MigDeployment) -> (usize, u32) {
    (used_gpus(d), free_gpcs_on_used(d))
}

/// Issue small (size-1/2) segments covering `need` req/s for `svc`,
/// drawing down the ledger. Returns the issued segments; empty when the
/// service has no feasible small triplet.
fn small_segments(svc: &Service, need: f64) -> Vec<Segment> {
    let smalls = svc.small_triplets();
    let Some(best) = smalls.first().copied() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut remaining = need;
    while remaining > RATE_EPS {
        out.push(best);
        remaining -= best.throughput_rps;
    }
    out
}

/// Stage 2 — `ALLOCATION_OPTIMIZATION` (paper Alg. 2 lines 12–31).
pub fn optimize(deployment: &mut MigDeployment, services: &[Service], config: &AllocatorConfig) {
    let by_id: HashMap<u32, &Service> = services.iter().map(|s| (s.spec.id, s)).collect();
    // The freed-throughput ledger lives across GPU iterations (paper line
    // 13: `freed_rate` is declared outside the loop), so surplus coverage
    // from one GPU offsets the next.
    let mut freed_rate: HashMap<u32, f64> = HashMap::new();

    // Walk from the last GPU to the first (paper line 14). GPUs are not
    // compacted inside the sweep so indices stay stable; `ALLOCATION`'s
    // first-fit naturally prefers earlier GPUs' holes.
    for gpu in (0..deployment.gpu_count()).rev() {
        if deployment.gpus()[gpu].is_empty()
            || deployment.gpus()[gpu].gpcs_used() > config.frag_threshold_gpcs
        {
            continue;
        }
        let snapshot = deployment.clone();
        let ledger_snapshot = freed_rate.clone();

        // Free this GPU's segments (only those whose service can actually be
        // re-covered by small segments).
        let on_gpu: Vec<PlacedSegment> = deployment.segments_on(gpu).copied().collect();
        let mut any_freed = false;
        for ps in &on_gpu {
            let svc = by_id[&ps.segment.service_id];
            if svc.small_triplets().is_empty() {
                continue;
            }
            any_freed = true;
            *freed_rate.entry(ps.segment.service_id).or_insert(0.0) += ps.segment.throughput_rps;
            deployment.remove(gpu, ps.placement);
        }
        if !any_freed {
            continue;
        }

        // SMALL_SEGMENTS + ENQUEUE (paper lines 22–26).
        let mut queues = SegmentQueues::new();
        for svc in services {
            let need = freed_rate.get(&svc.spec.id).copied().unwrap_or(0.0);
            if need <= RATE_EPS {
                continue;
            }
            for seg in small_segments(svc, need) {
                *freed_rate.get_mut(&svc.spec.id).expect("need>0") -= seg.throughput_rps;
                queues.enqueue(seg);
            }
        }

        // Re-allocate (paper line 29).
        allocation(deployment, &mut queues);

        // Rollback guard: never let an optimization step grow the fleet or
        // worsen fragmentation.
        if badness(deployment) > badness(&snapshot) {
            *deployment = snapshot;
            freed_rate = ledger_snapshot;
        }
    }
    deployment.compact();
}

/// A GPU is memory-stranded when compute slices are free but the memory
/// slices are exhausted (only the `3g+3g` configuration does this).
fn is_memory_stranded(d: &MigDeployment, gpu: usize) -> bool {
    let g = &d.gpus()[gpu];
    g.gpcs_free() > 0 && g.find_start(InstanceProfile::G1).is_none()
}

/// Pick the 3-GPC segment to split on a stranded GPU: smallest throughput
/// (cheapest to re-cover) among those whose service has small triplets.
fn stranding_victim(
    d: &MigDeployment,
    gpu: usize,
    by_id: &HashMap<u32, &Service>,
) -> Option<PlacedSegment> {
    d.segments_on(gpu)
        .filter(|ps| ps.placement.profile == InstanceProfile::G3)
        .filter(|ps| !by_id[&ps.segment.service_id].small_triplets().is_empty())
        .min_by(|a, b| {
            a.segment
                .throughput_rps
                .total_cmp(&b.segment.throughput_rps)
        })
        .copied()
}

/// The best fill candidate for `gpu`: services with a must-cover deficit
/// first, then the least-provisioned service; within a service, the most
/// GPC-efficient small triplet that fits.
fn choose_fill(
    d: &MigDeployment,
    gpu: usize,
    services: &[Service],
    deficit: &HashMap<u32, f64>,
) -> Option<(Segment, Placement)> {
    // Precompute each candidate's sort keys once (capacity_of is O(fleet)).
    let mut order: Vec<(f64, f64, &Service)> = services
        .iter()
        .filter(|s| !s.small_triplets().is_empty())
        .map(|s| {
            let def = deficit.get(&s.spec.id).copied().unwrap_or(0.0);
            let ratio = s.spec.request_rate_rps / d.capacity_of(s.spec.id).max(RATE_EPS);
            (def, ratio, s)
        })
        .collect();
    // Deficits first (descending), then provisioning ratio (descending
    // rate/capacity = least headroom first), then id for determinism.
    order.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| b.1.total_cmp(&a.1))
            .then_with(|| a.2.spec.id.cmp(&b.2.spec.id))
    });
    for (_, _, svc) in order {
        for seg in svc.small_triplets() {
            if let Some(start) = d.gpus()[gpu].find_start(seg.triplet.instance) {
                return Some((seg, Placement::new(seg.triplet.instance, start)));
            }
        }
    }
    None
}

/// Stage 3 — fill pass: pad every remaining hole with small headroom
/// segments and repair memory-stranded GPUs, producing 0% external
/// fragmentation. Rolled back wholesale if it would grow the fleet.
pub fn fill(deployment: &mut MigDeployment, services: &[Service]) {
    let by_id: HashMap<u32, &Service> = services.iter().map(|s| (s.spec.id, s)).collect();
    let snapshot = deployment.clone();
    // Throughput that *must* be re-covered because a segment was split.
    let mut deficit: HashMap<u32, f64> = HashMap::new();

    for gpu in 0..deployment.gpu_count() {
        loop {
            if deployment.gpus()[gpu].gpcs_free() == 0 {
                break;
            }
            if let Some((seg, placement)) = choose_fill(deployment, gpu, services, &deficit) {
                deployment
                    .place_at(seg, gpu, placement)
                    .expect("find_start pre-validated the placement");
                *deficit.entry(seg.service_id).or_insert(0.0) -= seg.throughput_rps;
            } else if is_memory_stranded(deployment, gpu) {
                let Some(victim) = stranding_victim(deployment, gpu, &by_id) else {
                    break;
                };
                deployment.remove(gpu, victim.placement);
                *deficit.entry(victim.segment.service_id).or_insert(0.0) +=
                    victim.segment.throughput_rps;
            } else {
                break;
            }
        }
    }

    // Cover any residual deficits (possible when a stranded GPU was broken
    // but its own holes could not absorb the coverage).
    let mut queues = SegmentQueues::new();
    for svc in services {
        let mut need = deficit.get(&svc.spec.id).copied().unwrap_or(0.0);
        if need <= RATE_EPS {
            continue;
        }
        for seg in small_segments(svc, need) {
            need -= seg.throughput_rps;
            queues.enqueue(seg);
        }
    }
    allocation(deployment, &mut queues);
    deployment.compact();

    // The fill pass must never cost GPUs; fragmentation padding is best
    // effort.
    if used_gpus(deployment) > used_gpus(&snapshot) {
        *deployment = snapshot;
    }
}

/// The complete Segment Allocator: relocation, then (optionally)
/// optimization and the fill pass.
#[must_use]
pub fn allocate(services: &[Service], config: &AllocatorConfig) -> MigDeployment {
    let mut deployment = relocate(services);
    if config.optimize {
        optimize(&mut deployment, services, config);
    }
    if config.fill {
        fill(&mut deployment, services);
    }
    deployment.compact();
    deployment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configurator::configure;
    use parva_deploy::ServiceSpec;
    use parva_perf::Model;
    use parva_profile::ProfileBook;

    fn book() -> ProfileBook {
        ProfileBook::builtin()
    }

    fn s2_specs() -> Vec<ServiceSpec> {
        let rates = [
            19.0, 353.0, 308.0, 276.0, 460.0, 677.0, 393.0, 281.0, 829.0, 410.0, 354.0,
        ];
        let lats = [
            6_434.0, 183.0, 217.0, 169.0, 419.0, 167.0, 212.0, 213.0, 205.0, 400.0, 397.0,
        ];
        Model::ALL
            .iter()
            .enumerate()
            .map(|(i, m)| ServiceSpec::new(i as u32, *m, rates[i], lats[i]))
            .collect()
    }

    fn capacity_covers_rates(d: &MigDeployment, specs: &[ServiceSpec]) {
        for spec in specs {
            assert!(
                d.capacity_of(spec.id) + 1e-6 >= spec.request_rate_rps,
                "service {} capacity {:.1} < rate {:.1}",
                spec.id,
                d.capacity_of(spec.id),
                spec.request_rate_rps
            );
        }
    }

    #[test]
    fn queues_drain_largest_first() {
        let svcs = configure(&s2_specs(), &book(), 3).unwrap();
        let mut q = SegmentQueues::new();
        for s in &svcs {
            q.enqueue(s.opt_seg);
        }
        let sizes: Vec<u8> = q.drain_descending().map(|s| s.gpcs()).collect();
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "{sizes:?}");
        }
    }

    #[test]
    fn relocation_places_every_segment() {
        let svcs = configure(&s2_specs(), &book(), 3).unwrap();
        let d = relocate(&svcs);
        let expected: u32 = svcs.iter().map(Service::segment_count).sum();
        assert_eq!(d.segments().len() as u32, expected);
        assert!(d.validate());
        capacity_covers_rates(&d, &s2_specs());
    }

    #[test]
    fn optimization_never_grows_the_fleet() {
        let svcs = configure(&s2_specs(), &book(), 3).unwrap();
        let before = relocate(&svcs);
        let mut after = before.clone();
        optimize(&mut after, &svcs, &AllocatorConfig::default());
        assert!(after.gpu_count() <= before.gpu_count());
        assert!(after.validate());
        capacity_covers_rates(&after, &s2_specs());
    }

    #[test]
    fn full_pipeline_zero_external_fragmentation() {
        let specs = s2_specs();
        let svcs = configure(&specs, &book(), 3).unwrap();
        let d = allocate(&svcs, &AllocatorConfig::default());
        assert!(d.validate());
        capacity_covers_rates(&d, &specs);
        // Paper Fig. 7: full ParvaGPU leaves no unallocated GPCs.
        assert_eq!(
            d.gpcs_allocated(),
            d.gpcs_capacity(),
            "fragmented deployment:\n{}",
            d.gpus()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn unoptimized_uses_at_least_as_many_gpus() {
        let svcs = configure(&s2_specs(), &book(), 3).unwrap();
        let unopt = allocate(
            &svcs,
            &AllocatorConfig {
                optimize: false,
                fill: false,
                ..AllocatorConfig::default()
            },
        );
        let full = allocate(&svcs, &AllocatorConfig::default());
        assert!(full.gpu_count() <= unopt.gpu_count());
    }

    #[test]
    fn single_service_tiny_rate_single_gpu() {
        let specs = vec![ServiceSpec::new(0, Model::MobileNetV2, 50.0, 200.0)];
        let svcs = configure(&specs, &book(), 3).unwrap();
        let d = allocate(&svcs, &AllocatorConfig::default());
        assert_eq!(d.gpu_count(), 1);
        capacity_covers_rates(&d, &specs);
    }

    #[test]
    fn fill_pads_the_single_gpu() {
        let specs = vec![ServiceSpec::new(0, Model::ResNet50, 100.0, 300.0)];
        let svcs = configure(&specs, &book(), 3).unwrap();
        let d = allocate(&svcs, &AllocatorConfig::default());
        assert_eq!(d.gpu_count(), 1);
        assert_eq!(d.gpcs_allocated(), 7, "hole left: {}", d.gpus()[0]);
    }

    #[test]
    fn stranded_3g3g_gets_repaired() {
        // Two services whose optimal segments are 3-GPC would strand slice 3;
        // after the fill pass no GPU may be memory-stranded with free GPCs.
        let specs = s2_specs();
        let svcs = configure(&specs, &book(), 3).unwrap();
        let d = allocate(&svcs, &AllocatorConfig::default());
        for (i, g) in d.gpus().iter().enumerate() {
            assert_eq!(g.gpcs_free(), 0, "GPU {i} has free GPCs: {g}");
        }
    }

    #[test]
    fn deterministic_output() {
        let svcs = configure(&s2_specs(), &book(), 3).unwrap();
        let d1 = allocate(&svcs, &AllocatorConfig::default());
        let d2 = allocate(&svcs, &AllocatorConfig::default());
        assert_eq!(d1, d2);
    }

    #[test]
    fn high_rate_scenario_scales_out() {
        // S6-like high-rate single service: many segments over several GPUs.
        let specs = vec![ServiceSpec::new(0, Model::DenseNet169, 5_260.0, 217.0)];
        let svcs = configure(&specs, &book(), 3).unwrap();
        let d = allocate(&svcs, &AllocatorConfig::default());
        assert!(d.gpu_count() >= 2, "only {} GPUs", d.gpu_count());
        capacity_covers_rates(&d, &specs);
    }

    #[test]
    fn small_segments_cover_requested_rate() {
        let specs = s2_specs();
        let svcs = configure(&specs, &book(), 3).unwrap();
        for svc in &svcs {
            if svc.small_triplets().is_empty() {
                continue;
            }
            let segs = small_segments(svc, 500.0);
            let total: f64 = segs.iter().map(|s| s.throughput_rps).sum();
            assert!(total >= 500.0);
            // Minimality: dropping the last one must under-cover.
            let without_last: f64 = segs[..segs.len() - 1]
                .iter()
                .map(|s| s.throughput_rps)
                .sum();
            assert!(without_last < 500.0);
        }
    }

    #[test]
    fn empty_service_list() {
        let d = allocate(&[], &AllocatorConfig::default());
        assert_eq!(d.gpu_count(), 0);
        assert!(d.validate());
    }
}
