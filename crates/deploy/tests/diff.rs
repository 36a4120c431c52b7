//! The §III-F minimal diff: unit cases and properties over arbitrary maps.
//!
//! Completeness is checked by executing a diff's ops on the old map with
//! `MigDeployment::remove` and `place_at`, the way a device layer runs
//! them, and comparing what a device layer can observe with the new map.

use parva_deploy::{DeploymentDiff, MigDeployment, ReconfigOp, Segment};
use parva_mig::{InstanceProfile, Placement};
use parva_perf::Model;
use parva_profile::Triplet;
use proptest::prelude::*;

fn seg(id: u32, g: InstanceProfile, batch: u32, procs: u32) -> Segment {
    Segment {
        service_id: id,
        model: Model::ResNet50,
        triplet: Triplet::new(g, batch, procs),
        throughput_rps: 100.0,
        latency_ms: 10.0,
    }
}

fn map(segments: &[Segment]) -> MigDeployment {
    let mut d = MigDeployment::new();
    for s in segments {
        d.place_first_fit(*s);
    }
    d
}

fn base() -> MigDeployment {
    map(&[
        seg(0, InstanceProfile::G4, 8, 2),
        seg(1, InstanceProfile::G3, 8, 3),
        seg(2, InstanceProfile::G2, 16, 1),
    ])
}

fn diff(old: &MigDeployment, new: &MigDeployment) -> DeploymentDiff {
    DeploymentDiff::between(old.slots(), new.slots())
}

/// Execute `diff` on a copy of `old`: destroys free the slices the
/// creates need, and a retune relaunches the slot's processes in place.
fn apply(old: &MigDeployment, diff: &DeploymentDiff) -> MigDeployment {
    let mut d = old.clone();
    for op in &diff.ops {
        match *op {
            ReconfigOp::Destroy {
                device,
                placement,
                service_id,
            } => {
                let gone = d
                    .remove(device, placement)
                    .expect("destroy hits a live slot");
                assert_eq!(gone.service_id, service_id);
            }
            ReconfigOp::Create {
                device,
                placement,
                segment,
            } => d
                .place_at(segment, device, placement)
                .expect("create finds its slices free"),
            ReconfigOp::RetuneMps {
                device,
                placement,
                procs,
            } => {
                let mut segment = d
                    .remove(device, placement)
                    .expect("retune hits a live slot");
                segment.triplet.procs = procs;
                d.place_at(segment, device, placement).unwrap();
            }
        }
    }
    d
}

/// What a device layer can observe of a map: (GPU, placement, service,
/// MPS processes) per slot.
fn observed(d: &MigDeployment) -> Vec<(usize, Placement, u32, u32)> {
    let mut v: Vec<_> = d
        .slots()
        .map(|(gpu, p, s)| (gpu, p, s.service_id, s.triplet.procs))
        .collect();
    v.sort_unstable();
    v
}

fn count(diff: &DeploymentDiff, f: fn(&ReconfigOp) -> bool) -> usize {
    diff.ops.iter().filter(|op| f(op)).count()
}

#[test]
fn identical_maps_need_no_ops() {
    let d = base();
    let diff = diff(&d, &d);
    assert!(diff.ops.is_empty());
    assert_eq!(diff.kept.len(), 3);
    assert!(diff.mig_touched_devices().is_empty());
}

#[test]
fn unrelated_services_are_kept() {
    // Service 3 takes service 2's spot with the same profile; services 0
    // and 1 stay put.
    let old = base();
    let new = map(&[
        seg(0, InstanceProfile::G4, 8, 2),
        seg(1, InstanceProfile::G3, 8, 3),
        seg(3, InstanceProfile::G2, 16, 2),
    ]);
    let diff = diff(&old, &new);
    assert_eq!(diff.kept.len(), 2);
    assert_eq!(diff.mig_rebuilds(), 2); // destroy old G2 + create new G2
    assert!(matches!(
        diff.ops[0],
        ReconfigOp::Destroy { service_id: 2, .. }
    ));
    assert!(matches!(diff.ops[1], ReconfigOp::Create { segment, .. } if segment.service_id == 3));
    assert_eq!(observed(&apply(&old, &diff)), observed(&new));
}

#[test]
fn procs_change_is_a_retune_not_a_rebuild() {
    let old = base();
    let new = map(&[
        seg(0, InstanceProfile::G4, 8, 3), // 2 → 3 procs
        seg(1, InstanceProfile::G3, 8, 3),
        seg(2, InstanceProfile::G2, 16, 1),
    ]);
    let diff = diff(&old, &new);
    assert_eq!(diff.mig_rebuilds(), 0);
    assert_eq!(diff.ops.len(), 1);
    assert!(matches!(
        diff.ops[0],
        ReconfigOp::RetuneMps { procs: 3, .. }
    ));
    // A retune keeps the MIG layout: no GPU is reconfigured.
    assert!(diff.mig_touched_devices().is_empty());
}

#[test]
fn batch_change_is_a_retune_too() {
    let old = base();
    let new = map(&[
        seg(0, InstanceProfile::G4, 8, 2),
        seg(1, InstanceProfile::G3, 4, 3), // batch 8 → 4
        seg(2, InstanceProfile::G2, 16, 1),
    ]);
    let diff = diff(&old, &new);
    assert_eq!(diff.mig_rebuilds(), 0);
    assert!(matches!(
        diff.ops[..],
        [ReconfigOp::RetuneMps { procs: 3, .. }]
    ));
}

#[test]
fn applying_the_diff_converges_to_the_new_map() {
    let old = base();
    let new = map(&[
        seg(0, InstanceProfile::G4, 8, 2),
        seg(5, InstanceProfile::G3, 4, 2),  // new service
        seg(2, InstanceProfile::G2, 16, 2), // retune
    ]);
    let diff = diff(&old, &new);
    let done = apply(&old, &diff);
    assert!(done.validate());
    assert_eq!(observed(&done), observed(&new));
}

#[test]
fn destroys_ordered_before_creates() {
    // Swap the service in one slot: the create must find the slices
    // already freed.
    let old = map(&[seg(0, InstanceProfile::G3, 8, 1)]);
    let new = map(&[seg(9, InstanceProfile::G3, 8, 1)]);
    let diff = diff(&old, &new);
    assert_eq!(diff.ops.len(), 2);
    assert!(matches!(diff.ops[0], ReconfigOp::Destroy { .. }));
    assert!(matches!(diff.ops[1], ReconfigOp::Create { .. }));
    assert_eq!(observed(&apply(&old, &diff)), observed(&new));
}

#[test]
fn growth_to_new_devices() {
    let old = MigDeployment::new();
    let new = map(&[
        seg(0, InstanceProfile::G7, 8, 1),
        seg(1, InstanceProfile::G7, 8, 1),
    ]);
    let diff = diff(&old, &new);
    assert_eq!(diff.mig_touched_devices(), vec![0, 1]);
    let done = apply(&old, &diff);
    assert_eq!(done.gpu_count(), 2);
    assert_eq!(observed(&done), observed(&new));
}

#[test]
fn any_ordered_device_key_works_and_list_order_is_kept() {
    // A physical (node, gpu) key, as the fleet uses. Destroys follow the
    // old list's order and creates the new list's, whatever the keys sort
    // to; a key that repeats matches pairwise.
    let g1 = Placement::new(InstanceProfile::G1, 0);
    let s = |id| seg(id, InstanceProfile::G1, 8, 1);
    let old = vec![((2, 0), g1, s(7)), ((0, 1), g1, s(7)), ((1, 0), g1, s(4))];
    let new = vec![((1, 0), g1, s(4)), ((0, 3), g1, s(8)), ((0, 2), g1, s(8))];
    let diff = DeploymentDiff::<(usize, u8)>::between(old, new);
    assert_eq!(diff.kept, vec![((1, 0), g1, 4)]);
    let devices: Vec<(usize, u8)> = diff
        .ops
        .iter()
        .map(|op| match op {
            ReconfigOp::Destroy { device, .. }
            | ReconfigOp::Create { device, .. }
            | ReconfigOp::RetuneMps { device, .. } => *device,
        })
        .collect();
    assert_eq!(devices, vec![(2, 0), (0, 1), (0, 3), (0, 2)]);
    assert_eq!(
        diff.mig_touched_devices(),
        vec![(0, 1), (0, 2), (0, 3), (2, 0)]
    );

    let twice = vec![((0, 0), g1, s(1)), ((0, 0), g1, s(1))];
    let once = vec![((0, 0), g1, s(1))];
    let diff = DeploymentDiff::<(usize, u8)>::between(twice, once);
    assert_eq!(diff.kept.len(), 1);
    assert_eq!(diff.mig_rebuilds(), 1);
}

/// Strategy: a sequence of (service id, profile, batch, procs) placed
/// first-fit — every generated map is valid by construction.
fn arb_deployment(max_segments: usize) -> impl Strategy<Value = MigDeployment> {
    prop::collection::vec(
        (
            0u32..6,
            0usize..5,
            prop::sample::select(vec![1u32, 4, 16, 64]),
            1u32..=3,
        ),
        0..max_segments,
    )
    .prop_map(|items| {
        let mut d = MigDeployment::new();
        for (svc, prof_idx, batch, procs) in items {
            let profile = InstanceProfile::ALL[prof_idx];
            d.place_first_fit(Segment {
                service_id: svc,
                model: Model::ALL[(svc as usize) % Model::ALL.len()],
                triplet: Triplet::new(profile, batch, procs),
                throughput_rps: 50.0 * f64::from(profile.gpcs()),
                latency_ms: 12.0,
            });
        }
        d
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diff_transforms_any_map_to_any_map(
        old in arb_deployment(16),
        new in arb_deployment(16),
    ) {
        let done = apply(&old, &diff(&old, &new));
        prop_assert!(done.validate());
        prop_assert_eq!(observed(&done), observed(&new));
    }

    #[test]
    fn self_diff_is_empty(d in arb_deployment(24)) {
        let diff = diff(&d, &d);
        prop_assert!(diff.ops.is_empty());
        prop_assert_eq!(diff.kept.len(), d.segments().len());
    }

    #[test]
    fn diff_op_count_bounded_by_slot_changes(
        old in arb_deployment(16),
        new in arb_deployment(16),
    ) {
        // Minimality (upper bound): never more ops than tearing everything
        // down and rebuilding, and kept slots are never double-counted.
        let diff = diff(&old, &new);
        prop_assert!(diff.ops.len() <= old.segments().len() + new.segments().len());
        prop_assert!(
            diff.kept.len() <= old.segments().len().min(new.segments().len())
        );
        // Conservation: every old slot is kept, retuned or destroyed, and
        // every new slot is kept, retuned or created.
        let destroys = count(&diff, |o| matches!(o, ReconfigOp::Destroy { .. }));
        let creates = count(&diff, |o| matches!(o, ReconfigOp::Create { .. }));
        let retunes = count(&diff, |o| matches!(o, ReconfigOp::RetuneMps { .. }));
        prop_assert_eq!(diff.kept.len() + retunes + destroys, old.segments().len());
        prop_assert_eq!(diff.kept.len() + retunes + creates, new.segments().len());
    }

    #[test]
    fn touched_devices_are_the_gpus_whose_layout_changed(
        old in arb_deployment(16),
        new in arb_deployment(16),
    ) {
        // A GPU needs MIG reconfiguration exactly when its set of
        // (service, placement) pairs differs between the maps.
        let layout = |d: &MigDeployment, gpu: usize| {
            let mut v: Vec<(u32, Placement)> = d
                .segments_on(gpu)
                .map(|ps| (ps.segment.service_id, ps.placement))
                .collect();
            v.sort_unstable();
            v
        };
        let changed: Vec<usize> = (0..old.gpu_count().max(new.gpu_count()))
            .filter(|&gpu| layout(&old, gpu) != layout(&new, gpu))
            .collect();
        prop_assert_eq!(diff(&old, &new).mig_touched_devices(), changed);
    }
}
