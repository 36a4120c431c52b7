//! Property tests: applying maps and diffs over arbitrary deployment maps.
//! (The diff's own properties live with it, in `parva-deploy`.)

use parva_deploy::{DeploymentDiff, MigDeployment, Segment};
use parva_mig::{GpuModel, InstanceProfile};
use parva_nvml::{apply_deployment, apply_diff, fleet_matches, SimNvml};
use parva_perf::Model;
use parva_profile::Triplet;
use proptest::prelude::*;

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
    fn apply_always_realizes_the_map(d in arb_deployment(24)) {
        let mut nvml = SimNvml::new(0, GpuModel::A100_80GB);
        apply_deployment(&mut nvml, &d).expect("valid map applies");
        prop_assert!(nvml.validate());
        prop_assert!(fleet_matches(&nvml, &d));
        prop_assert_eq!(nvml.instances().len(), d.segments().len());
    }

    #[test]
    fn diff_transforms_any_fleet_to_any_map(
        old in arb_deployment(16),
        new in arb_deployment(16),
    ) {
        let mut nvml = SimNvml::new(0, GpuModel::A100_80GB);
        apply_deployment(&mut nvml, &old).expect("old applies");
        let diff = DeploymentDiff::between(old.slots(), new.slots());
        apply_diff(&mut nvml, &diff).expect("diff applies");
        prop_assert!(nvml.validate());
        prop_assert!(fleet_matches(&nvml, &new));
    }
}
