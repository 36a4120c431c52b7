//! End-to-end integration: every paper scenario through the full ParvaGPU
//! pipeline (profile → configure → allocate → serve), asserting the paper's
//! headline claims.

use parvagpu::prelude::*;

fn quick_serving() -> ServingConfig {
    ServingConfig {
        warmup_s: 1.0,
        duration_s: 4.0,
        drain_s: 2.0,
        seed: 11,
        ..Default::default()
    }
}

#[test]
fn every_scenario_schedules_and_validates() {
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    for sc in Scenario::ALL {
        let specs = sc.services();
        let d = sched
            .schedule(&specs)
            .unwrap_or_else(|e| panic!("{sc}: {e}"));
        assert!(d.validate(), "{sc}: structurally invalid deployment");
        for s in &specs {
            assert!(
                d.capacity_of(s.id) + 1e-6 >= s.request_rate_rps,
                "{sc}: service {} under-provisioned",
                s.id
            );
        }
    }
}

#[test]
fn zero_external_fragmentation_in_all_scenarios() {
    // Paper Fig. 7: "ParvaGPU completely eliminates external fragmentation
    // in all scenarios".
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    for sc in Scenario::ALL {
        let d = sched.schedule(&sc.services()).unwrap();
        let frag = external_fragmentation(&d);
        assert!(
            frag.abs() < 1e-9,
            "{sc}: fragmentation {:.2}%",
            frag * 100.0
        );
    }
}

#[test]
fn no_slo_violations_small_scenarios() {
    // Paper Fig. 8: ParvaGPU has no SLO violations. Serving-simulate the
    // lighter scenarios (the heavy ones are covered by the fig8 harness in
    // release mode).
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    for sc in [Scenario::S1, Scenario::S2] {
        let specs = sc.services();
        let d = sched.schedule(&specs).unwrap();
        let report = Simulation::new(&d, &specs).config(&quick_serving()).run();
        assert!(
            (report.overall_compliance_rate() - 1.0).abs() < 1e-9,
            "{sc}: compliance {:.3}%",
            report.overall_compliance_rate() * 100.0
        );
    }
}

#[test]
fn internal_slack_is_single_digit_on_s5() {
    // Paper §IV-B2: "ParvaGPU's internal slack is in the range of 3-5%".
    // Our substrate reproduces the single-digit range on the large
    // scenarios, where last-GPU padding amortizes (S5 measures ~5%); the
    // small scenarios carry a last-GPU padding quantization artifact.
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    let specs = Scenario::S5.services();
    let d = sched.schedule(&specs).unwrap();
    let report = Simulation::new(&d, &specs).config(&quick_serving()).run();
    let slack = internal_slack(&report);
    assert!(slack < 0.10, "slack {:.1}% too high", slack * 100.0);
    assert!(slack >= 0.0);
}

#[test]
fn scenario_gpu_counts_scale_with_load() {
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    let gpus: Vec<usize> = [
        Scenario::S2,
        Scenario::S3,
        Scenario::S4,
        Scenario::S5,
        Scenario::S6,
    ]
    .iter()
    .map(|sc| sched.schedule(&sc.services()).unwrap().gpu_count())
    .collect();
    // Monotone non-decreasing in offered load (S5's strict SLOs may need
    // more than S6 despite lower aggregate rate — compare within the chains
    // the paper sets up: S2 ≤ S3 ≤ S4 and S4 ≤ S6).
    assert!(gpus[0] <= gpus[1], "{gpus:?}");
    assert!(gpus[1] <= gpus[2], "{gpus:?}");
    assert!(gpus[2] <= gpus[4], "{gpus:?}");
}

#[test]
fn segments_respect_internal_latency_target() {
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    for sc in Scenario::ALL {
        let specs = sc.services();
        let d = sched.schedule(&specs).unwrap();
        let mig = d.as_mig().unwrap();
        for ps in mig.segments() {
            let spec = specs
                .iter()
                .find(|s| s.id == ps.segment.service_id)
                .unwrap();
            assert!(
                ps.segment.latency_ms < spec.slo.internal_target_ms(),
                "{sc}: segment {} breaks the internal target",
                ps.segment
            );
        }
    }
}

#[test]
fn deployments_fit_valid_mig_configurations() {
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    let configs = parvagpu::mig::all_configurations();
    for sc in [Scenario::S2, Scenario::S5] {
        let d = sched.schedule(&sc.services()).unwrap();
        for gpu in d.as_mig().unwrap().gpus() {
            assert!(
                configs.iter().any(|c| c.contains(gpu)),
                "{sc}: GPU layout {gpu} is not MIG-realizable"
            );
        }
    }
}
