//! Tests for the paper's proposed extensions (§III-F shadow processes,
//! §V/§VI adaptations) implemented in this reproduction.

use parvagpu::autoscale::displacement_window;
use parvagpu::core::{reconfigure, ParvaGpu};
use parvagpu::prelude::*;

#[test]
fn throughput_only_services_schedule_efficiently() {
    // §VI: HPC/training adaptation — no latency bound, pure rate cover.
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    let specs = vec![
        ServiceSpec::throughput_only(0, Model::ResNet50, 2_000.0),
        ServiceSpec::throughput_only(1, Model::BertLarge, 100.0),
    ];
    let d = sched.schedule(&specs).unwrap();
    for s in &specs {
        assert!(d.capacity_of(s.id) >= s.request_rate_rps);
    }
    assert!(external_fragmentation(&d) < 1e-9);

    // With the latency bound gone, the optimal segments must be at least as
    // GPC-efficient as under a strict SLO.
    let strict = vec![ServiceSpec::new(0, Model::ResNet50, 2_000.0, 60.0)];
    let (strict_cfg, _) = sched.plan(&strict).unwrap();
    let (loose_cfg, _) = sched
        .plan(&[ServiceSpec::throughput_only(0, Model::ResNet50, 2_000.0)])
        .unwrap();
    assert!(
        loose_cfg[0].opt_seg.throughput_per_gpc()
            >= strict_cfg[0].opt_seg.throughput_per_gpc() - 1e-9
    );
}

#[test]
fn shadow_plan_covers_torn_down_capacity() {
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    let specs = Scenario::S2.services();
    let (services, deployment) = sched.plan(&specs).unwrap();

    let updated = ServiceSpec::new(4, Model::InceptionV3, 1_500.0, 419.0);
    let out = reconfigure::update_service(&sched, &deployment, &services, updated).unwrap();
    let window = displacement_window(&deployment, &out.reconfigured_gpus);

    // Every reconfiguring GPU's resident services are bridged.
    for &gpu in &out.reconfigured_gpus {
        for ps in deployment.segments_on(gpu) {
            assert!(
                window.affected_services.contains(&ps.segment.service_id),
                "service {} missing from the shadow window",
                ps.segment.service_id
            );
        }
    }
    // The shadow fleet replicates exactly the GPCs torn down on the
    // reconfiguring GPUs (brand-new GPUs contribute nothing — bringing up
    // a fresh GPU needs no shadow processes), on enough spare GPUs.
    let torn_down: u32 = out
        .reconfigured_gpus
        .iter()
        .flat_map(|&g| deployment.segments_on(g))
        .map(|ps| u32::from(ps.segment.gpcs()))
        .sum();
    let shadow_gpcs: u32 = window
        .shadowed
        .segments()
        .iter()
        .filter(|ps| ps.gpu >= deployment.gpu_count())
        .map(|ps| u32::from(ps.segment.gpcs()))
        .sum();
    assert_eq!(shadow_gpcs, torn_down);
    assert!(window.shadow_gpus as u32 * 7 >= torn_down);
    if out.reconfigured_gpus.is_empty() {
        assert_eq!(window.shadow_gpus, 0);
    }
}

#[test]
fn h100_geometry_is_interchangeable() {
    // §V: Ampere/Hopper/Blackwell all keep the same MIG configurations, so
    // the geometry layer must treat them identically.
    use parvagpu::mig::{GpuModel, InstanceProfile};
    for p in InstanceProfile::ALL {
        assert_eq!(
            GpuModel::A100_80GB.instance_memory_gib(p),
            GpuModel::H100_80GB.instance_memory_gib(p)
        );
    }
}

#[test]
fn memory_heavy_llm_like_service_prefers_big_instances() {
    // §V discussion: memory-hungry models reduce the feasibility of small
    // segments. BERT-large at a large batch is our stand-in: its optimal
    // triplets must exclude 1-GPC instances at high batch sizes, yet the
    // service still schedules.
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    let specs = vec![ServiceSpec::new(0, Model::BertLarge, 200.0, 4_000.0)];
    let (cfg, d) = sched.plan(&specs).unwrap();
    assert!(d.validate());
    // The most efficient operating point for a big model at loose SLO is a
    // large-batch triplet that only fits on multi-GPC instances.
    assert!(cfg[0].opt_seg.triplet.batch >= 16);
}
