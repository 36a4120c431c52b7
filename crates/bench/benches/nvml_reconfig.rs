//! Microbench: the deployment-execution layer — applying a full S2 map to
//! the simulated NVML fleet, and computing + applying the minimal §III-F
//! reconfiguration diff. The paper quotes "milliseconds to a few seconds"
//! for physical MIG/MPS switches; the *planning* side measured here must be
//! negligible against that.

use criterion::{criterion_group, criterion_main, Criterion};
use parva_core::{reconfigure, ParvaGpu};
use parva_deploy::{DeploymentDiff, ServiceSpec};
use parva_mig::GpuModel;
use parva_nvml::{apply_deployment, apply_diff, SimNvml};
use parva_profile::ProfileBook;
use parva_scenarios::Scenario;

fn bench_nvml(c: &mut Criterion) {
    let book = ProfileBook::builtin();
    let sched = ParvaGpu::new(&book);
    let specs = Scenario::S2.services();
    let (services, before) = sched.plan(&specs).expect("S2 feasible");
    let spike = ServiceSpec::new(
        8,
        specs[8].model,
        specs[8].request_rate_rps * 3.0,
        specs[8].slo.latency_ms,
    );
    let outcome = reconfigure::update_service(&sched, &before, &services, spike).expect("reconfig");
    let diff = DeploymentDiff::between(before.slots(), outcome.deployment.slots());

    let mut group = c.benchmark_group("nvml");
    group.bench_function("apply_s2_deployment", |b| {
        b.iter(|| {
            let mut nvml = SimNvml::new(0, GpuModel::A100_80GB);
            apply_deployment(&mut nvml, std::hint::black_box(&before)).unwrap()
        })
    });
    group.bench_function("diff_s2_reconfig", |b| {
        b.iter(|| {
            DeploymentDiff::between(
                std::hint::black_box(&before).slots(),
                outcome.deployment.slots(),
            )
        })
    });
    group.bench_function("apply_s2_diff", |b| {
        b.iter(|| {
            let mut nvml = SimNvml::new(0, GpuModel::A100_80GB);
            apply_deployment(&mut nvml, &before).unwrap();
            apply_diff(&mut nvml, std::hint::black_box(&diff)).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_nvml);
criterion_main!(benches);
