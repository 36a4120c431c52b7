//! Autoscaling under a diurnal load curve: the paper's runtime story
//! (§III-F) end to end, run by the `parvad` daemon. Demand swings
//! 0.4×–1.6× over a simulated day, the day `crates/parvad/tests/diurnal.rs`
//! gates. The daemon sees only the arrivals it observes, re-plans
//! out-of-band services incrementally through ParvaGPU's reconfiguration
//! path, and pays the fleet's recovery model (re-flash, weight copy) for
//! every GPU it re-slices. We watch fleet size, SLO attainment and churn
//! hour by hour.
//!
//! Run: `cargo run --release --example diurnal_autoscaling`

use parvagpu::obs::NullSink;
use parvagpu::prelude::*;
use parvagpu::scenarios::diurnal_multiplier;

/// One epoch per simulated hour, 45 s of traffic each.
const EPOCH_US: u64 = 45_000_000;
const HOURS: u64 = 24;
const LOW: f64 = 0.4;
const PEAK: f64 = 1.6;

fn main() {
    // Daily-mean rates that span several GPUs at the trough and grow
    // substantially toward the peak: a fleet that actually scales.
    let base = vec![
        ServiceSpec::new(1, Model::ResNet50, 9600.0, 205.0),
        ServiceSpec::new(2, Model::MobileNetV2, 8000.0, 167.0),
        ServiceSpec::new(3, Model::DenseNet121, 3600.0, 183.0),
    ];
    let policy = AutoscalePolicy {
        decide_every: 2,
        window: 2,
        headroom: 1.25,
        ..AutoscalePolicy::default()
    };
    let mut daemon =
        Daemon::new(&base, ArrivalProcess::Poisson, 42, EPOCH_US, policy).expect("feasible");

    println!(
        "{:>4} {:>6} {:>5} {:>8} {:>11} {:>8}",
        "hour", "load", "GPUs", "offered", "attainment", "churned"
    );
    for hour in 0..HOURS {
        let load = diurnal_multiplier(hour as f64, LOW, PEAK, 0.0);
        daemon.scale_all(load);
        daemon.step(&mut NullSink);
        let epoch = daemon.engine().last_epoch();
        let offered: u64 = epoch.iter().map(|o| o.offered).sum();
        let completed: u64 = epoch.iter().map(|o| o.completed).sum();
        let within: u64 = epoch.iter().map(|o| o.within_slo).sum();
        let status = daemon.status();
        println!(
            "{hour:>4} {load:>5.2}x {:>5} {offered:>8} {:>10.2}% {:>8}",
            status.gpus,
            within as f64 / completed.max(1) as f64 * 100.0,
            status.churned_gpus
        );
    }

    let status = daemon.status();
    let report = daemon.report();
    let completed: u64 = report.services.iter().map(|s| s.completed).sum();
    let within: u64 = report.services.iter().map(|s| s.within_slo).sum();
    // A fleet statically sized for the peak, around the clock.
    let peak: Vec<ServiceSpec> = base
        .iter()
        .map(|s| ServiceSpec::new(s.id, s.model, s.request_rate_rps * PEAK, s.slo.latency_ms))
        .collect();
    let book = ProfileBook::builtin();
    let static_peak = ParvaGpu::new(&book)
        .schedule(&peak)
        .expect("peak feasible")
        .gpu_count() as u64
        * HOURS;
    println!(
        "\n{} decisions, {} re-plans, {} GPUs re-sliced; attainment {:.2}%; \
         {} GPU-epochs against {static_peak} for static peak provisioning",
        status.decisions,
        status.reconfigs,
        status.churned_gpus,
        within as f64 / completed.max(1) as f64 * 100.0,
        status.gpu_epochs,
    );
    assert!(status.decisions > 0, "the control loop never ran");
    assert!(
        status.reconfigs > 0,
        "a 4x demand swing must trigger re-plans"
    );
    assert!(
        status.gpu_epochs < static_peak,
        "the daemon must provision fewer GPU-epochs than static peak"
    );
}
