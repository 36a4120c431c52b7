//! The closed-loop acceptance demo: under a diurnal 0.4×–1.6× demand
//! swing the daemon — which only ever sees *observed* arrivals — must
//! track demand well enough to stay within two points of an oracle that
//! re-plans from the true rates every epoch with free actuation, while
//! provisioning fewer GPU-epochs than a fleet statically sized for the
//! 1.6× peak.

use parva_core::ParvaGpu;
use parva_deploy::{Deployment, ServiceSpec};
use parva_obs::NullSink;
use parva_perf::Model;
use parva_profile::ProfileBook;
use parva_serve::{ArrivalProcess, Simulation};
use parvad::{AutoscalePolicy, Daemon};

const EPOCH_US: u64 = 45_000_000;
const HOURS: u64 = 24;

/// Rates sized so the plan spans several GPUs at the trough and grows
/// substantially toward the 1.6x peak — a fleet that actually scales.
fn base_specs() -> Vec<ServiceSpec> {
    vec![
        ServiceSpec::new(1, Model::ResNet50, 9600.0, 205.0),
        ServiceSpec::new(2, Model::MobileNetV2, 8000.0, 167.0),
        ServiceSpec::new(3, Model::DenseNet121, 3600.0, 183.0),
    ]
}

/// The diurnal multiplier at hour `h`: 0.4 at the trough (h = 0), 1.6 at
/// the peak (h = 12), cosine in between.
fn swing(h: u64) -> f64 {
    1.0 - 0.6 * (std::f64::consts::TAU * h as f64 / HOURS as f64).cos()
}

fn attainment(report: &parva_serve::StreamReport) -> f64 {
    let completed: u64 = report.services.iter().map(|s| s.completed).sum();
    let within: u64 = report.services.iter().map(|s| s.within_slo).sum();
    if completed == 0 {
        1.0
    } else {
        within as f64 / completed as f64
    }
}

#[test]
fn daemon_tracks_diurnal_swing_within_two_points_of_oracle() {
    let seed = 42;
    let specs = base_specs();
    let book = ProfileBook::builtin();
    let scheduler = ParvaGpu::new(&book);

    // The closed loop: demand multipliers are injected into the world;
    // the autoscaler only sees their fallout in the observed gauges.
    let policy = AutoscalePolicy {
        decide_every: 2,
        window: 2,
        headroom: 1.25,
        ..AutoscalePolicy::default()
    };
    let mut daemon = Daemon::new(&specs, ArrivalProcess::Poisson, seed, EPOCH_US, policy).unwrap();
    let mut sink = NullSink;
    for h in 0..HOURS {
        daemon.scale_all(swing(h));
        daemon.step(&mut sink);
    }
    let daemon_attainment = attainment(&daemon.report());
    let status = daemon.status();
    assert!(status.decisions > 0, "the control loop never ran");
    assert!(
        status.reconfigs > 0,
        "a 4x demand swing must trigger incremental re-plans"
    );

    // The oracle: re-plans from the *true* rates every epoch, actuates for
    // free (no reflash/copy dark time), serves the same arrival stream.
    let (_, boot) = scheduler.plan(&specs).unwrap();
    let mut oracle = Simulation::new(&Deployment::Mig(boot), &specs)
        .window(0.0, f64::MAX, 0.0)
        .seed(seed)
        .engine();
    let mut oracle_gpu_epochs = 0u64;
    for h in 0..HOURS {
        let m = swing(h);
        let true_specs: Vec<ServiceSpec> = specs
            .iter()
            .map(|s| ServiceSpec::new(s.id, s.model, s.request_rate_rps * m, s.slo.latency_ms))
            .collect();
        let (_, dep) = scheduler.plan(&true_specs).unwrap();
        oracle_gpu_epochs += dep.gpu_count() as u64;
        oracle.reconfigure(&Deployment::Mig(dep), &true_specs, None, &mut sink);
        oracle.set_demand_multiplier(&[m; 3]);
        oracle.step_epoch(EPOCH_US, &mut sink);
    }
    let oracle_attainment = attainment(&oracle.stream_report());

    assert!(
        daemon_attainment >= oracle_attainment - 0.02,
        "closed loop fell more than 2 points behind the oracle: \
         daemon {daemon_attainment:.4} vs oracle {oracle_attainment:.4}"
    );

    // Static peak provisioning: a fleet sized for 1.6x around the clock.
    let peak_specs: Vec<ServiceSpec> = specs
        .iter()
        .map(|s| ServiceSpec::new(s.id, s.model, s.request_rate_rps * 1.6, s.slo.latency_ms))
        .collect();
    let (_, peak) = scheduler.plan(&peak_specs).unwrap();
    let static_peak_gpu_epochs = peak.gpu_count() as u64 * HOURS;
    assert!(
        daemon.gpu_epochs() < static_peak_gpu_epochs,
        "closed loop must provision fewer GPU-epochs than static peak: \
         daemon {} vs static {static_peak_gpu_epochs}",
        daemon.gpu_epochs()
    );
    // Sanity on the oracle's own bill: free hourly replanning is the
    // floor, and the daemon should land between it and static peak.
    assert!(
        oracle_gpu_epochs < static_peak_gpu_epochs,
        "oracle bill {oracle_gpu_epochs} vs static {static_peak_gpu_epochs}"
    );
}
