//! The serving engine's suspend/resume contract, property-tested: a run
//! advanced epoch by epoch and interrupted at any epoch boundary — full
//! engine state serialized, dropped, deserialized — must be
//! **byte-identical** to an uninterrupted run at the same seed, in every
//! artifact: the gauge shard (`metrics_jsonl`), the trace shard
//! (`chrome_trace`), the cumulative report and the final engine state.
//! Coverage spans seeds × suspension points × MIG/MPS deployments × ingress
//! splits × arrival processes × a quota-limited tenant × resilience
//! policies (timeouts, budgeted retries with jitter, hedging, shedding) ×
//! a live reconfiguration with measured recovery, with workloads drawn from
//! the paper's Table IV scenario registry.

use parva_deploy::{Deployment, Scheduler, ServiceSpec, Tenant};
use parva_obs::Recorder;
use parva_profile::ProfileBook;
use parva_scenarios::Scenario;
use parva_serve::{
    ArrivalProcess, Engine, IngressClass, RecoveryOp, RecoverySpec, ResilienceSpec, Simulation,
};
use proptest::prelude::*;

/// Epochs are short (0.2 s of simulated traffic) so a case stays cheap
/// while still crossing many batch/timeout boundaries per epoch.
const EPOCH_US: u64 = 200_000;
const TOTAL_EPOCHS: u64 = 6;
/// Gauge cadence: several tick rows per epoch, sampled across suspensions.
const SAMPLE_US: u64 = 50_000;

/// Schedule one Table IV scenario on the requested scheduler family.
/// `None` when that scheduler cannot host the mix (the property is about
/// resume fidelity, not feasibility).
fn deployment(scenario: Scenario, mps: bool) -> Option<(Deployment, Vec<ServiceSpec>)> {
    let specs = scenario.services();
    let d = if mps {
        parva_baselines::Gpulet::new().schedule(&specs).ok()?
    } else {
        let book = ProfileBook::builtin();
        parva_core::ParvaGpu::new(&book).schedule(&specs).ok()?
    };
    Some((d, specs))
}

fn ingress_for(specs: &[ServiceSpec], remote_share: f64, rtt_ms: f64) -> Vec<Vec<IngressClass>> {
    specs
        .iter()
        .map(|s| {
            if remote_share == 0.0 {
                vec![IngressClass::local(s.request_rate_rps)]
            } else {
                vec![
                    IngressClass::local(s.request_rate_rps * (1.0 - remote_share)),
                    IngressClass {
                        rate_rps: s.request_rate_rps * remote_share,
                        network_ms: rtt_ms,
                    },
                ]
            }
        })
        .collect()
}

/// `None`, or a policy exercising timeouts, budgeted retries with jitter
/// and shedding — plus hedging when `pick` is 2.
fn resilience(pick: usize) -> Option<ResilienceSpec> {
    (pick > 0).then(|| ResilienceSpec {
        timeout_ms: 40.0,
        max_retries: 2,
        jitter: 0.5,
        retry_budget_rps: 200.0,
        shed_queue_depth: 64,
        hedge_quantile: if pick == 2 { 0.9 } else { 0.0 },
        ..ResilienceSpec::default()
    })
}

/// Re-flash GPUs 0 and 1 under the live traffic: their servers go dark
/// until the measured recovery lands.
fn recovery() -> RecoverySpec {
    RecoverySpec {
        start_ms: 0.0,
        control_plane_ms: 20.0,
        reflash_ms: 150.0,
        link_gib_per_s: 16.0,
        ops: (0..2)
            .map(|g| RecoveryOp {
                node: 0,
                logical_gpu: Some(g),
                reflash: true,
                copy_gib: 1.0,
                prepared: false,
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resumed_stream_is_byte_identical_to_uninterrupted(
        seed in 0u64..1_000_000,
        scenario_idx in 0usize..6,
        mps in 0u32..2,
        suspend_at in 1u64..TOTAL_EPOCHS,
        remote_tenths in 0u32..=5,
        rtt in 1.0f64..120.0,
        arrivals_pick in 0usize..3,
        capped_tenant in 0u32..2,
        resilience_pick in 0usize..3,
        reconfigure_at in 0u64..TOTAL_EPOCHS + 1, // TOTAL_EPOCHS: never
    ) {
        let scenario = Scenario::ALL[scenario_idx];
        let Some((d, specs)) = deployment(scenario, mps == 1) else {
            return Ok(());
        };
        let ingress = ingress_for(&specs, f64::from(remote_tenths) / 10.0, rtt);
        let arrivals = match arrivals_pick {
            0 => ArrivalProcess::Poisson,
            1 => ArrivalProcess::Deterministic,
            _ => ArrivalProcess::Mmpp { burst_factor: 3.0, mean_phase_s: 0.3 },
        };
        // The first service belongs to a tenant capped at a third of its
        // rate; everyone else to an unlimited one.
        let (specs, tenants) = if capped_tenant == 1 {
            let quota = specs[0].request_rate_rps / 3.0;
            let specs: Vec<ServiceSpec> = specs
                .iter()
                .enumerate()
                .map(|(i, s)| s.with_tenant(if i == 0 { 1 } else { 2 }))
                .collect();
            (specs, vec![Tenant::new(1, "capped").with_quota_rps(quota), Tenant::new(2, "free")])
        } else {
            (specs, Vec::new())
        };
        let policy = resilience(resilience_pick);
        let build = || {
            Simulation::new(&d, &specs)
                .ingress(&ingress)
                .tenants(&tenants)
                .resilience_opt(policy.as_ref())
                .window(0.0, f64::MAX, 0.0)
                .seed(seed)
                .arrivals(arrivals)
                .engine()
        };
        let recovery = recovery();
        let step = |engine: &mut Engine, epoch: u64, rec: &mut Recorder| {
            if epoch == reconfigure_at {
                engine.reconfigure(&d, &specs, Some(&recovery), rec);
            }
            engine.step_epoch(EPOCH_US, rec);
        };

        // Control: one uninterrupted run.
        let mut control = build();
        let mut control_rec = Recorder::new(SAMPLE_US);
        for epoch in 0..TOTAL_EPOCHS {
            step(&mut control, epoch, &mut control_rec);
        }

        // Interrupted: suspend at an arbitrary epoch boundary, freeze the
        // whole engine to JSON, drop it, thaw, continue. The recorder
        // persists — its shards are append-only artifacts, exactly like
        // the daemon's gauge log across a process restart.
        let mut live = build();
        let mut resumed_rec = Recorder::new(SAMPLE_US);
        for epoch in 0..suspend_at {
            step(&mut live, epoch, &mut resumed_rec);
        }
        let frozen = serde_json::to_string(&live).expect("engine serializes");
        drop(live);
        let mut resumed: Engine = serde_json::from_str(&frozen).expect("engine deserializes");
        for epoch in suspend_at..TOTAL_EPOCHS {
            step(&mut resumed, epoch, &mut resumed_rec);
        }

        prop_assert_eq!(control_rec.metrics_jsonl(), resumed_rec.metrics_jsonl());
        prop_assert_eq!(control_rec.chrome_trace(), resumed_rec.chrome_trace());
        prop_assert_eq!(
            serde_json::to_string(&control.stream_report()).expect("report serializes"),
            serde_json::to_string(&resumed.stream_report()).expect("report serializes")
        );
        prop_assert_eq!(
            serde_json::to_string(&control).expect("engine serializes"),
            serde_json::to_string(&resumed).expect("engine serializes")
        );
    }
}
