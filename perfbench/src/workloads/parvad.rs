//! `parvad`: the headless daemon loop as `parvactl daemon` runs it — the
//! builtin boot catalogue at the default 500-ms epoch under Poisson
//! arrivals, three pods submitted at seeded epochs, a 0.4×–1.6× diurnal
//! demand multiplier with seeded jitter, autoscale decisions at the default
//! cadence into a `GaugeLog`, and a checkpoint save and resume every
//! [`CHECKPOINT_EVERY`] epochs. A pass boots [`DAEMONS`] such daemons, each
//! at its own sub-seed of the round, and runs each through one diurnal
//! day. One op is one epoch; checkpoints are timed on their own.

use super::Workload;
use crate::record::Ctx;
use crate::stats::{mix, uniform};
use parvagpu::daemon::{decode_checkpoint, encode_checkpoint, AutoscalePolicy, Daemon, GaugeLog};
use parvagpu::daemon::{DaemonStatus, PodSpec};
use parvagpu::perf::Model;
use parvagpu::scenarios::diurnal_multiplier;
use parvagpu::serve::{ArrivalProcess, StreamReport};

/// Independent daemons per pass. Whether an autoscaler run ratchets up
/// one GPU more for the day swings a single daemon's GPU-epochs by a
/// third, so a run averages over many daemons.
const DAEMONS: u64 = 4;
/// Epochs per daemon and pass: 200 simulated seconds, one diurnal day.
const EPOCHS: u64 = 400;
/// Epochs between checkpoint round trips: mid-day and at dusk.
const CHECKPOINT_EVERY: u64 = 200;
/// `parvactl daemon`'s default epoch length.
const EPOCH_US: u64 = 500_000;
/// Epochs the set-up warm-up runs.
const WARMUP_EPOCHS: u64 = 40;

/// The inputs one daemon's day is driven by.
struct Day {
    /// Pods and the epoch each is submitted before.
    pods: Vec<(u64, PodSpec)>,
    /// Demand multiplier per epoch.
    demand: Vec<f64>,
}

pub struct Parvad {
    policy: AutoscalePolicy,
}

impl Workload for Parvad {
    const PASS_S: f64 = 0.56;

    fn setup(seed: u64, ctx: &mut Ctx) -> Result<Self, String> {
        // The daemon builds the builtin book itself at boot and at every
        // decision and admission; one build here times what each costs.
        ctx.book();
        let w = Self {
            policy: AutoscalePolicy::default(),
        };
        let (mut warm, day) = w.boot_round(seed)?.swap_remove(0);
        let mut log = GaugeLog::new();
        for e in 0..WARMUP_EPOCHS {
            w.epoch(ctx, &day, &mut warm, &mut log, e);
        }
        Ok(w)
    }

    fn pass(&mut self, ctx: &mut Ctx, seed: u64) {
        let boots = match self.boot_round(seed) {
            Ok(boots) => boots,
            Err(e) => return ctx.out().check(Err(e)),
        };
        let (mut gpu_epochs, mut epochs) = (0, 0);
        for (mut daemon, day) in boots {
            let mut log = GaugeLog::new();
            for e in 0..EPOCHS {
                self.epoch(ctx, &day, &mut daemon, &mut log, e);
                if (e + 1) % CHECKPOINT_EVERY == 0 {
                    if let Some(resumed) = checkpoint(ctx, &daemon) {
                        daemon = resumed;
                    }
                }
            }
            let out = ctx.out();
            out.record(log.to_jsonl().as_bytes());
            let report = daemon.report();
            let status = daemon.status();
            let checked = serde_json::to_string(&report)
                .map_err(|e| e.to_string())
                .and_then(|json| out.round_trip::<StreamReport>(&json))
                .and_then(|_| serde_json::to_string(&status).map_err(|e| e.to_string()))
                .and_then(|json| out.round_trip::<DaemonStatus>(&json));
            out.check(checked.map(|_| ()));
            out.served(
                report.services.iter().map(|s| s.offered as f64).sum(),
                report.services.iter().map(|s| s.within_slo as f64).sum(),
            );
            gpu_epochs += status.gpu_epochs;
            epochs += status.epoch;
            if ctx.tracing() {
                let out = ctx.out();
                out.count("parvad.decisions", status.decisions as f64);
                out.count("parvad.reconfigs", status.reconfigs as f64);
                let builds = 1 + status.decisions + day.pods.len() as u64;
                out.count("profile.book_builds", builds as f64);
            }
        }
        ctx.out().gpus += gpu_epochs as f64 / epochs.max(1) as f64;
    }
}

/// Boot a daemon on the builtin catalogue and draw its day from `seed`:
/// each pod's admission moves within its own quarter of the day and each
/// epoch's demand is jittered by ±5%, while the day itself (trough at
/// epoch 0, peak at mid-pass) and the checkpoint epochs stay put.
fn boot(seed: u64, policy: AutoscalePolicy) -> Result<(Daemon, Day), String> {
    let daemon = Daemon::new(
        &parvagpu::cli::default_daemon_catalogue(),
        ArrivalProcess::Poisson,
        seed,
        EPOCH_US,
        policy,
    )?;
    let pods = [
        PodSpec::new("bert-qa", Model::BertLarge, 220.0, 120.0),
        PodSpec::new("resnet-edge", Model::ResNet50, 205.0, 300.0),
        PodSpec::new("densenet-batch", Model::DenseNet121, 183.0, 150.0),
    ]
    .into_iter()
    .zip(0u64..)
    .map(|(pod, i)| {
        let at = (i + 1) * EPOCHS / 4 - 40 + uniform(seed, i, 0.0, 20.0) as u64;
        (at, pod)
    })
    .collect();
    let demand = (0..EPOCHS)
        .map(|e| {
            let day = diurnal_multiplier(e as f64 * 24.0 / EPOCHS as f64, 0.4, 1.6, 0.0);
            day * uniform(seed, 100 + e, 0.95, 1.05)
        })
        .collect();
    Ok((daemon, Day { pods, demand }))
}

impl Parvad {
    /// Boot the round's daemons, each at its own sub-seed of `seed`.
    fn boot_round(&self, seed: u64) -> Result<Vec<(Daemon, Day)>, String> {
        // The benchmark calls `decide` itself at the policy's cadence, so
        // decisions get their own timing; `step` then never decides.
        let policy = AutoscalePolicy {
            decide_every: 0,
            ..self.policy
        };
        (0..DAEMONS).map(|d| boot(mix(seed, d), policy)).collect()
    }

    /// One epoch: pods due now are submitted, the day's demand applied,
    /// the engine stepped, and a decision taken on the cadence.
    fn epoch(&self, ctx: &mut Ctx, day: &Day, daemon: &mut Daemon, log: &mut GaugeLog, e: u64) {
        ctx.op(
            |ctx| {
                for (_, pod) in day.pods.iter().filter(|(at, _)| *at == e) {
                    ctx.layer("parvad.submit", || daemon.submit(pod, log))?;
                }
                daemon.scale_all(day.demand[usize::try_from(e).expect("epoch index")]);
                ctx.layer("parvad.step", || daemon.step(log));
                if daemon.epoch().is_multiple_of(self.policy.decide_every) {
                    ctx.layer("parvad.decide", || daemon.decide(log));
                }
                Ok(daemon.epoch())
            },
            |_, &epoch| {
                if epoch == e + 1 {
                    Ok(())
                } else {
                    Err(format!("epoch {e} left the daemon at epoch {epoch}"))
                }
            },
        );
    }
}

/// Save the daemon and resume from the save, as a suspended `parvad`
/// would: the resumed daemon must land on the same epoch and save to the
/// same bytes. Returns it to continue the pass with.
fn checkpoint(ctx: &mut Ctx, daemon: &Daemon) -> Option<Daemon> {
    let (text, save_ms) = ctx.timed("parvad.encode", || encode_checkpoint(daemon));
    let resumed = text.and_then(|text| {
        let (resumed, resume) = ctx.load("parvad.decode", text.len(), || {
            decode_checkpoint::<Daemon>(&text)
        });
        let resumed = resumed?;
        if resumed.epoch() != daemon.epoch() {
            return Err(format!(
                "checkpoint at epoch {} resumed at epoch {}",
                daemon.epoch(),
                resumed.epoch()
            ));
        }
        if encode_checkpoint(&resumed)? != text {
            return Err("a resumed daemon does not save to its checkpoint's bytes".into());
        }
        let out = ctx.out();
        out.save_ms.push(save_ms);
        out.resumes.push(resume);
        out.record(text.as_bytes());
        if ctx.tracing() {
            let per_pass = (DAEMONS * EPOCHS / CHECKPOINT_EVERY) as f64;
            ctx.out()
                .count("parvad.checkpoint_bytes", text.len() as f64 / per_pass);
        }
        Ok(resumed)
    });
    ctx.out()
        .check(resumed.as_ref().map(|_| ()).map_err(Clone::clone));
    resumed.ok()
}
